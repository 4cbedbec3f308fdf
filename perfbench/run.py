#!/usr/bin/env python3
"""Build llmq's benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace 0|1
    python3 perfbench/run.py --list

Run from the repository root. The benchmark binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr so that the last line of stdout is the binary's JSON result.
The arguments are passed to the binary unchanged: its command line is the
one that is checked. With --trace 1 the spans of the last traced run are
written next to the build as spans-<workload>-<seed>.csv. See
perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(repo_root(), base, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary path or
    None when the build fails."""
    out = build_dir()
    src = os.path.join(repo_root(), "perfbench")
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench")


def flag_value(argv, flag):
    """The value after `flag` in argv, or None. The binary validates it."""
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else None


def main(argv):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary] + argv
    if flag_value(argv, "--trace") == "1":
        name = (f"spans-{flag_value(argv, '--workload')}-"
                f"{flag_value(argv, '--seed')}.csv")
        cmd += ["--spans", os.path.join(build_dir(), name)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
