#pragma once
// Strict command lines for the examples, with the benches' contract
// (bench/bench_common.hpp): an unexpected argument, a flag missing its
// value or a malformed value prints the usage line on stderr and exits 2;
// a file that cannot be read or written prints an error line and exits 1.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "table/csv.hpp"
#include "table/value.hpp"

namespace llmq::examples {

class Cli {
 public:
  /// `usage` is the argument synopsis printed after the program name.
  Cli(int argc, char** argv, const char* usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  [[noreturn]] void usage_error(const std::string& what,
                                const char* arg) const {
    std::fprintf(stderr, "%s: %s '%s'\nusage: %s%s%s\n", argv_[0],
                 what.c_str(), arg, argv_[0], *usage_ ? " " : "", usage_);
    std::exit(2);
  }

  [[noreturn]] void file_error(const std::string& what) const {
    std::fprintf(stderr, "%s: %s\n", argv_[0], what.c_str());
    std::exit(1);
  }

  /// At most `n` arguments after the program name.
  void max_args(int n) const {
    if (argc_ > n + 1) usage_error("unexpected argument", argv_[n + 1]);
  }

  /// The value after the flag at argv[i]; advances i past it.
  const char* value(int& i) const {
    if (i + 1 >= argc_) usage_error("missing value for", argv_[i]);
    return argv_[++i];
  }

  std::size_t count(const char* name, const char* v) const {
    const auto n = table::parse_int(v);
    if (!n || *n < 1)
      usage_error(std::string(name) + " needs an integer >= 1, got", v);
    return static_cast<std::size_t>(*n);
  }

  double fraction(const char* name, const char* v) const {
    const auto x = table::parse_double(v);
    if (!x || !(*x >= 0.0 && *x <= 1.0))
      usage_error(std::string(name) + " needs a number in [0, 1], got", v);
    return *x;
  }

  /// A CSV file with at least one data row.
  table::Table read_table(const char* path) const {
    try {
      table::Table t = table::read_csv_file(path);
      if (t.num_rows() > 0) return t;
    } catch (const std::exception& e) {
      file_error(e.what());
    }
    file_error(std::string(path) + ": no data rows");
  }

  void write_table(const table::Table& t, const std::string& path) const {
    try {
      table::write_csv_file(t, path);
    } catch (const std::exception& e) {
      file_error(e.what());
    }
  }

 private:
  int argc_;
  char** argv_;
  const char* usage_;
};

}  // namespace llmq::examples
