// A step that throws on a worker thread fails the run on the driver, the
// way the virtual-clock driver's fleet.step() throw does — never a
// std::terminate from an escaped exception on the worker.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "serve/online.hpp"
#include "serve/threaded_fleet.hpp"

namespace llmq::serve {
namespace {

TEST(ThreadedFleetErrors, WorkerStepFailureIsRethrownByTheDriver) {
  table::Table t(table::Schema::of_names({"sku", "note"}));
  for (std::size_t r = 0; r < 8; ++r)
    t.append_row({"sku_" + std::to_string(r),
                  "a row whose prompt needs more KV blocks than the pool"});
  OnlineConfig cfg;
  cfg.prompt.system_prompt = "You are a data analyst.";
  cfg.prompt.user_prompt = "Classify the row.";
  cfg.engine.kv_pool_blocks_override = 1;  // no prompt fits, even alone
  cfg.n_replicas = 2;
  WorkloadOptions w;
  w.n_requests = 8;
  w.seed = 3;
  const std::vector<Arrival> arrivals = generate_arrivals(t.num_rows(), w);
  const table::FdSet fds;

  EXPECT_THROW(run_online_replicated(t, fds, arrivals, cfg),
               std::runtime_error);
  EXPECT_THROW(run_online_threaded(t, fds, arrivals, cfg),
               std::runtime_error);
}

}  // namespace
}  // namespace llmq::serve
