// Tests for the threaded BSP executor: equivalence with the sequential
// engine across thread counts and shapes.
#include <gtest/gtest.h>

#include "case_names.hpp"
#include "core/exchange_engine.hpp"
#include "runtime/parallel_engine.hpp"

namespace torex {
namespace {

struct RuntimeCase {
  std::vector<std::int32_t> extents;
  int threads;
};

void PrintTo(const RuntimeCase& c, std::ostream* os) {
  *os << test::extents_name(c.extents) << "_threads" << c.threads;
}

class ParallelRuntimeTest : public ::testing::TestWithParam<RuntimeCase> {};

TEST_P(ParallelRuntimeTest, MatchesSequentialEngine) {
  const TorusShape shape(GetParam().extents);
  const SuhShinAape algo(shape);

  EngineOptions seq_opts;
  seq_opts.record_transfers = false;
  ExchangeEngine sequential(algo, seq_opts);
  const ExchangeTrace seq_trace = sequential.run_verified();

  ParallelOptions par_opts;
  par_opts.num_threads = GetParam().threads;
  ParallelExchange parallel(algo, par_opts);
  const ExchangeTrace par_trace = parallel.run_verified();

  ASSERT_EQ(par_trace.steps.size(), seq_trace.steps.size());
  for (std::size_t i = 0; i < seq_trace.steps.size(); ++i) {
    EXPECT_EQ(par_trace.steps[i].max_blocks_per_node, seq_trace.steps[i].max_blocks_per_node)
        << "step " << i;
    EXPECT_EQ(par_trace.steps[i].total_blocks, seq_trace.steps[i].total_blocks) << "step " << i;
    EXPECT_EQ(par_trace.steps[i].hops, seq_trace.steps[i].hops);
  }

  // Final buffers hold identical block sets (order may differ).
  const auto& a = sequential.buffers();
  const auto& b = parallel.buffers();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    auto sa = a[p];
    auto sb = b[p];
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    EXPECT_EQ(sa, sb) << "node " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParallelRuntimeTest,
    ::testing::Values(RuntimeCase{{8, 8}, 1}, RuntimeCase{{8, 8}, 2}, RuntimeCase{{8, 8}, 4},
                      RuntimeCase{{12, 8}, 3}, RuntimeCase{{12, 12}, 4},
                      RuntimeCase{{8, 8, 4}, 4}, RuntimeCase{{8, 8, 4}, 7},
                      RuntimeCase{{4, 4}, 16},  // more threads than busy nodes
                      RuntimeCase{{8, 4, 4, 4}, 5}),
    ::testing::PrintToStringParamName());

TEST(ParallelRuntimeTest, DefaultThreadCountRuns) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  ParallelExchange parallel(algo);
  EXPECT_NO_THROW(parallel.run_verified());
}

TEST(ParallelRuntimeTest, RepeatedRunsAreStable) {
  // Re-running the same executor must reset state and succeed again.
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  ParallelOptions opts;
  opts.num_threads = 3;
  ParallelExchange parallel(algo, opts);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NO_THROW(parallel.run_verified()) << "iteration " << i;
  }
}

}  // namespace
}  // namespace torex
