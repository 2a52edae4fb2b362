// Tests for node-local execution: local schedules are constant-size,
// the programs' decisions match the omniscient oracle block for block,
// and N programs driven in lockstep reproduce the engine's traffic
// exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "case_names.hpp"
#include "core/exchange_engine.hpp"
#include "runtime/node_program.hpp"

namespace torex {
namespace {

TEST(LocalScheduleTest, ExtractionMatchesOracle) {
  const SuhShinAape algo(TorusShape::make_2d(12, 8));
  for (Rank node : {0, 17, 50, 95}) {
    const LocalSchedule local = extract_local_schedule(algo, node);
    EXPECT_EQ(local.self, node);
    EXPECT_EQ(local.shape, algo.shape());
    ASSERT_EQ(static_cast<int>(local.phases.size()), algo.num_phases());
    std::size_t flat = 0;
    for (int phase = 1; phase <= algo.num_phases(); ++phase) {
      EXPECT_EQ(local.phases[static_cast<std::size_t>(phase - 1)].steps,
                algo.steps_in_phase(phase));
      for (int step = 1; step <= algo.steps_in_phase(phase); ++step, ++flat) {
        EXPECT_EQ(local.plan[flat].partner, algo.partner(node, phase, step));
        EXPECT_EQ(local.plan[flat].dim, algo.direction(node, phase, step).dim);
      }
    }
  }
}

TEST(LocalScheduleTest, ConfigurationIsConstantSizePerNode) {
  // The per-node plan grows with the schedule length (Theta(a1)), never
  // with the node count N — the property that makes a real port scale.
  const LocalSchedule small = extract_local_schedule(SuhShinAape(TorusShape({8, 8})), 0);
  const LocalSchedule large = extract_local_schedule(SuhShinAape(TorusShape({8, 8, 8})), 0);
  EXPECT_EQ(static_cast<int>(small.plan.size()),
            SuhShinAape(TorusShape({8, 8})).total_steps());
  EXPECT_EQ(static_cast<int>(large.plan.size()),
            SuhShinAape(TorusShape({8, 8, 8})).total_steps());
}

TEST(NodeProgramTest, LocalPredicateMatchesOracleEverywhere) {
  // Every node, every flat step, every destination: the program's send
  // set and partner, computed from its LocalSchedule alone, equal the
  // global schedule's send_test and partner.
  for (const TorusShape& shape : {TorusShape({8, 8}), TorusShape({12, 8}),
                                  TorusShape({8, 8, 4}), TorusShape({8, 4, 4, 4})}) {
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    for (Rank node = 0; node < N; ++node) {
      NodeProgram program(extract_local_schedule(algo, node));
      std::size_t flat = 0;
      for (int phase = 1; phase <= algo.num_phases(); ++phase) {
        for (int step = 1; step <= algo.steps_in_phase(phase); ++step, ++flat) {
          const SuhShinAape::SendTest sends = algo.send_test(node, phase, step);
          std::vector<Block> expected;
          for (Rank d = 0; d < N; ++d) {
            if (sends(Block{node, d})) expected.push_back(Block{node, d});
          }
          program.seed_canonical();
          Rank partner = -1;
          std::vector<Block> got = program.collect_outgoing(flat, partner);
          ASSERT_EQ(partner, algo.partner(node, phase, step))
              << shape.to_string() << " node " << node << " flat step " << flat;
          std::sort(got.begin(), got.end());
          ASSERT_EQ(got, expected)
              << shape.to_string() << " node " << node << " flat step " << flat;
        }
      }
    }
  }
}

struct NodeRuntimeCase {
  std::vector<std::int32_t> extents;
};

void PrintTo(const NodeRuntimeCase& c, std::ostream* os) {
  *os << test::extents_name(c.extents);
}

class NodeRuntimeTest : public ::testing::TestWithParam<NodeRuntimeCase> {};

TEST_P(NodeRuntimeTest, LockstepRuntimeMatchesEngine) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  EngineOptions opts;
  opts.record_transfers = false;
  ExchangeEngine engine(algo, opts);
  const ExchangeTrace reference = engine.run_verified();

  // The lockstep harness a port's runtime supplies: every node sends
  // from its own program, each message lands in its partner's
  // single-writer mailbox, and delivery follows once all nodes sent.
  const auto N = static_cast<std::size_t>(algo.shape().num_nodes());
  std::vector<NodeProgram> programs;
  for (std::size_t p = 0; p < N; ++p) {
    programs.emplace_back(extract_local_schedule(algo, static_cast<Rank>(p)));
    programs.back().seed_canonical();
  }
  ASSERT_EQ(programs.front().schedule().plan.size(), reference.steps.size());
  std::vector<std::vector<Block>> mailbox(N);
  std::vector<Rank> writer(N);
  for (std::size_t flat = 0; flat < reference.steps.size(); ++flat) {
    std::fill(writer.begin(), writer.end(), -1);
    std::int64_t total = 0;
    std::int64_t max = 0;
    for (std::size_t p = 0; p < N; ++p) {
      Rank partner = -1;
      std::vector<Block> message = programs[p].collect_outgoing(flat, partner);
      if (message.empty()) continue;
      const auto q = static_cast<std::size_t>(partner);
      ASSERT_EQ(writer[q], -1) << "one-port violation at flat step " << flat;
      writer[q] = static_cast<Rank>(p);
      total += static_cast<std::int64_t>(message.size());
      max = std::max(max, static_cast<std::int64_t>(message.size()));
      mailbox[q] = std::move(message);
    }
    for (std::size_t p = 0; p < N; ++p) {
      if (writer[p] != -1) programs[p].integrate(std::move(mailbox[p]));
    }
    EXPECT_EQ(total, reference.steps[flat].total_blocks) << "flat step " << flat;
    EXPECT_EQ(max, reference.steps[flat].max_blocks_per_node) << "flat step " << flat;
  }

  std::vector<std::vector<Block>> final_state;
  for (const NodeProgram& program : programs) final_state.push_back(program.buffer());
  EXPECT_NO_THROW(verify_aape_postcondition(algo.shape(), final_state));
}

INSTANTIATE_TEST_SUITE_P(Shapes, NodeRuntimeTest,
                         ::testing::Values(NodeRuntimeCase{{4, 4}}, NodeRuntimeCase{{8, 8}},
                                           NodeRuntimeCase{{12, 8}},
                                           NodeRuntimeCase{{8, 8, 4}},
                                           NodeRuntimeCase{{8, 4, 4, 4}}),
                         ::testing::PrintToStringParamName());

TEST(NodeProgramTest, SeedRejectsForeignBlocks) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  NodeProgram program(extract_local_schedule(algo, 3));
  EXPECT_THROW(program.seed({Block{4, 0}}), std::invalid_argument);
  EXPECT_NO_THROW(program.seed({Block{3, 0}, Block{3, 7}}));
}

}  // namespace
}  // namespace torex
