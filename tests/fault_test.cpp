// Fault-injection subsystem: fault model, schedule audit, fault-aware
// routing, wormhole behaviour under faults, and the communicator's
// degraded-mode recovery policies.
#include <gtest/gtest.h>

#include <algorithm>

#include "case_names.hpp"
#include "core/exchange_engine.hpp"
#include "runtime/communicator.hpp"
#include "runtime/recovery.hpp"
#include "sim/fault_model.hpp"
#include "sim/wormhole.hpp"

namespace torex {
namespace {

std::vector<std::vector<int>> make_send(Rank n) {
  std::vector<std::vector<int>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      send[static_cast<std::size_t>(p)].push_back(p * 10000 + q);
    }
  }
  return send;
}

void expect_aape_permutation(const std::vector<std::vector<int>>& send,
                             const std::vector<std::vector<int>>& recv) {
  ASSERT_EQ(recv.size(), send.size());
  for (std::size_t q = 0; q < send.size(); ++q) {
    ASSERT_EQ(recv[q].size(), send.size());
    for (std::size_t p = 0; p < send.size(); ++p) {
      EXPECT_EQ(recv[q][p], send[p][q]) << "recv[" << q << "][" << p << "]";
    }
  }
}

TEST(FaultModelTest, ActivationWindows) {
  FaultModel faults;
  faults.fail_channel(0, Direction{0, Sign::kPositive}, 5, 10);
  faults.fail_node(3, 2);
  const auto& specs = faults.specs();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_FALSE(specs[0].permanent());
  EXPECT_TRUE(specs[1].permanent());
  EXPECT_FALSE(specs[0].active_at(4));
  EXPECT_TRUE(specs[0].active_at(5));
  EXPECT_TRUE(specs[0].active_at(9));
  EXPECT_FALSE(specs[0].active_at(10));  // healed
  EXPECT_TRUE(specs[0].relevant_at(9));
  EXPECT_FALSE(specs[0].relevant_at(10));
  EXPECT_TRUE(faults.any_permanent());
  EXPECT_EQ(faults.all_clear_after(), kFaultForever);

  FaultModel transient;
  transient.fail_channel(1, Direction{1, Sign::kNegative}, 0, 16);
  EXPECT_FALSE(transient.any_permanent());
  EXPECT_EQ(transient.all_clear_after(), 16);
  EXPECT_EQ(FaultModel{}.all_clear_after(), 0);
}

TEST(FaultModelTest, NodeFaultKillsAdjacentChannels) {
  const Torus torus(TorusShape::make_2d(8, 8));
  FaultModel faults;
  faults.fail_node(9);
  // Every channel leaving or entering node 9 is dead; unrelated ones
  // are not.
  for (int d = 0; d < 2; ++d) {
    for (Sign s : {Sign::kPositive, Sign::kNegative}) {
      const Direction dir{d, s};
      EXPECT_TRUE(faults.channel_failed(torus, torus.channel_id(9, dir), 0));
      const Rank in_neighbor = torus.neighbor(9, dir);
      EXPECT_TRUE(
          faults.channel_failed(torus, torus.channel_id(in_neighbor, Direction{d, flip(s)}), 0));
    }
  }
  EXPECT_FALSE(faults.channel_failed(torus, torus.channel_id(0, Direction{0, Sign::kPositive}), 0));
  EXPECT_TRUE(faults.node_failed(9, 0));
  EXPECT_FALSE(faults.node_failed(8, 0));
}

TEST(FaultModelTest, SeededInjectionIsDeterministicAndDistinct) {
  const Torus torus(TorusShape::make_2d(12, 8));
  FaultModel a, b;
  a.inject_random_channel_faults(torus, 42, 6).inject_random_node_faults(torus, 43, 3);
  b.inject_random_channel_faults(torus, 42, 6).inject_random_node_faults(torus, 43, 3);
  ASSERT_EQ(a.specs().size(), 9u);
  for (std::size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(a.specs()[i].kind, b.specs()[i].kind);
    EXPECT_EQ(a.specs()[i].node, b.specs()[i].node);
    EXPECT_EQ(a.specs()[i].channel.from, b.specs()[i].channel.from);
    EXPECT_TRUE(a.specs()[i].channel.direction == b.specs()[i].channel.direction);
  }
  // Distinctness of the injected channels.
  std::vector<ChannelId> ids;
  for (std::size_t i = 0; i < 6; ++i) {
    ids.push_back(torus.channel_id(a.specs()[i].channel.from, a.specs()[i].channel.direction));
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(FaultAuditTest, CleanScheduleOnEmptyModel) {
  const SuhShinAape algo(TorusShape::make_2d(12, 8));
  const FaultImpactReport report = audit_schedule_faults(algo, FaultModel{});
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.audited_steps, algo.total_steps());
  EXPECT_EQ(report.impacted_steps, 0);
}

TEST(FaultAuditTest, PermanentChannelFaultIsLocatedPreciselyOnTwelveByEight) {
  const SuhShinAape algo(TorusShape::make_2d(12, 8));
  FaultModel faults;
  faults.inject_random_channel_faults(algo.torus(), 7, 1);
  const FaultImpactReport report = audit_schedule_faults(algo, faults);
  EXPECT_FALSE(report.clean());
  ASSERT_TRUE(report.first_impact.has_value());
  const FaultImpact& first = report.first_impact.value();
  EXPECT_GE(first.phase, 1);
  EXPECT_LE(first.phase, algo.num_phases());
  EXPECT_GE(first.step, 1);
  EXPECT_FALSE(first.description.empty());
  // The broken message really does cross the failed channel.
  const FaultSpec& spec = faults.specs().front();
  std::vector<ChannelId> path;
  algo.torus().straight_path(first.src, algo.direction(first.src, first.phase, first.step),
                             algo.hops_per_step(first.phase), path);
  const ChannelId failed =
      algo.torus().channel_id(spec.channel.from, spec.channel.direction);
  EXPECT_NE(std::find(path.begin(), path.end(), failed), path.end());
}

TEST(FaultAuditTest, FailAtStepKOnlyBreaksLaterSteps) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const std::int64_t total = algo.total_steps();
  FaultModel late;
  // Activates after the whole run: clean.
  late.fail_channel(0, Direction{0, Sign::kPositive}, total, kFaultForever);
  EXPECT_TRUE(audit_schedule_faults(algo, late).clean());
  // The same fault during the run's tail breaks only steps >= k.
  FaultModel mid;
  const std::int64_t k = total / 2;
  mid.fail_channel(0, Direction{0, Sign::kPositive}, k, kFaultForever);
  const FaultImpactReport report = audit_schedule_faults(algo, mid);
  for (const auto& impact : report.impacts) {
    EXPECT_GE(impact.tick, k);
  }
  // Starting the run after the fault heals is clean again.
  FaultModel transient;
  transient.fail_channel(0, Direction{0, Sign::kPositive}, 0, 10);
  EXPECT_FALSE(audit_schedule_faults(algo, transient, 0).clean());
  EXPECT_TRUE(audit_schedule_faults(algo, transient, 10).clean());
}

TEST(FaultAuditTest, TraceAuditAgreesWithScheduleAuditOnRealizedTraffic) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  FaultModel faults;
  faults.inject_random_channel_faults(algo.torus(), 11, 2);
  const FaultImpactReport from_schedule = audit_schedule_faults(algo, faults);
  const FaultImpactReport from_trace = audit_trace_faults(algo.torus(), trace, faults);
  // Full-activity audit is a conservative superset of realized traffic.
  EXPECT_GE(from_schedule.impacted_messages, from_trace.impacted_messages);
  EXPECT_FALSE(from_trace.clean());
}

TEST(FaultRoutingTest, DetourAvoidsFailedChannelAndStaysShort) {
  const Torus torus(TorusShape::make_2d(8, 8));
  FaultModel faults;
  faults.fail_channel(0, Direction{1, Sign::kPositive});  // 0 -> 1 dead
  const auto path = route_around_faults(torus, faults, 0, 1, 0);
  ASSERT_TRUE(path.has_value());
  EXPECT_GE(static_cast<std::int64_t>(path->size()), 2);  // must detour
  // The detour is connected, avoids the failed channel, and ends at 1.
  Rank at = 0;
  for (ChannelId id : *path) {
    EXPECT_FALSE(faults.channel_failed(torus, id, 0));
    const Channel ch = torus.channel_of(id);
    EXPECT_EQ(ch.from, at);
    at = torus.neighbor(ch.from, ch.direction);
  }
  EXPECT_EQ(at, 1);
}

TEST(FaultRoutingTest, FullyIsolatedDestinationIsUnroutable) {
  const Torus torus(TorusShape::make_2d(8, 8));
  const Rank victim = 27;
  FaultModel faults;
  for (int d = 0; d < 2; ++d) {
    for (Sign s : {Sign::kPositive, Sign::kNegative}) {
      const Direction dir{d, s};
      faults.fail_channel(victim, dir);                          // outgoing
      faults.fail_channel(torus.neighbor(victim, dir), Direction{d, flip(s)});  // incoming
    }
  }
  EXPECT_FALSE(route_around_faults(torus, faults, 0, victim, 0).has_value());
  EXPECT_TRUE(route_around_faults(torus, faults, 0, 1, 0).has_value());
}

TEST(FaultedWormholeTest, TransientChannelFaultStallsTheWormUntilItHeals) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  WormSpec spec;
  spec.src = 0;
  spec.dst = 16;  // two hops along dimension 0
  spec.flits = 3;
  spec.route = StraightRoute{Direction{0, Sign::kPositive}, 2};
  const WormholeOutcome healthy = sim.simulate({spec});
  ASSERT_TRUE(healthy.stall_free());

  FaultModel faults;
  faults.fail_channel(8, Direction{0, Sign::kPositive}, 0, 10);  // second hop, heals at 10
  const WormholeOutcome faulted = sim.simulate_faulted({spec}, faults);
  EXPECT_FALSE(faulted.stall_free());
  EXPECT_GT(faulted.messages[0].stall_cycles, 0);
  EXPECT_GT(faulted.makespan, healthy.makespan);
  // Delivery completes shortly after the heal tick, not before.
  EXPECT_GE(faulted.messages[0].header_arrival, 10);

  // Starting after the heal is indistinguishable from healthy.
  const WormholeOutcome after = sim.simulate_faulted({spec}, faults, /*base_tick=*/10);
  EXPECT_TRUE(after.stall_free());
  EXPECT_EQ(after.makespan, healthy.makespan);
}

TEST(FaultedWormholeTest, PermanentFaultOnRouteIsRejectedUpFront) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  WormSpec spec;
  spec.src = 0;
  spec.dst = 16;
  spec.flits = 2;
  spec.route = StraightRoute{Direction{0, Sign::kPositive}, 2};
  FaultModel faults;
  faults.fail_channel(8, Direction{0, Sign::kPositive});  // permanent
  EXPECT_THROW(sim.simulate_faulted({spec}, faults), std::invalid_argument);
  FaultModel dead_node;
  dead_node.fail_node(16);
  EXPECT_THROW(sim.simulate_faulted({spec}, dead_node), std::invalid_argument);
}

TEST(FaultedWormholeTest, FaultedTraceStepsPriceAboveHealthyBaseline) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  FaultModel faults;
  faults.fail_channel(0, Direction{0, Sign::kPositive}, 0, 25);  // transient
  const auto healthy = simulate_trace_steps(algo.torus(), trace, 2);
  const auto faulted = simulate_trace_steps_faulted(algo.torus(), trace, 2, faults);
  ASSERT_EQ(healthy.size(), faulted.size());
  std::int64_t healthy_total = 0, faulted_total = 0;
  for (std::size_t s = 0; s < healthy.size(); ++s) {
    healthy_total += healthy[s].makespan;
    faulted_total += faulted[s].makespan;
    EXPECT_GE(faulted[s].makespan, healthy[s].makespan);
  }
  EXPECT_GT(faulted_total, healthy_total);
}

// --- Recovery policies (the PR's acceptance scenario) ------------------

}  // namespace

// Found by argument-dependent lookup, so it lives in RecoveryPolicy's
// own namespace.
void PrintTo(RecoveryPolicy policy, std::ostream* os) {
  *os << test::name_token(to_string(policy));
}

namespace {

class PermanentChannelFaultPolicyTest : public ::testing::TestWithParam<RecoveryPolicy> {};

TEST_P(PermanentChannelFaultPolicyTest, TwelveByEightStillPermutesCorrectly) {
  const TorusShape shape = TorusShape::make_2d(12, 8);
  const TorusCommunicator comm(shape, CostParams{});
  FaultModel faults;
  faults.inject_random_channel_faults(Torus(shape), 2026, 1);  // seeded, permanent
  ASSERT_TRUE(faults.any_permanent());

  const auto send = make_send(comm.size());
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  options.policy = GetParam();
  options.backoff.max_attempts = 4;
  const auto recv = comm.alltoall_resilient(send, faults, outcome, options);
  expect_aape_permutation(send, recv);

  EXPECT_EQ(outcome.requested_policy, GetParam());
  EXPECT_NE(outcome.policy, RecoveryPolicy::kNone) << outcome.note;
  EXPECT_TRUE(outcome.degraded);
  EXPECT_FALSE(outcome.note.empty());
  EXPECT_GT(outcome.modeled_time, 0.0);
  switch (GetParam()) {
    case RecoveryPolicy::kRetryBackoff:
      // Permanent fault: the retry budget burns down, then degrades.
      EXPECT_EQ(outcome.retries, 4);
      EXPECT_GT(outcome.waited_ticks, 0);
      EXPECT_NE(outcome.policy, RecoveryPolicy::kRetryBackoff);
      break;
    case RecoveryPolicy::kRemap:
      EXPECT_EQ(outcome.policy, RecoveryPolicy::kRemap);
      EXPECT_EQ(outcome.algorithm, AlltoallAlgorithm::kSuhShin);
      EXPECT_GT(outcome.rerouted_messages, 0);
      EXPECT_EQ(outcome.retries, 0);
      break;
    case RecoveryPolicy::kFallbackDirect:
      EXPECT_EQ(outcome.policy, RecoveryPolicy::kFallbackDirect);
      EXPECT_EQ(outcome.algorithm, AlltoallAlgorithm::kDirect);
      break;
    default:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PermanentChannelFaultPolicyTest,
                         ::testing::Values(RecoveryPolicy::kRetryBackoff,
                                           RecoveryPolicy::kRemap,
                                           RecoveryPolicy::kFallbackDirect),
                         ::testing::PrintToStringParamName());

TEST(RecoveryTest, TransientFaultRetryConvergesWithinBudget) {
  const TorusShape shape = TorusShape::make_2d(12, 8);
  const TorusCommunicator comm(shape, CostParams{});
  FaultModel faults;
  faults.fail_channel(0, Direction{0, Sign::kPositive}, 0, 16);  // heals at tick 16
  ASSERT_FALSE(faults.any_permanent());

  const auto send = make_send(comm.size());
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  options.policy = RecoveryPolicy::kRetryBackoff;
  options.backoff.max_attempts = 8;
  options.backoff.base_ticks = 1;
  const auto recv = comm.alltoall_resilient(send, faults, outcome, options);
  expect_aape_permutation(send, recv);

  EXPECT_EQ(outcome.policy, RecoveryPolicy::kRetryBackoff);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.algorithm, AlltoallAlgorithm::kSuhShin);
  // Backoff doubles: waits 1,2,4,8,16 -> tick 31 >= 16 at the fifth retry.
  EXPECT_EQ(outcome.retries, 5);
  EXPECT_EQ(outcome.waited_ticks, 31);
  EXPECT_GE(outcome.run_tick, 16);
  EXPECT_LE(outcome.retries, options.backoff.max_attempts);
}

TEST(RecoveryTest, AutoPolicyPicksRetryForTransientAndRemapForPermanent) {
  const TorusShape shape = TorusShape::make_2d(12, 8);
  const TorusCommunicator comm(shape, CostParams{});
  const auto send = make_send(comm.size());

  FaultModel transient;
  transient.fail_channel(0, Direction{0, Sign::kPositive}, 0, 4);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  auto recv = comm.alltoall_resilient(send, transient, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.policy, RecoveryPolicy::kRetryBackoff);

  FaultModel permanent;
  permanent.fail_channel(0, Direction{0, Sign::kPositive});
  recv = comm.alltoall_resilient(send, permanent, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.policy, RecoveryPolicy::kRemap);
  EXPECT_EQ(outcome.retries, 0);  // waiting on a permanent fault is pointless
}

TEST(RecoveryTest, FailedNodeIsHostedOnALiveNeighbor) {
  const TorusShape shape = TorusShape::make_2d(12, 8);
  const TorusCommunicator comm(shape, CostParams{});
  FaultModel faults;
  faults.fail_node(17);
  const auto send = make_send(comm.size());
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.alltoall_resilient(send, faults, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.policy, RecoveryPolicy::kRemap);
  EXPECT_EQ(outcome.remapped_nodes, 1);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_FALSE(outcome.summary().empty());
}

TEST(RecoveryTest, PolicyNoneThrowsDescriptiveFaultedExchangeError) {
  const TorusShape shape = TorusShape::make_2d(12, 8);
  const TorusCommunicator comm(shape, CostParams{});
  FaultModel faults;
  faults.fail_channel(0, Direction{0, Sign::kPositive});
  const auto send = make_send(comm.size());
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  options.policy = RecoveryPolicy::kNone;
  try {
    comm.alltoall_resilient(send, faults, outcome, options);
    FAIL() << "expected FaultedExchangeError";
  } catch (const FaultedExchangeError& e) {
    EXPECT_FALSE(e.report().clean());
    EXPECT_NE(std::string(e.what()).find("phase"), std::string::npos);
  }
}

TEST(RecoveryTest, HealthyNetworkReportsNoRecovery) {
  const TorusShape shape = TorusShape::make_2d(8, 8);
  const TorusCommunicator comm(shape, CostParams{});
  const auto send = make_send(comm.size());
  ExchangeOutcome outcome;
  const auto recv = comm.alltoall_resilient(send, FaultModel{}, outcome);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.policy, RecoveryPolicy::kNone);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.retries, 0);
  EXPECT_FALSE(outcome.degraded);
}

TEST(RecoveryTest, DisconnectedLiveNodeMakesFallbackThrow) {
  const Torus torus(TorusShape::make_2d(8, 8));
  const Rank victim = 27;
  FaultModel faults;
  for (int d = 0; d < 2; ++d) {
    for (Sign s : {Sign::kPositive, Sign::kNegative}) {
      const Direction dir{d, s};
      faults.fail_channel(victim, dir);
      faults.fail_channel(torus.neighbor(victim, dir), Direction{d, flip(s)});
    }
  }
  EXPECT_THROW(plan_direct_fallback(torus, faults, 0), FaultedExchangeError);
}

TEST(RecoveryTest, BackoffWaitsAreBoundedAndExponential) {
  BackoffConfig config;
  config.base_ticks = 2;
  config.max_ticks = 20;
  EXPECT_EQ(backoff_wait(config, 1), 2);
  EXPECT_EQ(backoff_wait(config, 2), 4);
  EXPECT_EQ(backoff_wait(config, 3), 8);
  EXPECT_EQ(backoff_wait(config, 4), 16);
  EXPECT_EQ(backoff_wait(config, 5), 20);   // capped
  EXPECT_EQ(backoff_wait(config, 63), 20);  // no overflow at large attempts
}

}  // namespace
}  // namespace torex
