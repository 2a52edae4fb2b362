#include "runtime/node_program.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace torex {

LocalSchedule extract_local_schedule(const SuhShinAape& algo, Rank node) {
  LocalSchedule out;
  out.shape = algo.shape();
  out.self = node;
  out.self_coord = algo.shape().coord_of(node);
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    LocalSchedule::PhaseInfo info;
    info.kind = algo.phase_kind(phase);
    info.steps = algo.steps_in_phase(phase);
    info.hops = algo.hops_per_step(phase);
    out.phases.push_back(info);
    for (int step = 1; step <= info.steps; ++step) {
      LocalSchedule::StepPlan plan;
      plan.partner = algo.partner(node, phase, step);
      plan.dim = algo.direction(node, phase, step).dim;
      out.plan.push_back(plan);
    }
  }
  return out;
}

NodeProgram::NodeProgram(LocalSchedule schedule) : schedule_(std::move(schedule)) {}

void NodeProgram::seed_canonical() {
  const Rank N = schedule_.shape.num_nodes();
  buffer_.clear();
  buffer_.reserve(static_cast<std::size_t>(N));
  for (Rank d = 0; d < N; ++d) buffer_.push_back(Block{schedule_.self, d});
}

void NodeProgram::seed(std::vector<Block> blocks) {
  for (const Block& b : blocks) {
    TOREX_REQUIRE(b.origin == schedule_.self, "block must originate at this node");
  }
  buffer_ = std::move(blocks);
}

bool NodeProgram::should_send(std::size_t flat_step, const Block& b) const {
  // Locate the phase of this flat step (the per-node phase table is a
  // handful of entries; linear scan is fine and keeps the node logic
  // obviously local).
  std::size_t remaining = flat_step;
  const LocalSchedule::PhaseInfo* phase = nullptr;
  for (const auto& info : schedule_.phases) {
    if (remaining < static_cast<std::size_t>(info.steps)) {
      phase = &info;
      break;
    }
    remaining -= static_cast<std::size_t>(info.steps);
  }
  TOREX_CHECK(phase != nullptr, "flat step out of range");

  const int dim = schedule_.plan[flat_step].dim;
  const std::size_t d = static_cast<std::size_t>(dim);
  // Everything below is local arithmetic on the destination's
  // coordinates — no global state.
  const Coord dest = schedule_.shape.coord_of(b.dest);
  switch (phase->kind) {
    case PhaseKind::kScatter:
      return dest[d] / 4 != schedule_.self_coord[d] / 4;
    case PhaseKind::kQuarterExchange:
      return (dest[d] % 4) / 2 != (schedule_.self_coord[d] % 4) / 2;
    case PhaseKind::kPairExchange:
      return dest[d] % 2 != schedule_.self_coord[d] % 2;
  }
  TOREX_UNREACHABLE();
}

std::vector<Block> NodeProgram::collect_outgoing(std::size_t flat_step, Rank& partner_out) {
  TOREX_REQUIRE(flat_step < schedule_.plan.size(), "step out of range");
  partner_out = schedule_.plan[flat_step].partner;
  auto split = std::stable_partition(buffer_.begin(), buffer_.end(), [&](const Block& b) {
    return !should_send(flat_step, b);
  });
  std::vector<Block> outgoing(split, buffer_.end());
  buffer_.erase(split, buffer_.end());
  return outgoing;
}

void NodeProgram::integrate(std::vector<Block> message) {
  buffer_.insert(buffer_.end(), message.begin(), message.end());
}

}  // namespace torex
