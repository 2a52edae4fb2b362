#include "baselines/dimwise.hpp"

#include <algorithm>

#include "core/exchange_engine.hpp"
#include "sim/contention.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace torex {

DimwiseExchange::DimwiseExchange(TorusShape shape) : torus_(std::move(shape)) {
  for (int d = 0; d < torus_.shape().num_dims(); ++d) {
    TOREX_REQUIRE(is_power_of_two(torus_.shape().extent(d)) && torus_.shape().extent(d) >= 2,
                  "dimension-wise exchange needs power-of-two extents");
  }
}

int DimwiseExchange::num_steps() const {
  int total = 0;
  for (int d = 0; d < torus_.shape().num_dims(); ++d) {
    for (std::int32_t e = torus_.shape().extent(d); e > 1; e /= 2) ++total;
  }
  return total;
}

std::vector<RoutedStep> DimwiseExchange::run_verified() {
  const TorusShape& shape = torus_.shape();
  const Rank N = shape.num_nodes();
  auto buffers = canonical_blocks(N);
  std::vector<std::vector<Block>> inbox(static_cast<std::size_t>(N));
  std::vector<RoutedStep> steps;
  for (int dim = 0; dim < shape.num_dims(); ++dim) {
    const std::int32_t extent = shape.extent(dim);
    for (std::int32_t hop = 1; hop < extent; hop *= 2) {
      RoutedStep step;
      forward_blocks(
          buffers, inbox,
          [&](Rank q) {
            const std::int32_t own = shape.coord_along(q, dim);
            return [&shape, dim, extent, hop, own](const Block& b) {
              return (floor_mod<std::int64_t>(shape.coord_along(b.dest, dim) - own, extent) &
                      hop) != 0;
            };
          },
          [&](Rank q) { return torus_.neighbor_at(q, {dim, Sign::kPositive}, hop); },
          [&](Rank q, Rank to, std::int64_t sent) {
            step.messages.emplace_back(q, to);
            step.message_blocks.push_back(sent);
          });
      steps.push_back(std::move(step));
    }
  }
  verify_aape_postcondition(shape, buffers);
  return steps;
}

std::int64_t DimwiseExchange::worst_channel_load() {
  ContentionAnalyzer analyzer(torus_);
  std::int64_t worst = 0;
  for (const auto& step : run_verified()) {
    worst = std::max(worst, analyzer.analyze_routed_step(step.messages).max_channel_load);
  }
  return worst;
}

}  // namespace torex
