#include "baselines/bruck.hpp"

#include <algorithm>

#include "core/exchange_engine.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace torex {

BruckExchange::BruckExchange(TorusShape shape) : torus_(std::move(shape)) {
  TOREX_REQUIRE(torus_.shape().num_nodes() >= 2, "need at least two nodes");
}

int BruckExchange::num_steps() const {
  const Rank N = torus_.shape().num_nodes();
  int k = 0;
  while ((std::int64_t{1} << k) < N) ++k;
  return k;
}

std::vector<RoutedStep> BruckExchange::run_verified() {
  const Rank N = torus_.shape().num_nodes();
  auto buffers = canonical_blocks(N);
  std::vector<std::vector<Block>> inbox(static_cast<std::size_t>(N));
  std::vector<RoutedStep> steps;
  for (int k = 0; k < num_steps(); ++k) {
    const Rank hop = static_cast<Rank>(std::int64_t{1} << k);
    RoutedStep step;
    forward_blocks(
        buffers, inbox,
        [&](Rank q) {
          return [q, hop, N](const Block& b) {
            return (floor_mod<std::int64_t>(b.dest - q, N) & hop) != 0;
          };
        },
        [&](Rank q) { return static_cast<Rank>((q + hop) % N); },
        [&](Rank q, Rank to, std::int64_t sent) {
          step.messages.emplace_back(q, to);
          step.message_blocks.push_back(sent);
        });
    steps.push_back(std::move(step));
  }
  verify_aape_postcondition(torus_.shape(), buffers);
  return steps;
}

std::int64_t BruckExchange::critical_path_blocks() {
  std::int64_t total = 0;
  for (const auto& step : run_verified()) {
    std::int64_t worst = 0;
    for (std::size_t i = 0; i < step.messages.size(); ++i) {
      worst = std::max(worst, step.blocks_of(i));
    }
    total += worst;
  }
  return total;
}

}  // namespace torex
