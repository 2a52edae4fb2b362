#include "baselines/ring_exchange.hpp"

#include "core/exchange_engine.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace torex {

Coord gray_coord(const TorusShape& shape, std::int64_t position) {
  TOREX_REQUIRE(position >= 0 && position < shape.num_nodes(), "position out of range");
  const int n = shape.num_dims();
  // Standard mixed-radix digits, most significant first (matches the
  // shape's rank layout).
  Coord digits = shape.coord_of(static_cast<Rank>(position));
  Coord gray(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const std::int32_t d = digits[static_cast<std::size_t>(j)];
    // With every base even, the parity of the more-significant prefix
    // value reduces to the parity of the previous digit, which decides
    // whether this digit's sweep is reflected.
    const bool reflected = j > 0 && digits[static_cast<std::size_t>(j - 1)] % 2 != 0;
    gray[static_cast<std::size_t>(j)] =
        reflected ? static_cast<std::int32_t>(shape.extent(j) - 1 - d) : d;
  }
  return gray;
}

std::int64_t gray_position(const TorusShape& shape, const Coord& coord) {
  const int n = shape.num_dims();
  TOREX_REQUIRE(coord.size() == static_cast<std::size_t>(n), "dimensionality mismatch");
  Coord digits(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const bool reflected = j > 0 && digits[static_cast<std::size_t>(j - 1)] % 2 != 0;
    const std::int32_t g = coord[static_cast<std::size_t>(j)];
    digits[static_cast<std::size_t>(j)] =
        reflected ? static_cast<std::int32_t>(shape.extent(j) - 1 - g) : g;
  }
  return shape.rank_of(digits);
}

RingExchange::RingExchange(TorusShape shape) : torus_(std::move(shape)) {
  const TorusShape& s = torus_.shape();
  for (int d = 0; d < s.num_dims(); ++d) {
    TOREX_REQUIRE(s.extent(d) % 2 == 0 && s.extent(d) >= 2,
                  "Gray-code ring embedding needs every extent even");
  }
  const Rank N = s.num_nodes();
  order_.resize(static_cast<std::size_t>(N));
  position_.resize(static_cast<std::size_t>(N));
  for (std::int64_t k = 0; k < N; ++k) {
    const Rank r = s.rank_of(gray_coord(s, k));
    order_[static_cast<std::size_t>(k)] = r;
    position_[static_cast<std::size_t>(r)] = static_cast<Rank>(k);
  }
  // The embedding must be a Hamiltonian cycle: consecutive ring nodes
  // (including the wrap) are physical neighbors.
  for (std::int64_t k = 0; k < N; ++k) {
    const Rank a = order_[static_cast<std::size_t>(k)];
    const Rank b = order_[static_cast<std::size_t>((k + 1) % N)];
    TOREX_CHECK(torus_.distance(a, b) == 1, "Gray embedding is not a Hamiltonian cycle");
  }
}

namespace {

/// Direction of the single-hop move from coordinate a to coordinate b.
Direction hop_direction(const TorusShape& shape, const Coord& a, const Coord& b) {
  for (int d = 0; d < shape.num_dims(); ++d) {
    const std::int64_t delta =
        ring_delta(a[static_cast<std::size_t>(d)], b[static_cast<std::size_t>(d)],
                   shape.extent(d));
    if (delta == 1) return Direction{d, Sign::kPositive};
    if (delta == -1) return Direction{d, Sign::kNegative};
  }
  TOREX_CHECK(false, "nodes are not physical neighbors");
  TOREX_UNREACHABLE();
}

}  // namespace

ExchangeTrace RingExchange::run_verified() {
  const TorusShape& s = torus_.shape();
  const Rank N = s.num_nodes();

  // Buffers and blocks are keyed by *ring position*: a block moves on
  // while its destination position is not the holder's.
  auto held = canonical_blocks(N);
  std::vector<std::vector<Block>> inbox(static_cast<std::size_t>(N));
  ExchangeTrace trace;  // no rearrangement passes
  for (Rank step = 1; step < N; ++step) {
    StepRecord rec;
    rec.phase = 1;
    rec.step = step;
    rec.hops = 1;
    forward_blocks(
        held, inbox, [](Rank pos) { return [pos](const Block& b) { return b.dest != pos; }; },
        [N](Rank pos) { return static_cast<Rank>((pos + 1) % N); },
        [&](Rank pos, Rank next, std::int64_t sent) {
          const Rank src = order_[static_cast<std::size_t>(pos)];
          const Rank dst = order_[static_cast<std::size_t>(next)];
          rec.add(TransferRecord{src, dst, hop_direction(s, s.coord_of(src), s.coord_of(dst)),
                                 1, sent});
        });
    trace.steps.push_back(std::move(rec));
  }
  verify_aape_postcondition(s, held);
  return trace;
}

ExchangeTrace RingExchange::analytic_trace() const {
  const Rank N = torus_.shape().num_nodes();
  ExchangeTrace trace;  // no rearrangement passes
  trace.steps.reserve(static_cast<std::size_t>(N) - 1);
  for (Rank step = 1; step < N; ++step) {
    StepRecord rec;
    rec.phase = 1;
    rec.step = step;
    rec.hops = 1;
    rec.max_blocks_per_node = N - step;
    rec.total_blocks = static_cast<std::int64_t>(N) * (N - step);
    trace.steps.push_back(std::move(rec));
  }
  return trace;
}

}  // namespace torex
