#include "core/aape.hpp"

#include <algorithm>
#include <numeric>

#include "topology/group.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace torex {

SuhShinAape::SuhShinAape(TorusShape shape)
    : SuhShinAape(shape, default_convention(shape)) {}

SuhShinAape::SuhShinAape(TorusShape shape, PatternConvention convention)
    : torus_(std::move(shape)), convention_(convention) {
  const TorusShape& s = torus_.shape();
  TOREX_REQUIRE(s.num_dims() >= 2, "the algorithm needs at least two dimensions");
  TOREX_REQUIRE(s.all_extents_multiple_of_four(),
                "extents must be multiples of four (use VirtualTorus for other sizes)");
  TOREX_REQUIRE(s.extents_non_increasing(),
                "extents must be sorted non-increasing (a1 >= a2 >= ... >= an); "
                "relabel dimensions before constructing the schedule");
  precompute();
}

void SuhShinAape::precompute() {
  const TorusShape& s = torus_.shape();
  const int n = s.num_dims();
  const Rank N = s.num_nodes();
  const std::size_t per_dim = static_cast<std::size_t>(N) * static_cast<std::size_t>(n);

  sub_.resize(per_dim);
  half_.resize(per_dim);
  parity_.resize(per_dim);
  mod4_.resize(per_dim);
  scatter_dirs_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(N));
  quarter_dims_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(N));

  for (Rank r = 0; r < N; ++r) {
    const Coord c = s.coord_of(r);
    for (int d = 0; d < n; ++d) {
      const std::size_t i = static_cast<std::size_t>(per_dim_index(r, d));
      const std::int32_t v = c[static_cast<std::size_t>(d)];
      sub_[i] = static_cast<std::int16_t>(v / 4);
      half_[i] = static_cast<std::int16_t>((v % 4) / 2);
      parity_[i] = static_cast<std::int16_t>(v % 2);
      mod4_[i] = static_cast<std::int8_t>(v % 4);
    }
    for (int phase = 1; phase <= n; ++phase) {
      scatter_dirs_[static_cast<std::size_t>(scatter_dir_index(r, phase))] =
          scatter_direction(s, c, phase, convention_);
    }
    for (int step = 1; step <= n; ++step) {
      quarter_dims_[static_cast<std::size_t>((step - 1)) * static_cast<std::size_t>(N) +
                    static_cast<std::size_t>(r)] =
          static_cast<std::int8_t>(quarter_exchange_dim(s, c, step, convention_));
    }
  }

  pair_dims_.resize(static_cast<std::size_t>(n));
  for (int step = 1; step <= n; ++step) {
    pair_dims_[static_cast<std::size_t>(step - 1)] = pair_exchange_dim(s, step, convention_);
  }

  // Steps per scatter phase: the longest directed group-subtorus ring
  // any group travels in that phase. The direction assignment is a
  // function of coordinates mod 4, so enumerating the 4^n group labels
  // covers every node.
  scatter_steps_.assign(static_cast<std::size_t>(n), 0);
  Coord g(static_cast<std::size_t>(n), 0);
  const std::int64_t groups = num_groups(s);
  for (std::int64_t gi = 0; gi < groups; ++gi) {
    std::int64_t rest = gi;
    for (int d = 0; d < n; ++d) {
      g[static_cast<std::size_t>(d)] = static_cast<std::int32_t>(rest % 4);
      rest /= 4;
    }
    for (int phase = 1; phase <= n; ++phase) {
      const Direction dir = scatter_direction(s, g, phase, convention_);
      const int ring = s.extent(dir.dim) / 4;
      scatter_steps_[static_cast<std::size_t>(phase - 1)] =
          std::max(scatter_steps_[static_cast<std::size_t>(phase - 1)], ring - 1);
    }
  }
}

PhaseKind SuhShinAape::phase_kind(int phase) const {
  const int n = num_dims();
  TOREX_REQUIRE(phase >= 1 && phase <= n + 2, "phase out of range");
  if (phase <= n) return PhaseKind::kScatter;
  return phase == n + 1 ? PhaseKind::kQuarterExchange : PhaseKind::kPairExchange;
}

int SuhShinAape::steps_in_phase(int phase) const {
  if (phase_kind(phase) == PhaseKind::kScatter) {
    return scatter_steps_[static_cast<std::size_t>(phase - 1)];
  }
  return num_dims();
}

int SuhShinAape::total_steps() const {
  int total = 0;
  for (int phase = 1; phase <= num_phases(); ++phase) total += steps_in_phase(phase);
  return total;
}

int SuhShinAape::hops_per_step(int phase) const {
  switch (phase_kind(phase)) {
    case PhaseKind::kScatter: return 4;
    case PhaseKind::kQuarterExchange: return 2;
    case PhaseKind::kPairExchange: return 1;
  }
  TOREX_UNREACHABLE();
}

Direction SuhShinAape::direction(Rank node, int phase, int step) const {
  TOREX_REQUIRE(node >= 0 && node < shape().num_nodes(), "rank out of range");
  TOREX_REQUIRE(step >= 1 && step <= steps_in_phase(phase), "step out of range");
  switch (phase_kind(phase)) {
    case PhaseKind::kScatter:
      return scatter_dirs_[static_cast<std::size_t>(scatter_dir_index(node, phase))];
    case PhaseKind::kQuarterExchange: {
      const int dim = quarter_dims_[static_cast<std::size_t>((step - 1)) *
                                        static_cast<std::size_t>(shape().num_nodes()) +
                                    static_cast<std::size_t>(node)];
      const Sign sign =
          mod4_[static_cast<std::size_t>(per_dim_index(node, dim))] < 2 ? Sign::kPositive
                                                                        : Sign::kNegative;
      return Direction{dim, sign};
    }
    case PhaseKind::kPairExchange: {
      const int dim = pair_dims_[static_cast<std::size_t>(step - 1)];
      const Sign sign = parity_[static_cast<std::size_t>(per_dim_index(node, dim))] == 0
                            ? Sign::kPositive
                            : Sign::kNegative;
      return Direction{dim, sign};
    }
  }
  TOREX_UNREACHABLE();
}

Rank SuhShinAape::partner(Rank node, int phase, int step) const {
  const Direction dir = direction(node, phase, step);
  return torus_.neighbor_at(node, dir, hops_per_step(phase));
}

SuhShinAape::SendTest SuhShinAape::send_test(Rank node, int phase, int step) const {
  const auto column = [&](const std::vector<std::int16_t>& classes, int dim) {
    return SendTest(classes.data() + dim, num_dims(),
                    classes[static_cast<std::size_t>(per_dim_index(node, dim))]);
  };
  switch (phase_kind(phase)) {
    case PhaseKind::kScatter:
      return column(sub_,
                    scatter_dirs_[static_cast<std::size_t>(scatter_dir_index(node, phase))].dim);
    case PhaseKind::kQuarterExchange:
      return column(half_, quarter_dims_[static_cast<std::size_t>((step - 1)) *
                                             static_cast<std::size_t>(shape().num_nodes()) +
                                         static_cast<std::size_t>(node)]);
    case PhaseKind::kPairExchange:
      return column(parity_, pair_dims_[static_cast<std::size_t>(step - 1)]);
  }
  TOREX_UNREACHABLE();
}

}  // namespace torex
