#include "core/virtual_torus.hpp"

#include <algorithm>

#include "core/exchange_engine.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace torex {

TorusShape VirtualTorusAape::padded_shape(const TorusShape& physical) {
  std::vector<std::int32_t> extents(static_cast<std::size_t>(physical.num_dims()));
  for (int d = 0; d < physical.num_dims(); ++d) {
    extents[static_cast<std::size_t>(d)] = static_cast<std::int32_t>(
        round_up_to_multiple(std::max<std::int64_t>(physical.extent(d), 4), 4));
  }
  return TorusShape(std::move(extents));
}

VirtualTorusAape::VirtualTorusAape(TorusShape physical)
    : physical_(std::move(physical)), algo_(padded_shape(physical_)) {
  TOREX_REQUIRE(physical_.num_dims() >= 2, "need at least two dimensions");
  TOREX_REQUIRE(physical_.extents_non_increasing(),
                "physical extents must be sorted non-increasing");
}

bool VirtualTorusAape::is_primary(Rank virtual_rank) const {
  const Coord v = algo_.shape().coord_of(virtual_rank);
  for (int d = 0; d < physical_.num_dims(); ++d) {
    if (v[static_cast<std::size_t>(d)] >= physical_.extent(d)) return false;
  }
  return true;
}

Rank VirtualTorusAape::host_of(Rank virtual_rank) const {
  Coord v = algo_.shape().coord_of(virtual_rank);
  for (int d = 0; d < physical_.num_dims(); ++d) {
    v[static_cast<std::size_t>(d)] =
        static_cast<std::int32_t>(v[static_cast<std::size_t>(d)] % physical_.extent(d));
  }
  return physical_.rank_of(v);
}

VirtualExchangeResult VirtualTorusAape::run_verified() const {
  const Rank V = algo_.shape().num_nodes();
  const Rank P = physical_.num_nodes();

  // Hosting multiplicity.
  std::vector<std::int64_t> roles(static_cast<std::size_t>(P), 0);
  for (Rank v = 0; v < V; ++v) ++roles[static_cast<std::size_t>(host_of(v))];

  VirtualExchangeResult result;
  result.max_roles_per_host = *std::max_element(roles.begin(), roles.end());

  // Seed: primary virtual nodes hold blocks for every primary
  // destination, addressed by virtual rank. run_custom checks that each
  // primary receives exactly those and that non-primary roles end empty.
  std::vector<Rank> primaries;
  for (Rank v = 0; v < V; ++v) {
    if (is_primary(v)) primaries.push_back(v);
  }
  TOREX_CHECK(static_cast<Rank>(primaries.size()) == P, "primary count mismatch");
  std::vector<std::vector<Block>> seed(static_cast<std::size_t>(V));
  for (Rank v : primaries) {
    auto& buf = seed[static_cast<std::size_t>(v)];
    buf.reserve(primaries.size());
    for (Rank d : primaries) buf.push_back(Block{v, d});
  }
  ExchangeEngine engine(algo_);
  result.trace = engine.run_custom(std::move(seed));
  result.trace.blocks_per_rearrangement = P;

  // Host serialization: per step, the most messages one physical node
  // sends on behalf of its hosted roles.
  std::vector<std::int64_t> host_sends(static_cast<std::size_t>(P));
  for (const StepRecord& step : result.trace.steps) {
    std::fill(host_sends.begin(), host_sends.end(), 0);
    std::int64_t serialization = 0;
    for (const TransferRecord& t : step.transfers) {
      serialization =
          std::max(serialization, ++host_sends[static_cast<std::size_t>(host_of(t.src))]);
    }
    result.per_step_host_sends.push_back(std::max<std::int64_t>(serialization, 1));
    result.max_host_serialization = std::max(result.max_host_serialization, serialization);
  }
  return result;
}

}  // namespace torex
