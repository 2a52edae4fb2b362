// Execution trace of a complete exchange.
//
// The engine records, for every step, every non-empty message (source,
// destination, direction, hop count, block count). The contention
// checker replays traces against the physical torus; the cost simulator
// prices them with the paper's four-parameter model; the figure benches
// print per-step series from them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "topology/torus.hpp"

namespace torex {

/// One message in one step.
struct TransferRecord {
  Rank src = 0;
  Rank dst = 0;
  Direction dir;
  std::int32_t hops = 0;
  std::int64_t blocks = 0;
};

/// All traffic of one step.
struct StepRecord {
  int phase = 0;  // 1-based
  int step = 0;   // 1-based within phase
  std::int32_t hops = 0;
  /// Largest message (in blocks) any node sends this step — the
  /// quantity the paper's per-step transmission term counts. Filled by
  /// the engine even when per-transfer recording is off.
  std::int64_t max_blocks_per_node = 0;
  /// Total blocks moved across all nodes this step.
  std::int64_t total_blocks = 0;
  /// Per-message detail (present when EngineOptions::record_transfers).
  std::vector<TransferRecord> transfers;

  /// Accounts one message: the block totals always, the per-message
  /// detail when `keep_transfer`.
  void add(const TransferRecord& message, bool keep_transfer = true) {
    max_blocks_per_node = std::max(max_blocks_per_node, message.blocks);
    total_blocks += message.blocks;
    if (keep_transfer) transfers.push_back(message);
  }
};

/// Full run of an exchange algorithm.
struct ExchangeTrace {
  std::vector<StepRecord> steps;
  /// Number of inter-phase data-rearrangement passes (paper: n+1).
  std::int64_t rearrangement_passes = 0;
  /// Blocks rearranged per pass (paper: one full buffer, a1*...*an).
  std::int64_t blocks_per_rearrangement = 0;

  std::int64_t num_steps() const { return static_cast<std::int64_t>(steps.size()); }

  /// Sum over steps of the largest per-node message — the series the
  /// paper's "message-transmission cost" aggregates.
  std::int64_t total_max_blocks() const {
    std::int64_t sum = 0;
    for (const auto& s : steps) sum += s.max_blocks_per_node;
    return sum;
  }

  /// Sum over steps of per-step hop count — the paper's propagation
  /// term counts one h_step per step.
  std::int64_t total_hops() const {
    std::int64_t sum = 0;
    for (const auto& s : steps) sum += s.hops;
    return sum;
  }
};

}  // namespace torex
