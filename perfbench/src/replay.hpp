// Helpers shared by the traced replays.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/payload_exchange.hpp"
#include "core/wire_buffer.hpp"

namespace perfbench {

/// Dense rows as stride-1 views (what TorusCommunicator::alltoall does
/// with its send rows).
template <typename T>
std::vector<torex::StridedView<const T>> row_views(const std::vector<std::vector<T>>& rows) {
  std::vector<torex::StridedView<const T>> views;
  views.reserve(rows.size());
  for (const auto& row : rows) views.push_back({row.data(), row.size(), 1});
  return views;
}

/// Dense receive rows filled by scatter_parcels_strided: recv[q][p] is
/// the payload q received from p.
template <typename T>
std::vector<std::vector<T>> scatter_rows(torex::Rank N, const torex::ParcelBuffers<T>& delivered) {
  std::vector<std::vector<T>> recv(static_cast<std::size_t>(N),
                                   std::vector<T>(static_cast<std::size_t>(N)));
  std::vector<torex::StridedView<T>> views;
  views.reserve(recv.size());
  for (auto& row : recv) views.push_back({row.data(), row.size(), 1});
  torex::scatter_parcels_strided(N, delivered, views);
  return recv;
}

/// The transpose oracle: recv[q][p] == send[p][q] for every pair.
template <typename T>
bool transpose_ok(const std::vector<std::vector<T>>& send,
                  const std::vector<std::vector<T>>& recv) {
  const std::size_t N = send.size();
  if (recv.size() != N) return false;
  for (std::size_t q = 0; q < N; ++q) {
    if (recv[q].size() != N) return false;
    for (std::size_t p = 0; p < N; ++p) {
      if (!(recv[q][p] == send[p][q])) return false;
    }
  }
  return true;
}

/// aape.build_ms: the median of several SuhShinAape constructions.
inline void add_build_metric(Result& result, const torex::TorusShape& shape) {
  std::vector<double> build_ms;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    const torex::SuhShinAape built(shape);
    build_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  result.add("aape.build_ms", median(build_ms), "ms");
}

/// Byte-identical comparison of two executions' delivered buffers.
template <typename T>
bool same_bytes(const torex::ParcelBuffers<T>& a, const torex::ParcelBuffers<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(torex::Parcel<T>)) != 0) {
      return false;
    }
  }
  return true;
}

/// The replay's traffic counts must equal what the real executor
/// recorded in its arena for the same operation.
inline void check_against_wire(Result& result, const ReplayCounts& c,
                               const torex::WirePoolStats& real, const std::string& what) {
  result.check(c.messages == real.messages, what + ": replay messages != executor messages");
  result.check(c.runs == real.runs_encoded, what + ": replay runs != executor runs");
  result.check(c.encoded_bytes == real.bytes_encoded,
               what + ": replay encoded bytes != executor bytes");
  result.check(c.bytes_copied == real.bytes_copied,
               what + ": replay bytes copied != executor bytes copied");
}

/// Structural counts of one real (untraced) call: its arena delta and
/// its operator-new traffic.
struct CallCounts {
  torex::WirePoolStats wire;
  std::int64_t allocs = 0;
  std::int64_t alloc_bytes = 0;
};

/// Runs `call` and counts what it did; `stats` reads the arena.
template <typename Stats, typename F>
CallCounts count_call(Stats&& stats, F&& call) {
  const torex::WirePoolStats before = stats();
  const std::int64_t a0 = alloc_count();
  const std::int64_t b0 = alloc_bytes();
  call();
  CallCounts c;
  c.allocs = alloc_count() - a0;
  c.alloc_bytes = alloc_bytes() - b0;
  c.wire = torex::wire_stats_delta(stats(), before);
  return c;
}

/// Flags every count that differs between two real calls of the same
/// code on the same input; returns how many did.
inline std::int64_t unstable_call_counts(const CallCounts& a, const CallCounts& b) {
  return flag_if_differs("wire.messages", a.wire.messages, b.wire.messages) +
         flag_if_differs("wire.runs", a.wire.runs_encoded, b.wire.runs_encoded) +
         flag_if_differs("wire.bytes_copied", a.wire.bytes_copied, b.wire.bytes_copied) +
         flag_if_differs("wire.pool_hits", a.wire.pool_hits, b.wire.pool_hits) +
         flag_if_differs("wire.pool_misses", a.wire.pool_misses, b.wire.pool_misses) +
         flag_if_differs("alloc.count", a.allocs, b.allocs) +
         flag_if_differs("alloc.bytes", a.alloc_bytes, b.alloc_bytes);
}

/// The arena.* and alloc.* rows of a steady-state call.
inline void add_call_counts(Result& result, const CallCounts& c) {
  result.add("arena.pool_hits", static_cast<double>(c.wire.pool_hits), "count");
  result.add("arena.pool_misses", static_cast<double>(c.wire.pool_misses), "count");
  result.add("arena.bytes_copied", static_cast<double>(c.wire.bytes_copied), "B");
  result.add("alloc.count_per_call", static_cast<double>(c.allocs), "count");
  result.add("alloc.kib_per_call", static_cast<double>(c.alloc_bytes) / 1024.0, "KiB");
}

}  // namespace perfbench
