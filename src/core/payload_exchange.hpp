// Payload-carrying exchange: the bridge from schedule to application.
//
// The exchange engine moves block *identities*; applications move data.
// This header runs the same schedule over user payloads attached to
// blocks — each node starts with one payload per destination and ends
// with one payload per origin — so examples (matrix transpose, FFT)
// and downstream users exercise exactly the communication pattern the
// paper schedules, with their own element types.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/aape.hpp"
#include "core/block.hpp"
#include "core/data_array.hpp"
#include "core/integrity.hpp"
#include "core/wire_buffer.hpp"
#include "obs/recorder.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace torex {

/// One payload in flight: its block identity plus user data.
template <typename T>
struct Parcel {
  Block block;
  T payload;
};

/// Per-node parcel buffers, indexed by rank.
template <typename T>
using ParcelBuffers = std::vector<std::vector<Parcel<T>>>;

/// Per-destination delivery state of one all-to-all: bit (dest, origin)
/// is set once `dest` durably holds the parcel `origin` addressed to
/// it. This is the unit of progress the exchange journal
/// (runtime/journal.hpp) persists and the delta-resume path consults to
/// re-send only what is missing and drop what is re-received.
class DeliveryBitmap {
 public:
  DeliveryBitmap() = default;
  explicit DeliveryBitmap(Rank num_nodes)
      : num_nodes_(num_nodes),
        words_(static_cast<std::size_t>(num_nodes) * words_per_row(num_nodes), 0) {
    TOREX_REQUIRE(num_nodes >= 1, "delivery bitmap needs at least one node");
  }

  Rank num_nodes() const { return num_nodes_; }

  bool test(Rank dest, Rank origin) const {
    check_pair(dest, origin);
    return (words_[word_index(dest, origin)] >> bit_index(origin)) & 1u;
  }

  /// Sets bit (dest, origin); returns true when it was newly set.
  bool mark(Rank dest, Rank origin) {
    check_pair(dest, origin);
    std::uint64_t& word = words_[word_index(dest, origin)];
    const std::uint64_t bit = std::uint64_t{1} << bit_index(origin);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++delivered_;
    return true;
  }

  /// Parcels marked delivered so far (out of expected()).
  std::int64_t delivered() const { return delivered_; }

  /// Total parcels of the exchange: one per ordered (origin, dest)
  /// pair, self pairs included.
  std::int64_t expected() const {
    return static_cast<std::int64_t>(num_nodes_) * num_nodes_;
  }

  bool complete() const { return delivered_ == expected(); }

  /// Delivered count for one destination's row.
  std::int64_t delivered_to(Rank dest) const {
    TOREX_REQUIRE(dest >= 0 && dest < num_nodes_, "destination out of range");
    std::int64_t count = 0;
    for (Rank origin = 0; origin < num_nodes_; ++origin) {
      if (test(dest, origin)) ++count;
    }
    return count;
  }

 private:
  static std::size_t words_per_row(Rank num_nodes) {
    return (static_cast<std::size_t>(num_nodes) + 63) / 64;
  }
  std::size_t word_index(Rank dest, Rank origin) const {
    return static_cast<std::size_t>(dest) * words_per_row(num_nodes_) +
           static_cast<std::size_t>(origin) / 64;
  }
  static unsigned bit_index(Rank origin) { return static_cast<unsigned>(origin) % 64; }
  void check_pair(Rank dest, Rank origin) const {
    TOREX_REQUIRE(dest >= 0 && dest < num_nodes_ && origin >= 0 && origin < num_nodes_,
                  "delivery bitmap pair out of range");
  }

  Rank num_nodes_ = 0;
  std::int64_t delivered_ = 0;
  std::vector<std::uint64_t> words_;
};

namespace detail {

/// Validates the canonical all-to-all seed: one buffer per node, one
/// parcel per destination, every parcel originating at its node.
template <typename T>
void require_canonical_parcel_seed(Rank N, const ParcelBuffers<T>& buffers) {
  TOREX_REQUIRE(static_cast<Rank>(buffers.size()) == N, "need one buffer per node");
  std::vector<char> seen(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    TOREX_REQUIRE(static_cast<Rank>(buffers[static_cast<std::size_t>(p)].size()) == N,
                  "node must start with one parcel per destination");
    std::fill(seen.begin(), seen.end(), 0);
    for (const auto& parcel : buffers[static_cast<std::size_t>(p)]) {
      TOREX_REQUIRE(parcel.block.origin == p, "parcel origin must match its node");
      TOREX_REQUIRE(parcel.block.dest >= 0 && parcel.block.dest < N,
                    "parcel destination out of range");
      TOREX_REQUIRE(!seen[static_cast<std::size_t>(parcel.block.dest)],
                    "duplicate destination in a node's initial parcels");
      seen[static_cast<std::size_t>(parcel.block.dest)] = 1;
    }
  }
}

/// Verifies the AAPE postcondition on delivered parcels: node p holds
/// exactly one parcel from every origin, all addressed to p.
template <typename T>
void check_parcel_postcondition(Rank N, const ParcelBuffers<T>& buffers) {
  std::vector<char> seen(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    const auto& buf = buffers[static_cast<std::size_t>(p)];
    TOREX_CHECK(static_cast<Rank>(buf.size()) == N, "payload exchange lost parcels");
    std::fill(seen.begin(), seen.end(), 0);
    for (const auto& parcel : buf) {
      TOREX_CHECK(parcel.block.dest == p, "payload delivered to the wrong node");
      TOREX_CHECK(!seen[static_cast<std::size_t>(parcel.block.origin)], "duplicate origin");
      seen[static_cast<std::size_t>(parcel.block.origin)] = 1;
    }
  }
}

/// The wire-free move step for node `p` in (phase, step): stably
/// partitions `buf` so the parcels it sends sit at the end, then moves
/// them, in buffer order, onto the end of the partner's inbox slot.
/// Returns how many parcels moved.
template <typename T>
std::size_t move_send_set(const SuhShinAape& algo, Rank p, int phase, int step,
                          std::vector<Parcel<T>>& buf, ParcelBuffers<T>& inbox) {
  const SuhShinAape::SendTest sends = algo.send_test(p, phase, step);
  auto split = std::stable_partition(buf.begin(), buf.end(),
                                     [&](const Parcel<T>& x) { return !sends(x.block); });
  const auto moved = static_cast<std::size_t>(std::distance(split, buf.end()));
  if (moved == 0) return 0;
  auto& in = inbox[static_cast<std::size_t>(algo.partner(p, phase, step))];
  in.insert(in.end(), std::make_move_iterator(split), std::make_move_iterator(buf.end()));
  buf.erase(split, buf.end());
  return moved;
}

/// One wire-free step: every node's send set moves into its partner's
/// inbox, then each inbox is appended to its node's buffer, so node p's
/// arrivals sit at [received_at[p], end). Returns the parcels moved.
template <typename T>
std::size_t move_step(const SuhShinAape& algo, int phase, int step, ParcelBuffers<T>& buffers,
                      ParcelBuffers<T>& inbox, std::vector<std::size_t>& received_at) {
  std::size_t moved = 0;
  for (std::size_t p = 0; p < buffers.size(); ++p) {
    moved += move_send_set(algo, static_cast<Rank>(p), phase, step, buffers[p], inbox);
  }
  for (std::size_t p = 0; p < buffers.size(); ++p) {
    auto& buf = buffers[p];
    auto& in = inbox[p];
    received_at[p] = buf.size();
    if (in.empty()) continue;
    buf.insert(buf.end(), std::make_move_iterator(in.begin()), std::make_move_iterator(in.end()));
    in.clear();
  }
  return moved;
}

/// The wire-free phase→step loop over move_step.
template <typename T>
void run_move_exchange(const SuhShinAape& algo, ParcelBuffers<T>& buffers, Recorder* obs) {
  ParcelBuffers<T> inbox(buffers.size());
  std::vector<std::size_t> received_at(buffers.size());
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    SpanGuard phase_span(obs, "phase", -1, phase);
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      SpanGuard step_span(obs, "step", -1, phase, step);
      move_step(algo, phase, step, buffers, inbox, received_at);
    }
  }
}

}  // namespace detail

/// Runs the full schedule over `initial` parcels. Requirements:
/// initial[p] holds exactly one parcel per destination, each with
/// block.origin == p. Returns the final buffers: node p ends with one
/// parcel from every origin, all with block.dest == p. Throws on any
/// violation.
template <typename T>
ParcelBuffers<T> exchange_payloads(const SuhShinAape& algo, ParcelBuffers<T> buffers,
                                   Recorder* obs = nullptr) {
  const Rank N = algo.shape().num_nodes();
  detail::require_canonical_parcel_seed(N, buffers);
  if (obs != nullptr && !obs->enabled()) obs = nullptr;
  SpanGuard exchange_span(obs, "exchange");
  detail::run_move_exchange(algo, buffers, obs);
  detail::check_parcel_postcondition(N, buffers);
  return buffers;
}

// --- Sealed wire frames (TOX3) -----------------------------------------
//
// Every wire path ships one message per node per step as a sealed
// multi-run frame. The sender appends its send set's maximal
// contiguous runs straight out of its buffer (one memcpy per run,
// source order untouched, so a refused frame retransmits from intact
// parcels); under the §3.3 layout in 2D that is a single run, so the
// message costs one memcpy. A run table of {dst_offset, count}
// descriptors lets the receiver hole-splice scatter each run into its
// destination slot without a rearrangement pass of its own, and
// verification reads the frame in place through a non-owning view.
// Both CRCs (header, frame) must match and the byte count must be
// exact, so any bit flip or truncation anywhere in the frame is
// detected.
//
// Frame layout (little-endian):
//   [ 0) magic u32  "TOX3"
//   [ 4) phase u32        [ 8) step u32
//   [12) src u64          [20) dst u64
//   [28) count u64        [36) parcel_size u64
//   [44) run_count u32
//   [48) header crc u32 over bytes [0, 48)
//   [52) run_count * { dst_offset u64, count u64 } run table
//   [..) count * parcel_size raw parcel bytes, runs concatenated in
//        table order
//   [..) frame crc u32 over everything before it
//
// Decode never trusts the wire: run_count is bounded by the bytes
// present before the table is read, count by the bytes left after the
// table, and the descriptors must form an exact ascending partition of
// [0, count) — zero-length, overlapping, or out-of-bounds runs are
// typed errors, so a forged table can neither over-read the frame nor
// over-write the scatter destination.

namespace detail {

inline constexpr std::uint32_t kFrameV3Magic = 0x544F5833u;  // "TOX3"
inline constexpr std::size_t kFrameV3HeaderBytes = 52;
inline constexpr std::size_t kRunDescriptorBytes = 16;
inline constexpr std::size_t kFrameTrailerBytes = 4;

/// Exact byte size of a TOX3 frame carrying `count` parcels in
/// `run_count` runs.
template <typename T>
constexpr std::size_t multi_run_frame_bytes(std::size_t run_count, std::size_t count) {
  return kFrameV3HeaderBytes + run_count * kRunDescriptorBytes + count * sizeof(Parcel<T>) +
         kFrameTrailerBytes;
}

/// One send run: parcels [first, last) of a node's buffer.
struct RunSpan {
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Scans a buffer for this step's send set without reordering it.
/// Fills `runs` with the maximal contiguous spans of parcels matched
/// by `should_send` (buffer order) and returns the total parcel count.
template <typename T, typename Pred>
std::size_t collect_send_runs(const std::vector<Parcel<T>>& buf, Pred&& should_send,
                              std::vector<RunSpan>& runs) {
  runs.clear();
  std::size_t count = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (should_send(buf[i])) {
      if (runs.empty() || runs.back().last != i) {
        runs.push_back(RunSpan{i, i + 1});
      } else {
        runs.back().last = i + 1;
      }
      ++count;
    }
  }
  return count;
}

/// Compacts a buffer by dropping the given runs (one stable pass) —
/// the post-delivery counterpart of collect_send_runs.
template <typename T>
void erase_runs(std::vector<Parcel<T>>& buf, const std::vector<RunSpan>& runs) {
  if (runs.empty()) return;
  std::size_t write = runs.front().first;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::size_t keep_begin = runs[r].last;
    const std::size_t keep_end = r + 1 < runs.size() ? runs[r + 1].first : buf.size();
    for (std::size_t i = keep_begin; i < keep_end; ++i) buf[write++] = buf[i];
  }
  buf.resize(write);
}

/// Adds a wire-stats delta to the recorder's metric counters.
inline void publish_wire_metrics(Recorder* obs, const WirePoolStats& d) {
  if (obs == nullptr) return;
  MetricsRegistry& m = obs->metrics();
  m.counter("wire.messages").add(d.messages);
  m.counter("wire.parcels").add(d.parcels);
  m.counter("wire.pool_hits").add(d.pool_hits);
  m.counter("wire.pool_misses").add(d.pool_misses);
  m.counter("wire.bytes_encoded").add(d.bytes_encoded);
  m.counter("wire.bytes_copied").add(d.bytes_copied);
  m.counter("wire.contiguous_sends").add(d.contiguous_sends);
  m.counter("wire.gathered_parcels").add(d.gathered_parcels);
  m.counter("wire.runs_encoded").add(d.runs_encoded);
}

}  // namespace detail

/// Encodes one message as a TOX3 multi-run frame, gathering the given
/// runs straight from `buf` (one memcpy per run, no staging copy, no
/// reordering of `buf`). Descriptors carry cumulative destination
/// offsets, so the receiver's scatter reproduces the runs' order.
template <typename T>
void encode_multi_run_frame(const std::vector<Parcel<T>>& buf,
                            const std::vector<detail::RunSpan>& runs, std::size_t count,
                            int phase, int step, Rank src, Rank dst,
                            std::vector<std::byte>& frame) {
  static_assert(std::is_trivially_copyable_v<Parcel<T>>,
                "framed exchange requires trivially copyable parcels");
  TOREX_REQUIRE(phase >= 0 && step >= 0 && src >= 0 && dst >= 0,
                "sealed message metadata must be non-negative");
  frame.clear();
  frame.resize(detail::multi_run_frame_bytes<T>(runs.size(), count));
  std::byte* h = frame.data();
  wire_write_u32(h + 0, detail::kFrameV3Magic);
  wire_write_u32(h + 4, static_cast<std::uint32_t>(phase));
  wire_write_u32(h + 8, static_cast<std::uint32_t>(step));
  wire_write_u64(h + 12, static_cast<std::uint64_t>(static_cast<std::int64_t>(src)));
  wire_write_u64(h + 20, static_cast<std::uint64_t>(static_cast<std::int64_t>(dst)));
  wire_write_u64(h + 28, static_cast<std::uint64_t>(count));
  wire_write_u64(h + 36, static_cast<std::uint64_t>(sizeof(Parcel<T>)));
  wire_write_u32(h + 44, static_cast<std::uint32_t>(runs.size()));
  std::uint64_t dst_offset = 0;
  std::size_t at = detail::kFrameV3HeaderBytes;
  for (const detail::RunSpan& r : runs) {
    const std::uint64_t n = r.last - r.first;
    wire_write_u64(frame.data() + at, dst_offset);
    wire_write_u64(frame.data() + at + 8, n);
    at += detail::kRunDescriptorBytes;
    dst_offset += n;
  }
  TOREX_CHECK(dst_offset == count, "run spans disagree with parcel count");
  for (const detail::RunSpan& r : runs) {  // one memcpy per run
    const std::size_t bytes = (r.last - r.first) * sizeof(Parcel<T>);
    std::memcpy(frame.data() + at, buf.data() + r.first, bytes);
    at += bytes;
  }
  // One streaming pass over the whole frame: the header digest is
  // sampled mid-stream (value() does not consume the accumulator),
  // patched into [48, 52), and those bytes then feed the same
  // accumulator so the trailing digest covers them too.
  Crc32 crc;
  crc.update(frame.data(), 48);
  wire_write_u32(frame.data() + 48, crc.value());
  crc.update(frame.data() + 48, at - 48);
  wire_write_u32(frame.data() + at, crc.value());
}

/// Non-owning typed view over a verified multi-run frame: the run
/// table plus the concatenated parcel runs, both inside the frame
/// bytes (which must outlive the view). Reads go through memcpy so
/// nothing requires alignment.
template <typename T>
class SealedRunFrameView {
 public:
  /// One decoded run: `count` parcels at `bytes`, destined for parcel
  /// slots [dst_offset, dst_offset + count) of the scatter region.
  struct Run {
    std::uint64_t dst_offset = 0;
    std::size_t count = 0;
    const std::byte* bytes = nullptr;
  };

  SealedRunFrameView() = default;
  SealedRunFrameView(const std::byte* table, std::size_t run_count, const std::byte* payload,
                     std::size_t count)
      : table_(table), run_count_(run_count), payload_(payload), count_(count) {}

  std::size_t count() const { return count_; }
  std::size_t run_count() const { return run_count_; }
  const std::byte* payload_bytes() const { return payload_; }
  std::size_t payload_size() const { return count_ * sizeof(Parcel<T>); }

  /// Run `r` of the table; source byte positions accumulate in table
  /// order (runs are concatenated on the wire).
  Run run(std::size_t r) const {
    Run out{0, 0, payload_};
    for (std::size_t i = 0; i <= r; ++i) {
      out.bytes += out.count * sizeof(Parcel<T>);
      std::tie(out.dst_offset, out.count) = descriptor(i);
    }
    return out;
  }

  Block identity(std::size_t i) const {
    Block b;
    std::memcpy(&b, payload_ + i * sizeof(Parcel<T>), sizeof(Block));
    return b;
  }

  Parcel<T> parcel(std::size_t i) const {
    Parcel<T> p;
    std::memcpy(&p, payload_ + i * sizeof(Parcel<T>), sizeof(Parcel<T>));
    return p;
  }

  /// Hole-splice scatter: one memcpy per run, each landing at its
  /// descriptor's destination slot. `dest` must hold count() parcels
  /// (decode guarantees the descriptors exactly partition that region).
  void scatter(Parcel<T>* dest) const {
    const std::byte* src = payload_;
    for (std::size_t r = 0; r < run_count_; ++r) {
      const auto [dst_offset, n] = descriptor(r);
      std::memcpy(dest + dst_offset, src, n * sizeof(Parcel<T>));
      src += n * sizeof(Parcel<T>);
    }
  }

  /// Appends all parcels to `out` in destination order (one grow, then
  /// the run-by-run scatter).
  void append_to(std::vector<Parcel<T>>& out) const {
    const std::size_t old = out.size();
    out.resize(old + count_);
    scatter(out.data() + old);
  }

 private:
  /// Descriptor `r` of the run table: {dst_offset, count}.
  std::pair<std::uint64_t, std::size_t> descriptor(std::size_t r) const {
    WireView d(table_ + r * detail::kRunDescriptorBytes, detail::kRunDescriptorBytes);
    std::size_t offset = 0;
    std::uint64_t dst_offset = 0, n = 0;
    wire_get_u64(d, offset, dst_offset);
    wire_get_u64(d, offset, n);
    return {dst_offset, static_cast<std::size_t>(n)};
  }

  const std::byte* table_ = nullptr;
  std::size_t run_count_ = 0;
  const std::byte* payload_ = nullptr;
  std::size_t count_ = 0;
};

/// Verifies a TOX3 multi-run frame in place. On success `out` views the
/// run table and parcel runs inside `wire` (which must outlive the
/// view); on failure returns false with `reason` filled when non-null.
/// Detects truncation, bit flips anywhere, wrong (phase, step) or
/// channel, forged counts, identities out of range, and the run-table
/// classes: a table longer than the frame, zero-length runs,
/// overlapping or out-of-order descriptors, descriptors pointing
/// outside the scatter region, and a table that does not account for
/// every parcel.
template <typename T>
bool decode_multi_run_frame(WireView wire, int phase, int step, Rank src, Rank dst,
                            Rank num_nodes, SealedRunFrameView<T>& out,
                            std::string* reason = nullptr) {
  static_assert(std::is_trivially_copyable_v<Parcel<T>>,
                "framed exchange requires trivially copyable parcels");
  out = SealedRunFrameView<T>();
  auto fail = [&](const char* what) {
    if (reason != nullptr) *reason = what;
    return false;
  };
  if (phase < 0 || step < 0 || src < 0 || dst < 0) return fail("negative message metadata");
  if (wire.size() < detail::kFrameV3HeaderBytes + detail::kFrameTrailerBytes) {
    return fail("truncated message header");
  }
  std::size_t offset = 0;
  std::uint32_t magic = 0, wire_phase = 0, wire_step = 0, run_count = 0, header_crc = 0;
  std::uint64_t wire_src = 0, wire_dst = 0, count = 0, parcel_size = 0;
  wire_get_u32(wire, offset, magic);
  wire_get_u32(wire, offset, wire_phase);
  wire_get_u32(wire, offset, wire_step);
  wire_get_u64(wire, offset, wire_src);
  wire_get_u64(wire, offset, wire_dst);
  wire_get_u64(wire, offset, count);
  wire_get_u64(wire, offset, parcel_size);
  wire_get_u32(wire, offset, run_count);
  const std::size_t header_len = offset;
  wire_get_u32(wire, offset, header_crc);
  Crc32 crc;
  crc.update(wire.data(), header_len);
  if (header_crc != crc.value()) return fail("header checksum mismatch");
  if (magic != detail::kFrameV3Magic) return fail("bad magic");
  if (wire_phase != static_cast<std::uint32_t>(phase) ||
      wire_step != static_cast<std::uint32_t>(step)) {
    return fail("message sealed for a different step");
  }
  if (wire_src != static_cast<std::uint64_t>(static_cast<std::int64_t>(src)) ||
      wire_dst != static_cast<std::uint64_t>(static_cast<std::int64_t>(dst))) {
    return fail("message sealed for a different channel");
  }
  if (parcel_size != sizeof(Parcel<T>)) return fail("parcel record size mismatch");
  // Bound the run table, then the parcel count, by the bytes actually
  // present — neither may drive a read past the frame.
  const std::size_t avail_all =
      wire.size() - detail::kFrameV3HeaderBytes - detail::kFrameTrailerBytes;
  if (run_count > avail_all / detail::kRunDescriptorBytes) {
    return fail("run table exceeds message size");
  }
  const std::size_t table_bytes =
      static_cast<std::size_t>(run_count) * detail::kRunDescriptorBytes;
  const std::size_t avail = avail_all - table_bytes;
  if (count > avail / sizeof(Parcel<T>)) return fail("parcel count exceeds message size");
  if (count * sizeof(Parcel<T>) != avail) return fail("frame size mismatch");
  const std::size_t run_end = wire.size() - detail::kFrameTrailerBytes;
  std::uint32_t frame_crc = 0;
  std::size_t trailer_at = run_end;
  wire_get_u32(wire, trailer_at, frame_crc);
  crc.update(wire.data() + header_len, run_end - header_len);
  if (frame_crc != crc.value()) return fail("frame checksum mismatch");
  // The descriptors must form an exact ascending partition of the
  // scatter region [0, count): no zero-length, overlapping, or
  // out-of-bounds run can reach the scatter memcpy.
  std::uint64_t next_free = 0;
  std::uint64_t covered = 0;
  for (std::uint32_t r = 0; r < run_count; ++r) {
    std::size_t at = detail::kFrameV3HeaderBytes +
                     static_cast<std::size_t>(r) * detail::kRunDescriptorBytes;
    std::uint64_t dst_offset = 0, n = 0;
    wire_get_u64(wire, at, dst_offset);
    wire_get_u64(wire, at, n);
    if (n == 0) return fail("empty run descriptor");
    if (dst_offset < next_free) return fail("overlapping run descriptors");
    if (n > count || dst_offset > count - n) return fail("run descriptor out of bounds");
    next_free = dst_offset + n;
    covered += n;
  }
  if (covered != count) return fail("run table does not cover the frame");
  SealedRunFrameView<T> view(wire.data() + detail::kFrameV3HeaderBytes,
                             static_cast<std::size_t>(run_count),
                             wire.data() + detail::kFrameV3HeaderBytes + table_bytes,
                             static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < view.count(); ++i) {
    const Block b = view.identity(i);
    if (b.origin < 0 || b.origin >= num_nodes || b.dest < 0 || b.dest >= num_nodes) {
      return fail("parcel identity out of range");
    }
  }
  out = view;
  return true;
}

// --- Strided user-buffer views (Träff-style datatypes) ------------------

/// A strided view over caller-owned memory: `count` logical elements,
/// `stride` elements apart (stride 1 is a dense row; a column of a
/// row-major matrix has stride = row length). The exchange engine
/// seeds parcels straight from these views and scatters results
/// straight back — the caller never materializes a dense staging copy.
template <typename T>
struct StridedView {
  T* base = nullptr;
  std::size_t count = 0;
  std::ptrdiff_t stride = 1;

  T& at(std::size_t i) const { return base[static_cast<std::ptrdiff_t>(i) * stride]; }
};

/// Seeds the canonical all-to-all parcels from per-node strided send
/// views: node p's element for destination q is send[p].at(q).
template <typename T>
ParcelBuffers<T> seed_parcels_strided(Rank N, const std::vector<StridedView<const T>>& send) {
  TOREX_REQUIRE(static_cast<Rank>(send.size()) == N, "need one send view per node");
  ParcelBuffers<T> buffers(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    const StridedView<const T>& view = send[static_cast<std::size_t>(p)];
    TOREX_REQUIRE(static_cast<Rank>(view.count) == N && view.base != nullptr,
                  "send view must cover one element per destination");
    auto& buf = buffers[static_cast<std::size_t>(p)];
    buf.reserve(static_cast<std::size_t>(N));
    for (Rank q = 0; q < N; ++q) {
      buf.push_back({Block{p, q}, view.at(static_cast<std::size_t>(q))});
    }
  }
  return buffers;
}

/// Scatters delivered parcels into per-node strided receive views:
/// node p's parcel from origin o lands at recv[p].at(o). `delivered`
/// must satisfy the AAPE postcondition (checked by the executors).
template <typename T>
void scatter_parcels_strided(Rank N, const ParcelBuffers<T>& delivered,
                             const std::vector<StridedView<T>>& recv) {
  TOREX_REQUIRE(static_cast<Rank>(recv.size()) == N, "need one receive view per node");
  for (Rank p = 0; p < N; ++p) {
    const StridedView<T>& view = recv[static_cast<std::size_t>(p)];
    TOREX_REQUIRE(static_cast<Rank>(view.count) == N && view.base != nullptr,
                  "receive view must cover one element per origin");
    for (const Parcel<T>& parcel : delivered[static_cast<std::size_t>(p)]) {
      view.at(static_cast<std::size_t>(parcel.block.origin)) = parcel.payload;
    }
  }
}

namespace detail {

/// Dense rows as stride-1 views (of const T over const rows), for the
/// strided seed and scatter path.
template <typename Rows>
auto dense_views(Rows& rows) {
  std::vector<StridedView<std::remove_pointer_t<decltype(rows.front().data())>>> views;
  views.reserve(rows.size());
  for (auto& row : rows) views.push_back({row.data(), row.size(), 1});
  return views;
}

}  // namespace detail

// --- The framed step kernel --------------------------------------------
//
// FramedStepper runs one step of every framed executor. Each node
// scans its send set without reordering, gathers it into a leased
// frame, lets the tamperer at it, and verifies it; a refused frame is
// re-encoded from the intact source parcels up to the retransmit
// budget, after which IntegrityError carries the report out. The
// integrate half splices each verified frame where its executor fixed:
// in the hole the receiver's own send left (kHole: sealed, pooled), or
// at the end of the receiver's buffer (kAppend: journaled and torexd's
// SessionExchange, whose write-ahead tail reads arrivals from there).

namespace detail {

/// Leases an exact-size frame from `arena` into `frame`, encodes the
/// runs of `buf` into it as a TOX3 frame, and books the send (message,
/// runs, frame bytes, gathered payload bytes) in the arena's stats.
template <typename T>
void encode_send_frame(WireArena& arena, PooledFrame& frame, const std::vector<Parcel<T>>& buf,
                       const std::vector<RunSpan>& runs, std::size_t count, int phase, int step,
                       Rank src, Rank dst) {
  frame.bind(arena, multi_run_frame_bytes<T>(runs.size(), count));
  encode_multi_run_frame(buf, runs, count, phase, step, src, dst, frame.bytes());
  WirePoolStats& stats = arena.stats();
  stats.note_message(static_cast<std::int64_t>(count), static_cast<std::int64_t>(runs.size()));
  stats.bytes_encoded += static_cast<std::int64_t>(frame.bytes().size());
  stats.bytes_copied += static_cast<std::int64_t>(count * sizeof(Parcel<T>));
}

/// Hole-splices a verified frame's runs into `buf` at position `at`
/// (one grow, one tail shift, one memcpy per run) and books the copy in
/// the arena's stats. Grows with resize, not insert(pos, n, value):
/// libstdc++ fills the latter element by element, several times slower
/// for short runs.
template <typename T>
void splice_frame(WireArena& arena, const SealedRunFrameView<T>& view,
                  std::vector<Parcel<T>>& buf, std::size_t at) {
  const std::size_t old_size = buf.size();
  buf.resize(old_size + view.count());
  std::move_backward(buf.begin() + static_cast<std::ptrdiff_t>(at),
                     buf.begin() + static_cast<std::ptrdiff_t>(old_size), buf.end());
  view.scatter(buf.data() + at);
  arena.stats().bytes_copied += static_cast<std::int64_t>(view.payload_size());
}

/// The wire's retransmit protocol state: the tamper hook (null for a
/// clean wire), the retransmit budget, the fault-tick clock, and the
/// report the stepper fills.
struct FrameSeal {
  const ParcelTamperer* tamperer = nullptr;
  int max_retransmits = 0;
  std::int64_t tick = 0;
  IntegrityReport report{};
};

/// Where a verified frame lands in its receiver's buffer.
enum class FramePlacement {
  kHole,    ///< in the room the receiver's own send left
  kAppend,  ///< at the end of the receiver's buffer
};

/// The framed step kernel (see the section comment), re-entrant per
/// (phase, step). `algo` and `arena` must outlive it.
template <typename T>
class FramedStepper {
 public:
  FramedStepper(const SuhShinAape& algo, WireArena& arena, FramePlacement placement,
                Recorder* obs = nullptr)
      : algo_(&algo), arena_(&arena), placement_(placement), obs_(obs),
        pending_(static_cast<std::size_t>(algo.shape().num_nodes())),
        received_at_(pending_.size(), 0) {}

  /// Retransmit state: callers set the tamperer, budget and tick, and
  /// read the report (report.parcels counts every verified send).
  FrameSeal seal;

  /// Runs (phase, step) over `buffers` and returns the parcels sent.
  /// `before_lease(held)` runs before each frame is leased, with the
  /// frames this step already holds, and may throw to refuse the lease.
  /// Throws IntegrityError once a message exhausts the seal's budget.
  /// Every frame the step leased is back in the arena on return and on
  /// any throw.
  template <typename BeforeLease = void (*)(std::int64_t)>
  std::size_t run(ParcelBuffers<T>& buffers, int phase, int step,
                  BeforeLease&& before_lease = [](std::int64_t) {}) {
    static_assert(std::is_trivially_copyable_v<Parcel<T>>,
                  "framed exchange requires trivially copyable parcels");
    struct ReleaseAll {
      std::vector<Pending>& slots;
      ~ReleaseAll() {
        for (Pending& slot : slots) slot.frame.reset();
      }
    } release{pending_};
    const SuhShinAape& algo = *algo_;
    const Rank N = algo.shape().num_nodes();
    const int hops = algo.hops_per_step(phase);
    IntegrityReport& report = seal.report;
    // Retransmissions across node pairs overlap in time; the step
    // consumes 1 + (worst retransmit count) ticks.
    std::int64_t extra_ticks = 0;
    std::size_t sent = 0;
    std::int64_t leased = 0;
    for (Rank p = 0; p < N; ++p) {
      auto& buf = buffers[static_cast<std::size_t>(p)];
      // The hole this node's own send leaves; the end if it sends nothing.
      received_at_[static_cast<std::size_t>(p)] = buf.size();
      const SuhShinAape::SendTest sends = algo.send_test(p, phase, step);
      const std::size_t count =
          collect_send_runs(buf, [&](const Parcel<T>& x) { return sends(x.block); }, runs_);
      if (count == 0) continue;
      const Rank q = algo.partner(p, phase, step);
      const Direction dir = algo.direction(p, phase, step);
      Pending& out = pending_[static_cast<std::size_t>(q)];
      TOREX_CHECK(!out.frame.bound(), "one-port receive violation in framed exchange");
      before_lease(leased++);
      for (int attempt = 0;; ++attempt) {
        encode_send_frame(*arena_, out.frame, buf, runs_, count, phase, step, p, q);
        const TransferContext ctx{.phase = phase, .step = step, .src = p, .dst = q,
                                  .direction = dir, .hops = hops,
                                  .tick = seal.tick + attempt, .attempt = attempt};
        if (seal.tamperer != nullptr && *seal.tamperer) (*seal.tamperer)(ctx, out.frame.bytes());
        std::string reason;
        if (decode_multi_run_frame<T>(out.frame.view(), phase, step, p, q, N, out.view,
                                      &reason)) {
          // The frame holds its own copy of the runs, so the source
          // compacts now.
          received_at_[static_cast<std::size_t>(p)] = runs_.front().first;
          erase_runs(buf, runs_);
          ++report.messages;
          report.parcels += static_cast<std::int64_t>(count);
          report.retransmits += attempt;
          if (obs_ != nullptr && attempt > 0) {
            obs_->instant("retransmit_ok", q, phase, step, attempt);
          }
          extra_ticks = std::max<std::int64_t>(extra_ticks, attempt);
          sent += count;
          break;
        }
        ++report.corrupted;
        if (obs_ != nullptr) obs_->instant("corrupted", q, phase, step, attempt);
        IntegrityViolation violation{.phase = phase, .step = step, .src = p, .dst = q,
                                     .direction = dir, .hops = hops, .tick = ctx.tick,
                                     .attempt = attempt, .reason = std::move(reason)};
        if (report.violations.size() < IntegrityReport::kMaxRecordedViolations) {
          report.violations.push_back(violation);
        }
        if (attempt == seal.max_retransmits) {
          report.retransmits += attempt;
          report.fatal = violation;
          report.final_tick = ctx.tick;
          if (obs_ != nullptr) obs_->instant("integrity_fatal", q, phase, step, attempt);
          throw IntegrityError("integrity failure: " + violation.describe() +
                                   " (retransmit budget exhausted)",
                               report);
        }
      }
    }
    // Integrate half: splice each verified frame at its placement; the
    // frames return to the arena as `release` goes out of scope.
    for (std::size_t p = 0; p < pending_.size(); ++p) {
      auto& buf = buffers[p];
      std::size_t& at = received_at_[p];
      at = placement_ == FramePlacement::kAppend ? buf.size() : std::min(at, buf.size());
      if (pending_[p].frame.bound()) splice_frame(*arena_, pending_[p].view, buf, at);
    }
    seal.tick += 1 + extra_ticks;
    return sent;
  }

  /// Where each node's arrivals of the last step begin in its buffer;
  /// under kAppend they run to the buffer's end.
  const std::vector<std::size_t>& received_at() const { return received_at_; }

 private:
  /// One in-flight frame, in its receiver's slot; leased while bound.
  struct Pending {
    PooledFrame frame;
    SealedRunFrameView<T> view;
  };

  const SuhShinAape* algo_;
  WireArena* arena_;
  FramePlacement placement_;
  Recorder* obs_;
  std::vector<Pending> pending_;
  std::vector<std::size_t> received_at_;
  std::vector<RunSpan> runs_;  // send-set scan scratch, reused per node
};

/// Runs every phase and step of `algo` over `buffers` through
/// `stepper`. `before_phase(phase)` runs before each phase's span
/// opens, so work it records under its own span (the pooled executor's
/// "rearrange") is not counted a second time in the phase's extent.
/// Throws IntegrityError (with the report) once a message exhausts the
/// seal's retransmit budget.
template <typename T, typename BeforePhase>
void run_framed_exchange(const SuhShinAape& algo, ParcelBuffers<T>& buffers,
                         FramedStepper<T>& stepper, Recorder* obs, BeforePhase&& before_phase) {
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    before_phase(phase);
    SpanGuard phase_span(obs, "phase", -1, phase);
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      SpanGuard step_span(obs, "step", -1, phase, step);
      stepper.run(buffers, phase, step);
    }
  }
  stepper.seal.report.final_tick = stepper.seal.tick;
}

}  // namespace detail

/// exchange_payloads with end-to-end integrity: every message crosses
/// the (simulated) wire as a sealed TOX3 frame, may be tampered with by
/// `tamperer`, and is verified before integration. A rejected delivery
/// is retransmitted up to options.max_retransmits times — each
/// retransmission costs one fault tick, so transient corruption windows
/// heal under retry — and an exhausted budget raises IntegrityError
/// carrying the report. `report_out`, when non-null, receives the
/// report even on throw. Buffers stay in caller (destination) order,
/// so sends are gathered multi-run frames. Restricted to trivially
/// copyable payloads because frames carry the parcels' object
/// representation.
template <typename T>
ParcelBuffers<T> exchange_payloads_sealed(const SuhShinAape& algo, ParcelBuffers<T> buffers,
                                          const ParcelTamperer& tamperer = {},
                                          const IntegrityOptions& options = {},
                                          IntegrityReport* report_out = nullptr,
                                          Recorder* obs = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>,
                "sealed exchange requires trivially copyable payloads");
  const Rank N = algo.shape().num_nodes();
  detail::require_canonical_parcel_seed(N, buffers);
  TOREX_REQUIRE(options.max_retransmits >= 0, "retransmit budget must be non-negative");
  if (obs != nullptr && !obs->enabled()) obs = nullptr;
  SpanGuard exchange_span(obs, "exchange_sealed");
  WireArena local_arena;
  WireArena& arena = options.arena != nullptr ? *options.arena : local_arena;
  const WirePoolStats stats_before = arena.stats();
  // Publishes the integrity and wire counters and hands the report
  // out — on success and on throw alike.
  const auto finish = [&](const IntegrityReport& r) {
    if (obs != nullptr) {
      MetricsRegistry& m = obs->metrics();
      m.counter("integrity.messages").add(r.messages);
      m.counter("integrity.parcels").add(r.parcels);
      m.counter("integrity.retransmits").add(r.retransmits);
      m.counter("integrity.corrupted").add(r.corrupted);
    }
    detail::publish_wire_metrics(obs, wire_stats_delta(arena.stats(), stats_before));
    if (report_out != nullptr) *report_out = r;
  };

  detail::FramedStepper<T> stepper(algo, arena, detail::FramePlacement::kHole, obs);
  stepper.seal = {
      .tamperer = &tamperer, .max_retransmits = options.max_retransmits, .tick = options.base_tick};
  try {
    detail::run_framed_exchange(algo, buffers, stepper, obs, [](int) {});
  } catch (const IntegrityError& e) {
    finish(e.report());
    throw;
  }
  detail::check_parcel_postcondition(N, buffers);
  finish(stepper.seal.report);
  return buffers;
}

// --- Pooled layout-faithful exchange -----------------------------------

namespace detail {

/// Scratch of rearrange_by_layout, reused across nodes and phases: it
/// reaches steady-state capacity after the first pass, so later phase
/// boundaries allocate nothing.
template <typename T>
struct LayoutScratch {
  std::vector<std::uint32_t> keys;           // per parcel
  std::vector<std::uint32_t> starts;         // per key: next placement slot
  std::vector<std::uint32_t> key_of;         // per class or send-test word: its key
  std::vector<SuhShinAape::SendTest> tests;  // per exchange-phase step
  std::vector<Parcel<T>> sorted;             // swapped with the node's buffer
};

/// Orders node `p`'s buffer for `phase` under `policy` with one stable
/// counting sort. Every key is a function of the block's destination
/// read through the phase's send tests:
///   scatter         directed ring distance from the holder's subtorus
///                   class to the destination's (range a/4)
///   quarter, pair   gray_rank of the n send-test bits (range 2^n)
///   naive           the destination rank (range N)
/// Equal keys keep their buffer order, so the result is exactly
/// std::stable_sort over layout::scatter_key / gray_rank(
/// difference_vector) or the destination, for any input order.
/// Under kPaper a scatter phase must have at least one step.
template <typename T>
void rearrange_by_layout(const SuhShinAape& algo, LayoutPolicy policy, Rank p, int phase,
                         std::vector<Parcel<T>>& buf, LayoutScratch<T>& scratch) {
  std::vector<std::uint32_t>& keys = scratch.keys;
  keys.resize(buf.size());
  const auto key_all = [&](auto&& key) {
    for (std::size_t i = 0; i < buf.size(); ++i) keys[i] = key(buf[i].block);
  };
  std::size_t range = 0;
  if (policy == LayoutPolicy::kNaiveDestinationOrder) {
    range = static_cast<std::size_t>(algo.shape().num_nodes());
    key_all([](const Block& b) { return static_cast<std::uint32_t>(b.dest); });
  } else if (algo.phase_kind(phase) == PhaseKind::kScatter) {
    const SuhShinAape::SendTest sends = algo.send_test(p, phase, 1);
    const Direction dir = algo.direction(p, phase, 1);
    const int ring = algo.shape().extent(dir.dim) / 4;
    range = static_cast<std::size_t>(ring);
    scratch.key_of.resize(range);
    for (int c = 0; c < ring; ++c) {
      const int ahead = (c - sends.own_class() + ring) % ring;
      scratch.key_of[static_cast<std::size_t>(c)] =
          static_cast<std::uint32_t>(dir.sign == Sign::kPositive ? ahead : (ring - ahead) % ring);
    }
    key_all([&](const Block& b) {
      return scratch.key_of[static_cast<std::size_t>(sends.class_of(b.dest))];
    });
  } else {
    const int n = algo.num_dims();
    std::vector<SuhShinAape::SendTest>& tests = scratch.tests;
    tests.clear();
    for (int step = 1; step <= n; ++step) tests.push_back(algo.send_test(p, phase, step));
    range = std::size_t{1} << n;
    scratch.key_of.resize(range);
    for (std::size_t w = 0; w < range; ++w) {
      scratch.key_of[w] = layout::gray_rank(static_cast<std::uint32_t>(w));
    }
    key_all([&](const Block& b) {
      std::uint32_t bits = 0;  // step 1 is the most significant bit
      for (const SuhShinAape::SendTest& sends : tests) {
        bits = (bits << 1) | static_cast<std::uint32_t>(sends(b));
      }
      return scratch.key_of[bits];
    });
  }

  std::vector<std::uint32_t>& starts = scratch.starts;
  starts.assign(range + 1, 0);
  for (const std::uint32_t k : keys) ++starts[k + 1];
  for (std::size_t k = 1; k < range; ++k) starts[k] += starts[k - 1];
  std::vector<Parcel<T>>& sorted = scratch.sorted;
  sorted.resize(buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) sorted[starts[keys[i]]++] = buf[i];
  buf.swap(sorted);
}

}  // namespace detail

/// Options for exchange_payloads_pooled.
struct WireExchangeOptions {
  /// Buffer ordering, set by one stable counting pass per phase
  /// boundary: the paper's §3.3 keys (contiguous sends, single-memcpy
  /// frames) or the naive destination order (fragments sends into
  /// gathered runs — the arena's run accounting quantifies the
  /// difference).
  LayoutPolicy layout = LayoutPolicy::kPaper;
  /// Optional external frame pool; a private arena is used when null.
  WireArena* arena = nullptr;
  Recorder* obs = nullptr;
};

/// exchange_payloads over the zero-copy wire: buffers are kept in the
/// paper's §3.3 physical order (one stable counting pass per phase
/// boundary, giving exactly the order data_array's layout simulator
/// sorts into), each step's send set
/// is gathered run-by-run into a pooled frame — one memcpy per run,
/// and under the paper layout in 2D that is one memcpy per message —
/// and receives are verified in place and spliced into the hole the
/// node's own send left. The arena records LayoutStats-style run
/// accounting, so the payload path reports the same contiguity
/// evidence as the block-level simulator. Steady state performs no
/// heap allocation on the wire: frames recycle through the arena.
template <typename T>
ParcelBuffers<T> exchange_payloads_pooled(const SuhShinAape& algo, ParcelBuffers<T> buffers,
                                          const WireExchangeOptions& options = {}) {
  static_assert(std::is_trivially_copyable_v<Parcel<T>>,
                "pooled exchange requires trivially copyable parcels");
  const Rank N = algo.shape().num_nodes();
  detail::require_canonical_parcel_seed(N, buffers);
  Recorder* obs = options.obs;
  if (obs != nullptr && !obs->enabled()) obs = nullptr;
  WireArena local_arena;
  WireArena& arena = options.arena != nullptr ? *options.arena : local_arena;
  const WirePoolStats stats_before = arena.stats();
  SpanGuard exchange_span(obs, "exchange");

  // Phase-boundary rearrangement: one counting pass per node, same
  // accounting as the layout simulator (phase 1's initial order is
  // counted as given). A phase without steps moves nothing, so its
  // order is left for the next boundary to set.
  detail::LayoutScratch<T> scratch;
  const auto rearrange = [&](int phase) {
    if (phase > 1) {
      ++arena.stats().rearrangement_passes;
      arena.stats().parcels_rearranged += N;
    }
    if (algo.steps_in_phase(phase) == 0) return;
    SpanGuard rearrange_span(obs, "rearrange", -1, phase);
    for (Rank p = 0; p < N; ++p) {
      detail::rearrange_by_layout(algo, options.layout, p, phase,
                                  buffers[static_cast<std::size_t>(p)], scratch);
    }
  };

  // The internal wire: no tamperer, no retransmits.
  detail::FramedStepper<T> stepper(algo, arena, detail::FramePlacement::kHole, obs);
  detail::run_framed_exchange(algo, buffers, stepper, obs, rearrange);
  detail::check_parcel_postcondition(N, buffers);
  detail::publish_wire_metrics(obs, wire_stats_delta(arena.stats(), stats_before));
  return buffers;
}

/// Runs the schedule over an arbitrary parcel multiset (the Alltoallv
/// generalization): initial[p] may hold any parcels with origin p.
/// Returns the final buffers; every parcel ends on its destination
/// (checked), with no constraint on counts.
template <typename T>
ParcelBuffers<T> exchange_parcels_custom(const SuhShinAape& algo, ParcelBuffers<T> buffers) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(static_cast<Rank>(buffers.size()) == N, "need one buffer per node");
  std::int64_t total = 0;
  for (Rank p = 0; p < N; ++p) {
    for (const auto& parcel : buffers[static_cast<std::size_t>(p)]) {
      TOREX_REQUIRE(parcel.block.origin == p, "parcel origin must match its node");
      TOREX_REQUIRE(parcel.block.dest >= 0 && parcel.block.dest < N,
                    "parcel destination out of range");
      ++total;
    }
  }

  detail::run_move_exchange(algo, buffers, nullptr);

  std::int64_t delivered = 0;
  for (Rank p = 0; p < N; ++p) {
    for (const auto& parcel : buffers[static_cast<std::size_t>(p)]) {
      TOREX_CHECK(parcel.block.dest == p, "parcel delivered to the wrong node");
      ++delivered;
    }
  }
  TOREX_CHECK(delivered == total, "parcels lost or duplicated");
  return buffers;
}

/// One-to-all personalized scatter: the root holds one payload per
/// node; after running the (same) schedule, node d holds payloads[d].
/// Returns the received payload per node (root keeps its own).
template <typename T>
std::vector<T> scatter_payloads(const SuhShinAape& algo, Rank root, std::vector<T> payloads) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(root >= 0 && root < N, "root out of range");
  TOREX_REQUIRE(static_cast<Rank>(payloads.size()) == N, "need one payload per node");
  ParcelBuffers<T> parcels(static_cast<std::size_t>(N));
  for (Rank d = 0; d < N; ++d) {
    parcels[static_cast<std::size_t>(root)].push_back(
        {Block{root, d}, std::move(payloads[static_cast<std::size_t>(d)])});
  }
  auto delivered = exchange_parcels_custom(algo, std::move(parcels));
  std::vector<T> out(static_cast<std::size_t>(N));
  for (Rank d = 0; d < N; ++d) {
    auto& buf = delivered[static_cast<std::size_t>(d)];
    TOREX_CHECK(buf.size() == 1, "scatter must deliver exactly one payload per node");
    out[static_cast<std::size_t>(d)] = std::move(buf.front().payload);
  }
  return out;
}

/// All-to-one personalized gather: every node contributes one payload;
/// the root ends with all of them, indexed by origin.
template <typename T>
std::vector<T> gather_payloads(const SuhShinAape& algo, Rank root, std::vector<T> payloads) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(root >= 0 && root < N, "root out of range");
  TOREX_REQUIRE(static_cast<Rank>(payloads.size()) == N, "need one payload per node");
  ParcelBuffers<T> parcels(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    parcels[static_cast<std::size_t>(p)].push_back(
        {Block{p, root}, std::move(payloads[static_cast<std::size_t>(p)])});
  }
  auto delivered = exchange_parcels_custom(algo, std::move(parcels));
  auto& buf = delivered[static_cast<std::size_t>(root)];
  TOREX_CHECK(static_cast<Rank>(buf.size()) == N, "gather must collect N payloads");
  std::vector<T> out(static_cast<std::size_t>(N));
  for (auto& parcel : buf) {
    out[static_cast<std::size_t>(parcel.block.origin)] = std::move(parcel.payload);
  }
  return out;
}

}  // namespace torex
