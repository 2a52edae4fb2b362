// Write-ahead exchange journal and the delta-resume runner.
//
// The Suh-Shin schedule is phase-structured, which makes it naturally
// checkpointable: after every schedule step the set of parcels that
// already sit on their destination is exactly known. This module makes
// that progress durable. A run appends CRC-32-sealed records to an
// ExchangeJournal — per-step delivery bitmaps (core/payload_exchange.hpp
// DeliveryBitmap pairs) followed by step/phase commit markers — and a
// crash between flush and commit loses at most the in-memory state of
// one step. Resume replays the committed prefix locally (deterministic,
// no wire traffic), materializes flushed-but-uncommitted deliveries from
// the journal, then re-runs only the remaining steps; a re-received
// parcel whose delivery is already durable is detected via the bitmap
// and dropped, giving exactly-once integration.
//
// Wire format (little-endian, version 1):
//   header:  magic "TOXJ" | version | num_dims | extents... |
//            num_phases | total_steps | CRC-32(header bytes)
//   record:  kind | payload_len | payload | CRC-32(kind+len+payload)
//     kind 1 kDeliveries  payload: flat_step | count | count x (dest, origin)
//     kind 2 kStepCommit  payload: flat_step   (steps [0, flat_step] durable)
//     kind 3 kPhaseCommit payload: phase       (1-based)
// A torn tail (truncated or CRC-damaged *final* record) is dropped on
// load and reported via torn_tail(); damage anywhere earlier is
// unrecoverable corruption and raises JournalError.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/aape.hpp"
#include "core/payload_exchange.hpp"
#include "obs/recorder.hpp"
#include "topology/shape.hpp"
#include "util/assert.hpp"

namespace torex {

/// Raised when a journal's bytes are unusable: bad magic, unsupported
/// version, malformed header, or corruption before the final record.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only durable progress of one all-to-all exchange. Value type;
/// encode() returns the exact byte stream flushed so far, decode()
/// rebuilds the in-memory state from a (possibly torn) stream.
class ExchangeJournal {
 public:
  static constexpr std::uint32_t kMagic = 0x4A584F54u;  // "TOXJ" little-endian
  static constexpr std::uint32_t kVersion = 1;
  enum RecordKind : std::uint32_t {
    kDeliveries = 1,
    kStepCommit = 2,
    kPhaseCommit = 3,
  };

  /// Unbound journal: bound() is false and every mutator refuses.
  ExchangeJournal() = default;

  /// Binds a fresh journal to one exchange's geometry. Self-parcels
  /// (p -> p) never cross the wire; they are durable by construction
  /// and pre-marked here (and again on decode).
  ExchangeJournal(const TorusShape& shape, int num_phases, std::int64_t total_steps);

  bool bound() const { return num_nodes_ > 0; }
  const std::vector<std::int32_t>& extents() const { return extents_; }
  Rank num_nodes() const { return num_nodes_; }
  int num_phases() const { return num_phases_; }
  std::int64_t total_steps() const { return total_steps_; }

  /// No progress recorded beyond the implicit self-deliveries.
  bool fresh() const { return records_ == 0; }
  std::int64_t records() const { return records_; }

  /// Number of flat schedule steps whose commit record is durable
  /// (commit of 0-based step s implies committed_steps() >= s + 1).
  std::int64_t committed_steps() const { return committed_steps_; }
  /// Highest phase-commit marker seen (0 = none).
  int committed_phase() const { return committed_phase_; }

  const DeliveryBitmap& delivered() const { return bitmap_; }
  std::int64_t delivered_parcels() const { return bitmap_.delivered(); }
  bool exchange_complete() const { return bitmap_.complete() && committed_phase_ == num_phases_; }

  /// Deliveries recorded for steps after the last committed one —
  /// durable parcels whose step died before its commit marker.
  std::vector<std::pair<Rank, Rank>> uncommitted_deliveries() const;

  /// Appends one kDeliveries record for `flat_step` (0-based) and marks
  /// the bitmap. Pairs are (dest, origin); re-marking an already
  /// delivered pair is an error (exactly-once is the writer's job).
  void record_deliveries(std::int64_t flat_step,
                         const std::vector<std::pair<Rank, Rank>>& pairs);
  /// Appends a kStepCommit marker; steps must commit in order.
  void commit_step(std::int64_t flat_step);
  /// Appends a kPhaseCommit marker; phases must commit in order.
  void commit_phase(int phase);

  /// The exact byte stream of everything recorded so far.
  const std::vector<std::byte>& encode() const { return bytes_; }

  /// Rebuilds a journal from bytes. A damaged *final* record is dropped
  /// (torn write) and flagged; any earlier damage raises JournalError.
  static ExchangeJournal decode(const std::vector<std::byte>& bytes);

  /// True when decode() dropped a torn tail record.
  bool torn_tail() const { return torn_tail_; }

  void save_file(const std::string& path) const;
  static ExchangeJournal load_file(const std::string& path);

  std::string summary() const;

 private:
  void append_record(RecordKind kind, const std::vector<std::byte>& payload);
  void mark_pair(Rank dest, Rank origin, bool require_new);

  /// Reused by every record builder so steady-state journaling does
  /// not allocate per record.
  std::vector<std::byte> scratch_;

  std::vector<std::int32_t> extents_;
  Rank num_nodes_ = 0;
  int num_phases_ = 0;
  std::int64_t total_steps_ = 0;

  DeliveryBitmap bitmap_;
  std::int64_t committed_steps_ = 0;
  int committed_phase_ = 0;
  std::int64_t records_ = 0;
  bool torn_tail_ = false;

  /// Every delivery with the flat step it was recorded in, journal
  /// order — the source for uncommitted_deliveries().
  struct DeliveryEntry {
    std::int64_t flat_step;
    Rank dest;
    Rank origin;
  };
  std::vector<DeliveryEntry> deliveries_;

  std::vector<std::byte> bytes_;
};

/// Incremental durability sink for one journal file. The first sync()
/// rewrites the file from scratch (truncating any stale or torn
/// on-disk content — important on resume, where the file may still
/// hold a torn tail the loaded journal dropped); every later sync()
/// appends only the bytes recorded since, writing straight out of the
/// journal's own buffer, so a flush costs O(new bytes) instead of
/// O(journal) and copies nothing. A journal whose byte stream shrank
/// (rebound to a new exchange) triggers a fresh rewrite. A sink
/// follows one journal at a time.
class JournalFileSink {
 public:
  explicit JournalFileSink(std::string path) : path_(std::move(path)) {}

  /// Persists everything the journal has recorded so far.
  void sync(const ExchangeJournal& journal);

  const std::string& path() const { return path_; }
  std::int64_t appends() const { return appends_; }
  std::int64_t rewrites() const { return rewrites_; }
  std::int64_t bytes_written() const { return bytes_written_; }

 private:
  std::string path_;
  std::size_t synced_ = 0;
  bool wrote_ = false;
  std::int64_t appends_ = 0;
  std::int64_t rewrites_ = 0;
  std::int64_t bytes_written_ = 0;
};

/// Simulated process death injected into a journaled run: the step's
/// deliveries may or may not have been flushed (after_flush), its
/// commit marker never is. phase == 0 disables.
struct CrashPoint {
  int phase = 0;  ///< 1-based phase to die in; 0 = never
  int step = 1;   ///< 1-based step within the phase
  bool after_flush = true;

  bool armed() const { return phase > 0; }
};

/// Raised by a journaled run when its CrashPoint fires. The journal the
/// caller passed in retains everything flushed before the "death".
class ExchangeCrashError : public std::runtime_error {
 public:
  ExchangeCrashError(int phase, int step, const std::string& what)
      : std::runtime_error(what), phase_(phase), step_(step) {}
  int phase() const { return phase_; }
  int step() const { return step_; }

 private:
  int phase_;
  int step_;
};

/// Accounting of one journaled run, fresh or resumed.
struct ResumeReport {
  bool resumed = false;                     ///< journal had prior progress
  std::int64_t committed_steps_at_start = 0;
  int committed_phase_at_start = 0;
  std::int64_t delivered_at_start = 0;      ///< durable parcels on entry (self included)
  std::int64_t materialized = 0;            ///< flushed-uncommitted parcels restored at dests
  std::int64_t replayed_parcels = 0;        ///< parcel moves recomputed locally (no wire)
  std::int64_t sent_parcels = 0;            ///< parcel transmissions on the wire this run
  std::int64_t duplicates_dropped = 0;      ///< re-received already-durable parcels discarded
  std::int64_t journal_flushes = 0;         ///< flush callback invocations

  std::string summary() const;
};

/// Hooks and injections for a journaled run.
struct JournalRunOptions {
  CrashPoint crash;
  /// Cooperative cancel, polled between a step's journal flush and its
  /// commit marker (the worst-case race for the resume path). Throws
  /// ExchangeCancelledError (runtime/watchdog.hpp) via the runner.
  const std::atomic<bool>* cancel = nullptr;
  /// Durability hook: called after every appended record batch with the
  /// journal in its current (flushed) state. Persist encode() here
  /// (JournalFileSink::sync appends incrementally).
  std::function<void(const ExchangeJournal&)> flush;
  Recorder* obs = nullptr;
  /// Optional external frame pool (a private arena when null); lets
  /// frames and the arena's statistics survive across exchanges. Live
  /// steps of trivially copyable payloads run through the framed
  /// stepper, as torexd sessions do: sealed TOX3 frames, verified and
  /// appended to each receiver's buffer. Other payload types move parcel
  /// structs, and replayed steps never touch the wire either way.
  WireArena* wire = nullptr;
};

namespace detail {

void throw_journal_cancelled(int phase, int step);
/// The direct delta's cancel: it has no steps, so it names the last
/// origin whose deliveries were flushed.
void throw_direct_delta_cancelled(Rank origin, Rank num_nodes);

/// Resuming a journal that already covers the whole exchange: nothing
/// crosses the wire; rebuild the delivered buffers from the seed.
template <typename T>
ParcelBuffers<T> rebuild_complete(Rank N, ParcelBuffers<T> buffers, ResumeReport& report) {
  ParcelBuffers<T> out(static_cast<std::size_t>(N));
  for (Rank origin = 0; origin < N; ++origin) {
    auto& src = buffers[static_cast<std::size_t>(origin)];
    for (auto& parcel : src) {
      if (parcel.block.dest != origin) ++report.materialized;
      out[static_cast<std::size_t>(parcel.block.dest)].push_back(std::move(parcel));
    }
    src.clear();
  }
  check_parcel_postcondition(N, out);
  return out;
}

inline void journal_flush(ExchangeJournal& journal, const JournalRunOptions& options,
                          ResumeReport& report) {
  if (options.flush) options.flush(journal);
  ++report.journal_flushes;
}

/// Requires `journal` bound and matching the schedule's geometry.
void require_journal_matches(const SuhShinAape& algo, const ExchangeJournal& journal);

/// The prologue both journaled runs share: requires the canonical seed,
/// binds an unbound journal to the schedule (a bound one must match
/// it), and starts `report` from the journal's durable progress.
/// Returns the run's recorder: options.obs when enabled, else null.
template <typename T>
Recorder* open_journaled_run(const SuhShinAape& algo, const ParcelBuffers<T>& buffers,
                             ExchangeJournal& journal, const JournalRunOptions& options,
                             ResumeReport& report) {
  require_canonical_parcel_seed(algo.shape().num_nodes(), buffers);
  if (!journal.bound()) {
    journal = ExchangeJournal(algo.shape(), algo.num_phases(), algo.total_steps());
  }
  require_journal_matches(algo, journal);
  report = ResumeReport{};
  report.resumed = !journal.fresh();
  report.committed_steps_at_start = journal.committed_steps();
  report.committed_phase_at_start = journal.committed_phase();
  report.delivered_at_start = journal.delivered_parcels();
  return options.obs != nullptr && options.obs->enabled() ? options.obs : nullptr;
}

/// The write-ahead tail of one live step, shared by
/// exchange_payloads_journaled and SessionExchange. Node p's arrivals
/// of the step sit at buffers[p][received_at[p], end). In order:
///  1. collect each arrival's (dest, origin) pair into `arrivals`,
///     dropping, and passing to `dropped`, any whose delivery is
///     already durable: the seed twin of a materialized parcel arriving
///     again (exactly-once);
///  2. record the pairs, when there are any, as one kDeliveries record;
///  3. the crash/cancel window: `window(false)` runs before the record,
///     `window(true)` between it and the commit, and either may throw;
///  4. append the step's commit marker.
template <typename T, typename Dropped, typename Window>
void write_ahead_step(ExchangeJournal& journal, std::int64_t flat_step, ParcelBuffers<T>& buffers,
                      const std::vector<std::size_t>& received_at,
                      std::vector<std::pair<Rank, Rank>>& arrivals, Dropped&& dropped,
                      Window&& window) {
  arrivals.clear();
  for (std::size_t p = 0; p < buffers.size(); ++p) {
    const auto dest = static_cast<Rank>(p);
    auto& buf = buffers[p];
    std::size_t keep = received_at[p];
    for (std::size_t i = keep; i < buf.size(); ++i) {
      const Block b = buf[i].block;
      if (b.dest == dest && b.origin != dest) {
        if (journal.delivered().test(dest, b.origin)) {
          dropped(dest, b.origin);
          continue;
        }
        arrivals.emplace_back(dest, b.origin);
      }
      if (keep != i) buf[keep] = std::move(buf[i]);
      ++keep;
    }
    buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(keep), buf.end());
  }
  window(false);
  if (!arrivals.empty()) journal.record_deliveries(flat_step, arrivals);
  window(true);
  journal.commit_step(flat_step);
}

}  // namespace detail

/// Runs the schedule over `buffers` (canonical all-to-all seed) with
/// write-ahead journaling into `journal`. A bound journal with prior
/// progress triggers delta resume: the committed prefix is replayed
/// locally, flushed-but-uncommitted deliveries are materialized from the
/// seed, and only the remaining steps touch the wire; re-received
/// durable parcels are dropped (report.duplicates_dropped). An unbound
/// journal is bound to the schedule's geometry first. Requires T
/// copyable (materialization duplicates payloads on purpose).
template <typename T>
ParcelBuffers<T> exchange_payloads_journaled(const SuhShinAape& algo, ParcelBuffers<T> buffers,
                                             ExchangeJournal& journal,
                                             const JournalRunOptions& options,
                                             ResumeReport& report) {
  const Rank N = algo.shape().num_nodes();
  Recorder* obs = detail::open_journaled_run(algo, buffers, journal, options, report);
  SpanGuard run_span(obs, "journaled_exchange");

  constexpr bool framed = std::is_trivially_copyable_v<Parcel<T>>;
  WireArena local_arena;
  WireArena& arena = options.wire != nullptr ? *options.wire : local_arena;
  const WirePoolStats wire_stats_before = arena.stats();

  if (journal.exchange_complete()) {
    return detail::rebuild_complete(N, std::move(buffers), report);
  }

  // Materialize flushed-but-uncommitted deliveries from the canonical
  // seed: the payload of (origin -> dest) sits in origin's buffer. The
  // seed copy stays put — it re-travels the re-run steps exactly as a
  // real sender that never saw the ack would re-send it, and arrives as
  // a duplicate the bitmap catches.
  const auto uncommitted = journal.uncommitted_deliveries();
  for (const auto& [dest, origin] : uncommitted) {
    if (origin == dest) continue;
    const auto& src = buffers[static_cast<std::size_t>(origin)];
    const auto seed = std::find_if(src.begin(), src.end(), [&](const Parcel<T>& parcel) {
      return parcel.block.origin == origin && parcel.block.dest == dest;
    });
    TOREX_CHECK(seed != src.end(), "journaled delivery missing from the canonical seed");
    buffers[static_cast<std::size_t>(dest)].push_back(*seed);
    ++report.materialized;
  }

  ParcelBuffers<T> inbox(static_cast<std::size_t>(N));  // wire-free steps only
  std::vector<std::size_t> received_at(static_cast<std::size_t>(N));
  std::vector<std::pair<Rank, Rank>> arrivals;
  detail::FramedStepper<T> stepper(algo, arena, detail::FramePlacement::kAppend, obs);
  std::int64_t flat_step = 0;  // 0-based global step index

  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    SpanGuard phase_span(obs, "journal_phase", -1, phase);
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step, ++flat_step) {
      const bool replay = flat_step < report.committed_steps_at_start;
      SpanGuard step_span(obs, replay ? "journal_replay_step" : "journal_step", -1, phase, step);

      // A materialized duplicate already sitting on its destination
      // never matches should_send (the predicates compare node vs
      // dest coordinates), so only genuine in-flight parcels move.
      // Committed steps replay locally and journal nothing. Live sends
      // of trivially copyable parcels cross the internal wire (no
      // tamperer, no retransmits) as sealed TOX3 frames appended to each
      // receiver's buffer.
      if (replay) {
        report.replayed_parcels += static_cast<std::int64_t>(
            detail::move_step(algo, phase, step, buffers, inbox, received_at));
        continue;
      }
      if constexpr (framed) {
        report.sent_parcels += static_cast<std::int64_t>(stepper.run(buffers, phase, step));
        received_at = stepper.received_at();
      } else {
        report.sent_parcels += static_cast<std::int64_t>(
            detail::move_step(algo, phase, step, buffers, inbox, received_at));
      }

      // The injected crash fires on its side of the flush; the
      // cooperative cancel window sits between flush and commit.
      const bool crash_here = options.crash.armed() && options.crash.phase == phase &&
                              options.crash.step == step;
      detail::write_ahead_step(
          journal, flat_step, buffers, received_at, arrivals,
          [&](Rank dest, Rank origin) {
            ++report.duplicates_dropped;
            if (obs != nullptr) {
              obs->instant("duplicate_dropped", dest, phase, step,
                           static_cast<std::int64_t>(origin));
            }
          },
          [&](bool flushed) {
            if (flushed && !arrivals.empty()) {
              detail::journal_flush(journal, options, report);
              if (obs != nullptr) {
                obs->instant("journal_flush", -1, phase, step,
                             static_cast<std::int64_t>(arrivals.size()));
              }
            }
            if (crash_here && options.crash.after_flush == flushed) {
              throw ExchangeCrashError(phase, step,
                                       std::string("injected crash ") +
                                           (flushed ? "after" : "before") +
                                           " journal flush (phase " + std::to_string(phase) +
                                           ", step " + std::to_string(step) + ")");
            }
            if (flushed && options.cancel != nullptr &&
                options.cancel->load(std::memory_order_relaxed)) {
              detail::throw_journal_cancelled(phase, step);
            }
          });
      detail::journal_flush(journal, options, report);
    }
    if (phase > journal.committed_phase()) {
      journal.commit_phase(phase);
      detail::journal_flush(journal, options, report);
    }
  }

  detail::check_parcel_postcondition(N, buffers);
  TOREX_CHECK(journal.exchange_complete(), "journal incomplete after a finished exchange");
  if (obs != nullptr) {
    obs->metrics().counter("journal.records").add(journal.records());
    obs->metrics().counter("resume.sent_parcels").add(report.sent_parcels);
    obs->metrics().counter("resume.replayed_parcels").add(report.replayed_parcels);
    obs->metrics().counter("resume.duplicates_dropped").add(report.duplicates_dropped);
    if constexpr (framed) {
      detail::publish_wire_metrics(obs, wire_stats_delta(arena.stats(), wire_stats_before));
    }
  }
  return buffers;
}

/// Degraded-mode journaled delta: delivers every still-undelivered
/// parcel straight to its destination (no schedule), journaling one
/// deliveries record per origin. Used when the recovery chain has
/// abandoned the Suh-Shin schedule (remap/direct plans) but the journal
/// must stay the source of truth so a later resume — scheduled or
/// direct — sends strictly less. Already-durable parcels are
/// materialized, not re-sent.
template <typename T>
ParcelBuffers<T> exchange_payloads_direct_journaled(const SuhShinAape& algo,
                                                    ParcelBuffers<T> buffers,
                                                    ExchangeJournal& journal,
                                                    const JournalRunOptions& options,
                                                    ResumeReport& report) {
  const Rank N = algo.shape().num_nodes();
  Recorder* obs = detail::open_journaled_run(algo, buffers, journal, options, report);
  SpanGuard run_span(obs, "journaled_direct_delta");

  if (journal.exchange_complete()) {
    return detail::rebuild_complete(N, std::move(buffers), report);
  }

  // The direct path ignores step structure entirely: all delivery
  // records land on the sentinel flat step total_steps(), and only the
  // final phase is committed. A scheduled resume of such a journal sees
  // zero committed steps and treats every durable pair as
  // flushed-but-uncommitted — materialize + dedup — which is correct.
  ParcelBuffers<T> out(static_cast<std::size_t>(N));
  std::vector<std::pair<Rank, Rank>> new_deliveries;
  for (Rank origin = 0; origin < N; ++origin) {
    new_deliveries.clear();
    auto& src = buffers[static_cast<std::size_t>(origin)];
    for (auto& parcel : src) {
      const Rank dest = parcel.block.dest;
      if (journal.delivered().test(dest, origin)) {
        ++report.materialized;
      } else if (dest != origin) {
        ++report.sent_parcels;
        new_deliveries.emplace_back(dest, origin);
      }
      out[static_cast<std::size_t>(dest)].push_back(std::move(parcel));
    }
    src.clear();
    if (!new_deliveries.empty()) {
      journal.record_deliveries(journal.total_steps(), new_deliveries);
      detail::journal_flush(journal, options, report);
    }
    if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
      detail::throw_direct_delta_cancelled(origin, N);
    }
  }
  while (journal.committed_steps() < journal.total_steps()) {
    journal.commit_step(journal.committed_steps());
  }
  for (int phase = journal.committed_phase() + 1; phase <= journal.num_phases(); ++phase) {
    journal.commit_phase(phase);
  }
  detail::journal_flush(journal, options, report);

  detail::check_parcel_postcondition(N, out);
  TOREX_CHECK(journal.exchange_complete(), "journal incomplete after a finished direct delta");
  if (obs != nullptr) {
    obs->metrics().counter("resume.sent_parcels").add(report.sent_parcels);
    obs->metrics().counter("resume.duplicates_dropped").add(report.duplicates_dropped);
  }
  return out;
}

}  // namespace torex
