// Shared plumbing of the torex benchmark: seeded inputs, wall clocks,
// percentiles, the allocation counter, the per-layer stopwatch used by
// the traced replays, and the result line run.py forwards.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/crc32.hpp"

namespace perfbench {

/// What one benchmark process runs (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// SplitMix64: every input of a run (payload matrices, corruption
/// channels, the arrival plan) is drawn from one of these, seeded from
/// --seed.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double uniform() { return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740993.0; }
};

/// Stateless seeded word: the same (seed, a, b, c) always gives the same
/// value, so an oracle can recompute a payload instead of storing it.
std::int64_t mix_word(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }
double mean(const std::vector<double>& samples);

/// Process-wide operator-new counters (this binary replaces the global
/// allocation functions; see common.cpp).
std::int64_t alloc_count();
std::int64_t alloc_bytes();

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result of one run: the JSON object printed as the last line of
/// standard output.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (printed to stderr) and marks
  /// the run incorrect.
  void check(bool ok, const std::string& what);
};

// --- Quiet-core timing -----------------------------------------------------
//
// On a shared host each vCPU is slowed by co-tenants for hundreds of
// milliseconds at a time: a busy SMT sibling on the host cuts the
// throughput of this code by ~1.5x, and package load lowers the turbo
// clock in ~3.5% steps. The same call's wall time therefore flips
// between levels, and plain run medians moved by 30% from run to run.
// The end-to-end loops
//  * bracket their operations with a short, fixed, throughput-bound probe
//    kernel that touches no memory: the operations between two probes
//    form a segment whose contention level is the slower of its probes;
//  * at every probe, probe each CPU this process may run on and move to
//    the quietest (the process stays single-threaded);
//  * report the timing metrics over the quiet samples — those whose
//    segments all lie within kQuietTolerance of the run's fastest probe,
//    topped up with the next-quietest to a minimum count — each scaled to
//    the reference core speed: value x kReferenceProbeNs / its level.
// The scaling removes what is left of the slowdown on the quiet samples
// (a run in which no core ever reached full speed would otherwise read
// ~10% slow throughout). Raw percentiles are printed beside the metrics.
// Correctness checks, counts and completed_share use every operation.

/// The probe kernel's wall time on an idle core of the benchmark host (a
/// KVM guest on a 4-vCPU Intel Xeon slice): the floor of its readings
/// over many runs. It fixes the core speed the timings are reported at.
inline constexpr double kReferenceProbeNs = 268'000.0;

/// Wall time of one run of the contention probe kernel, ns.
double contention_probe_ns();

inline constexpr double kQuietTolerance = 1.05;

/// The stretch of a run between two probes.
struct Segment {
  double level_ns = 0.0;     // contention level: slower of the two probes
  double busy_s = 0.0;       // wall time inside timed operations
  std::int64_t parcels = 0;  // parcels delivered by operations that ended here
};

/// One timed sample and the segments it ran across.
struct Sample {
  double value = 0.0;
  std::size_t first_segment = 0;
  std::size_t last_segment = 0;
};

/// A measured run of `seconds`, probed after the first operation that
/// ends at least `probe_every_s` after the previous probe (0: after
/// every operation).
class QuietRun {
 public:
  QuietRun(double seconds, double probe_every_s);
  ~QuietRun();
  QuietRun(const QuietRun&) = delete;
  QuietRun& operator=(const QuietRun&) = delete;

  bool more() const { return now_ns() < deadline_; }
  std::size_t segment() const { return segments_.size() - 1; }
  Segment& current() { return segments_.back(); }
  /// Records an operation's wall time; it ran from `first_segment` to
  /// the current one.
  void add_op(double value, std::size_t first_segment) {
    ops_.push_back(Sample{value, first_segment, segment()});
  }
  void add_setup(double seconds) { setups_.push_back(Sample{seconds, segment(), segment()}); }
  /// Call after each operation: once probe_every_s has passed since the
  /// last probe, closes the segment, moves to the quietest CPU, and
  /// opens the next segment there.
  void settle();
  /// Probes and closes the last segment.
  void finish();

  /// The quiet samples of `samples` — those whose segments all lie
  /// within kQuietTolerance of the fastest probe, then the next-quietest
  /// until at least `min_samples` (when the run measured that many) —
  /// scaled to the reference core speed. `raw` receives them unscaled.
  std::vector<double> quiet(const std::vector<Sample>& samples, std::size_t min_samples,
                            std::vector<double>* raw = nullptr) const;
  const std::vector<Sample>& ops() const { return ops_; }
  const std::vector<Sample>& setups() const { return setups_; }
  /// Throughput over the quiet segments (topped up with the
  /// next-quietest to at least `min_busy_s` of timed work): parcels per
  /// busy second at the reference core speed.
  double quiet_parcels_per_s(double min_busy_s) const;
  /// One line: how many segments and samples were quiet, probe levels,
  /// CPU moves.
  std::string describe(std::size_t quiet_ops) const;

 private:
  /// Given the current CPU's probe, probes every other allowed CPU and
  /// moves to the quietest; returns the level of the CPU it settles on.
  double place(double current_level);
  double level_of(const Sample& s) const;

  std::int64_t deadline_ = 0;
  std::int64_t probe_every_ns_;
  std::int64_t last_probe_at_ = 0;
  double open_level_ns_ = 0.0;
  double best_ns_ = 0.0;
  std::vector<int> cpus_;  // CPUs this process may run on
  int cpu_ = -1;           // CPU it is pinned to (-1: not pinned)
  std::int64_t moves_ = 0;
  std::vector<Segment> segments_;
  std::vector<Sample> ops_;
  std::vector<Sample> setups_;
};

/// The timing metrics of the quiet samples: setup_s (median set-up),
/// call_ms_p50/p90 (op samples are in ms) and parcels_per_s.
void add_quiet_timings(Result& result, const QuietRun& run, std::size_t min_ops);

/// completed_share (operations that completed correctly / operations
/// attempted or offered) and peak_rss_mib.
void add_outcome_metrics(Result& result, double completed_share);

/// One timed call: its wall time, checks excluded (ns < 0: it threw),
/// and whether its output checked correct.
struct Timed {
  std::int64_t ns = -1;
  bool ok = false;
};

/// The end-to-end loop of a closed-loop workload: one caller issuing
/// back-to-back calls for options.seconds, with a fresh set-up every
/// `setup_every_ns`. `setup()` times constructing a new communicator
/// through the end of its first call (not counted as a call); `call(i)`
/// times call i. Adds every end-to-end metric.
template <typename Setup, typename Call>
void run_closed_loop(const Options& options, std::int64_t setup_every_ns, std::size_t min_calls,
                     std::int64_t parcels_per_call, Setup&& setup, Call&& call, Result& result) {
  QuietRun run(options.seconds, /*probe_every_s=*/0.0);
  std::int64_t next_setup = 0;
  for (std::size_t i = 0; run.more(); run.settle()) {
    if (now_ns() >= next_setup) {
      const Timed t = setup();
      result.check(t.ok, "a set-up call failed its checks");
      run.add_setup(static_cast<double>(t.ns) * 1e-9);
      next_setup = now_ns() + setup_every_ns;
      continue;
    }
    ++result.attempted;
    const Timed t = call(i++);
    if (t.ns >= 0) run.add_op(static_cast<double>(t.ns) * 1e-6, run.segment());
    if (t.ok) {
      run.current().busy_s += static_cast<double>(t.ns) * 1e-9;
      run.current().parcels += parcels_per_call;
    } else {
      ++result.failed;
    }
  }
  run.finish();
  result.check(result.failed == 0, "a call threw or failed its checks");
  add_quiet_timings(result, run, min_calls);
  add_outcome_metrics(result, static_cast<double>(result.attempted - result.failed) /
                                  static_cast<double>(result.attempted));
}

/// The metric catalogue: every end-to-end metric (trace off) and every
/// per-layer metric (trace on) with its unit. finish() fills per-layer
/// rows a workload does not exercise with 0, rejects names outside the
/// catalogue, and requires every end-to-end row.
void finish(Result& result, bool trace);

/// Prints the human-readable metric table and the JSON result line.
void print_result(const Result& result);

/// Environment block: host, compiler, build, CRC backend, caches, and
/// the workload's working set against them. Returns false (after
/// saying why) when the build is not optimised.
bool print_environment(const std::string& workload, const std::string& shape,
                       std::int64_t parcels_per_op, double working_set_bytes);

// --- Traced replay ------------------------------------------------------

/// The layers a replay attributes time to. Each is a call (or a short
/// sequence of calls) into one public torex function.
enum Layer : int {
  kSeed,       // seed_parcels_strided
  kRearrange,  // layout keys + stable sort at phase boundaries
  kScan,       // collect_send_runs (+ should_send)
  kEncode,     // frame lease + encode_multi_run_frame
  kVerify,     // decode_multi_run_frame
  kSplice,     // hole-splice scatter / append_to of verified runs
  kCompact,    // erase_runs
  kJournal,    // ExchangeJournal record_deliveries + commit_step/phase
  kScatter,    // scatter_parcels_strided into the receive rows
  kLayerCount,
};

/// Per-layer wall time of one replayed operation.
struct LayerTimes {
  std::array<std::int64_t, kLayerCount> ns{};

  template <typename F>
  decltype(auto) time(Layer layer, F&& f) {
    const std::int64_t t0 = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      ns[static_cast<std::size_t>(layer)] += now_ns() - t0;
    } else {
      auto out = f();
      ns[static_cast<std::size_t>(layer)] += now_ns() - t0;
      return out;
    }
  }
  std::int64_t total() const;
};

/// Work counts of one replayed operation. Exact: two replays of the
/// same input must agree field for field.
struct ReplayCounts {
  std::int64_t should_send_calls = 0;
  std::int64_t seeded_parcels = 0;
  std::int64_t rearranged_parcels = 0;
  std::int64_t rearranged_bytes = 0;
  std::int64_t scanned_parcels = 0;
  std::int64_t messages = 0;       // frames encoded, retransmissions included
  std::int64_t runs = 0;           // runs across those frames
  std::int64_t encoded_bytes = 0;  // frame bytes produced
  std::int64_t verified_bytes = 0; // frame bytes verified
  std::int64_t rejects = 0;        // frames the verifier refused
  std::int64_t spliced_bytes = 0;  // parcel bytes spliced on receive
  std::int64_t compacted_parcels = 0;
  std::int64_t scattered_parcels = 0;
  std::int64_t journal_pairs = 0;
  std::int64_t journal_bytes = 0;
  std::int64_t bytes_copied = 0;   // gather + splice, as WirePoolStats counts it

  bool operator==(const ReplayCounts&) const = default;
};

/// Times Crc32::update over one encoded frame, in isolation from the
/// replay (the crc.ns_per_byte probe).
struct CrcProbe {
  std::int64_t ns = 0;
  std::int64_t bytes = 0;
  std::uint32_t sink = 0;

  void run(const std::vector<std::byte>& frame) {
    const std::int64_t t0 = now_ns();
    torex::Crc32 crc;
    crc.update(frame.data(), frame.size());
    sink ^= crc.value();
    ns += now_ns() - t0;
    bytes += static_cast<std::int64_t>(frame.size());
  }
};

/// Returns 1 (and flags it on stderr) when a count differs between two
/// runs of the same code on the same input, else 0.
std::int64_t flag_if_differs(const char* name, std::int64_t a, std::int64_t b);

/// Number of count fields that differ between two replays of the same
/// input (each such field is also flagged on stderr).
std::int64_t unstable_fields(const ReplayCounts& a, const ReplayCounts& b);

/// Median over repeated replays of each layer's time.
LayerTimes median_layers(const std::vector<LayerTimes>& samples);

/// Adds the per-layer rows shared by every workload's traced run.
/// `real_op_ns` is the median untraced wall time of the operation the
/// replay reproduces; `replay_ns` the replay's own wall time.
void add_layer_metrics(Result& result, const LayerTimes& layers, const ReplayCounts& counts,
                       const CrcProbe& crc, double real_op_ns, double replay_ns);

}  // namespace perfbench
