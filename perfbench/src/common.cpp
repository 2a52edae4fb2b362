#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <set>

// Global allocation counter: every operator new in this process (the
// library's included) bumps these, so alloc.count_per_call is ground
// truth rather than an estimate. Relaxed atomics: the benchmark is
// single-threaded; the atomics only keep the replacement well-defined.
namespace {
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace {

struct CatalogueEntry {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end" list.
constexpr CatalogueEntry kEndToEnd[] = {
    {"setup_s", "s"},          {"call_ms_p50", "ms"}, {"call_ms_p90", "ms"},
    {"parcels_per_s", "1/s"},  {"completed_share", "ratio"}, {"peak_rss_mib", "MiB"},
};

// Must match BENCHMARK.json's "per_layer" list.
constexpr CatalogueEntry kPerLayer[] = {
    {"aape.build_ms", "ms"},
    {"aape.should_send_calls", "count"},
    {"rearrange.ns_per_byte", "ns/B"},
    {"rearrange.parcels", "count"},
    {"rearrange.share", "ratio"},
    {"scan.ns_per_parcel", "ns"},
    {"encode.ns_per_byte", "ns/B"},
    {"encode.messages", "count"},
    {"encode.runs", "count"},
    {"encode.bytes", "B"},
    {"verify.ns_per_byte", "ns/B"},
    {"verify.rejects", "count"},
    {"splice.ns_per_byte", "ns/B"},
    {"compact.ns_per_parcel", "ns"},
    {"crc.ns_per_byte", "ns/B"},
    {"seed.ns_per_parcel", "ns"},
    {"scatter.ns_per_parcel", "ns"},
    {"journal.ns_per_pair", "ns"},
    {"journal.bytes_per_session", "B"},
    {"arena.pool_hits", "count"},
    {"arena.pool_misses", "count"},
    {"arena.bytes_copied", "B"},
    {"alloc.count_per_call", "count"},
    {"alloc.kib_per_call", "KiB"},
    {"integrity.corrupted", "count"},
    {"integrity.retransmits", "count"},
    {"svc.submit_us", "us"},
    {"svc.phase_us_p50", "us"},
    {"svc.sched_us", "us"},
    {"svc.phases_executed", "count"},
    {"svc.dispatch_us_p50", "us"},
    {"svc.dispatch_us_p99", "us"},
    {"svc.sessions_per_s", "1/s"},
    {"svc.latency_vt_p50", "vt"},
    {"svc.latency_vt_p99", "vt"},
    {"svc.shed", "count"},
    {"svc.deadline_missed", "count"},
    {"obs.recorder_overhead_pct", "%"},
    {"replay.residual_share", "ratio"},
    {"replay.unstable_counts", "count"},
    {"trace.overhead_pct", "%"},
};

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "null";
  return std::string(buf, end);
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Cache size of the given level from sysfs ("" when unknown).
std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (read_first_line(dir + "/level") != std::to_string(level)) continue;
    const std::string type = read_first_line(dir + "/type");
    if (type == "Instruction") continue;
    return read_first_line(dir + "/size");
  }
  return "";
}

/// "1024K" / "32M" -> bytes (0 when unparseable).
double cache_bytes(const std::string& text) {
  if (text.empty()) return 0.0;
  double scale = 1.0;
  std::string digits = text;
  const char suffix = text.back();
  if (suffix == 'K') scale = 1024.0;
  if (suffix == 'M') scale = 1024.0 * 1024.0;
  if (suffix == 'K' || suffix == 'M') digits.pop_back();
  return std::atof(digits.c_str()) * scale;
}

}  // namespace

std::int64_t mix_word(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  SplitMix64 rng{seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL) ^
                 (c * 0x165667b19e3779f9ULL)};
  return static_cast<std::int64_t>(rng.next());
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}


double contention_probe_ns() {
  // Eight independent multiply-add chains: throughput-bound, so it slows
  // exactly when the core's execution resources are shared, and it
  // touches no memory. About 0.3 ms on an idle core.
  static volatile std::uint64_t sink = 0;
  std::uint64_t h[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 100000; ++i) {
    for (int j = 0; j < 8; ++j) {
      h[j] = h[j] * 6364136223846793005ULL + 1442695040888963407ULL + (h[(j + 1) & 7] >> 7);
    }
  }
  const auto dt = static_cast<double>(now_ns() - t0);
  sink = sink + h[0];
  return dt;
}

namespace {

constexpr std::size_t kMinQuietSetups = 3;
constexpr double kMinQuietBusySeconds = 1.0;  // parcels_per_s measures at least this much work

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

QuietRun::QuietRun(double seconds, double probe_every_s)
    : probe_every_ns_(static_cast<std::int64_t>(probe_every_s * 1e9)) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  if (cpus_.size() > 1) {
    cpu_ = cpus_.front();
    pin_to(cpu_);
  }
  open_level_ns_ = place(contention_probe_ns());
  last_probe_at_ = now_ns();
  deadline_ = last_probe_at_ + static_cast<std::int64_t>(seconds * 1e9);
  segments_.emplace_back();
}

QuietRun::~QuietRun() {
  if (cpu_ < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double QuietRun::place(double current_level) {
  if (best_ns_ == 0.0 || current_level < best_ns_) best_ns_ = current_level;
  double level = current_level;
  if (cpu_ < 0) return level;
  int quietest = cpu_;
  for (int cpu : cpus_) {
    if (cpu == cpu_) continue;
    pin_to(cpu);
    const double l = contention_probe_ns();
    if (l < level) {
      level = l;
      quietest = cpu;
    }
  }
  if (quietest != cpu_) ++moves_;
  cpu_ = quietest;
  pin_to(cpu_);
  if (level < best_ns_) best_ns_ = level;
  return level;
}

void QuietRun::settle() {
  if (now_ns() - last_probe_at_ < probe_every_ns_) return;
  // The closing probe runs on the CPU the segment ran on; the next
  // segment opens on the quietest CPU.
  const double closing = contention_probe_ns();
  segments_.back().level_ns = std::max(open_level_ns_, closing);
  open_level_ns_ = place(closing);
  last_probe_at_ = now_ns();
  segments_.emplace_back();
}

void QuietRun::finish() {
  const double closing = contention_probe_ns();
  segments_.back().level_ns = std::max(open_level_ns_, closing);
  if (closing < best_ns_) best_ns_ = closing;
}

double QuietRun::level_of(const Sample& s) const {
  double level = 0.0;
  for (std::size_t i = s.first_segment; i <= s.last_segment; ++i) {
    level = std::max(level, segments_[i].level_ns);
  }
  return level;
}

std::vector<double> QuietRun::quiet(const std::vector<Sample>& samples, std::size_t min_samples,
                                    std::vector<double>* raw) const {
  std::vector<std::pair<double, double>> by_level;  // (level, value)
  by_level.reserve(samples.size());
  for (const Sample& s : samples) by_level.emplace_back(level_of(s), s.value);
  std::stable_sort(by_level.begin(), by_level.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> out;
  for (const auto& [level, value] : by_level) {
    if (level > best_ns_ * kQuietTolerance && out.size() >= min_samples) break;
    out.push_back(value * kReferenceProbeNs / level);
    if (raw != nullptr) raw->push_back(value);
  }
  return out;
}

double QuietRun::quiet_parcels_per_s(double min_busy_s) const {
  std::vector<const Segment*> order;
  for (const Segment& s : segments_) {
    if (s.busy_s > 0) order.push_back(&s);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Segment* a, const Segment* b) { return a->level_ns < b->level_ns; });
  double busy_s = 0.0;      // measured
  double reference_s = 0.0; // at the reference core speed
  std::int64_t parcels = 0;
  for (const Segment* s : order) {
    if (s->level_ns > best_ns_ * kQuietTolerance && busy_s >= min_busy_s) break;
    busy_s += s->busy_s;
    reference_s += s->busy_s * kReferenceProbeNs / s->level_ns;
    parcels += s->parcels;
  }
  return reference_s > 0 ? static_cast<double>(parcels) / reference_s : 0.0;
}

std::string QuietRun::describe(std::size_t quiet_ops) const {
  std::vector<double> levels;
  std::size_t quiet_segments = 0;
  for (const Segment& s : segments_) {
    levels.push_back(s.level_ns * 1e-3);
    if (s.level_ns <= best_ns_ * kQuietTolerance) ++quiet_segments;
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "# quiet: %zu of %zu segments, %zu of %zu operations kept; contention probe best "
                "%.0f us, median %.0f us; %lld CPU moves over %zu CPUs",
                quiet_segments, segments_.size(), quiet_ops, ops_.size(), best_ns_ * 1e-3,
                median(levels), static_cast<long long>(moves_), cpus_.size());
  return buf;
}

void add_quiet_timings(Result& result, const QuietRun& run, std::size_t min_ops) {
  std::vector<double> raw_ops, raw_setups;
  const std::vector<double> ops = run.quiet(run.ops(), min_ops, &raw_ops);
  const std::vector<double> setups = run.quiet(run.setups(), kMinQuietSetups, &raw_setups);
  std::printf("%s\n", run.describe(ops.size()).c_str());
  std::printf("# raw wall time of the quiet samples: call p50 %.6g ms, p90 %.6g ms; set-up median "
              "%.6g s (reported at a %.0f us reference probe)\n",
              percentile(raw_ops, 0.5), percentile(raw_ops, 0.9), median(raw_setups),
              kReferenceProbeNs * 1e-3);
  result.check(!setups.empty() && !ops.empty(), "the run measured no set-up or no operation");
  result.add("setup_s", median(setups), "s");
  result.add("call_ms_p50", percentile(ops, 0.5), "ms");
  result.add("call_ms_p90", percentile(ops, 0.9), "ms");
  result.add("parcels_per_s", run.quiet_parcels_per_s(kMinQuietBusySeconds), "1/s");
}

void add_outcome_metrics(Result& result, double completed_share) {
  result.add("completed_share", completed_share, "ratio");
  result.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

std::int64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t alloc_bytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
  // mark of the process image that exec'd this one (e.g. run.py's
  // Python), VmHWM belongs to this address space alone.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  return 0.0;
}

void Result::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct) std::cerr << "CHECK FAILED: " << what << "\n";
  correct = false;
}

std::int64_t LayerTimes::total() const {
  std::int64_t sum = 0;
  for (std::int64_t v : ns) sum += v;
  return sum;
}

std::int64_t flag_if_differs(const char* name, std::int64_t a, std::int64_t b) {
  if (a == b) return 0;
  std::cerr << "FLAG: count " << name << " differs between two runs of the same code: " << a
            << " vs " << b << "\n";
  return 1;
}

std::int64_t unstable_fields(const ReplayCounts& a, const ReplayCounts& b) {
  return flag_if_differs("should_send_calls", a.should_send_calls, b.should_send_calls) +
         flag_if_differs("seeded_parcels", a.seeded_parcels, b.seeded_parcels) +
         flag_if_differs("rearranged_parcels", a.rearranged_parcels, b.rearranged_parcels) +
         flag_if_differs("scanned_parcels", a.scanned_parcels, b.scanned_parcels) +
         flag_if_differs("messages", a.messages, b.messages) +
         flag_if_differs("runs", a.runs, b.runs) +
         flag_if_differs("encoded_bytes", a.encoded_bytes, b.encoded_bytes) +
         flag_if_differs("verified_bytes", a.verified_bytes, b.verified_bytes) +
         flag_if_differs("rejects", a.rejects, b.rejects) +
         flag_if_differs("spliced_bytes", a.spliced_bytes, b.spliced_bytes) +
         flag_if_differs("compacted_parcels", a.compacted_parcels, b.compacted_parcels) +
         flag_if_differs("scattered_parcels", a.scattered_parcels, b.scattered_parcels) +
         flag_if_differs("journal_pairs", a.journal_pairs, b.journal_pairs) +
         flag_if_differs("journal_bytes", a.journal_bytes, b.journal_bytes) +
         flag_if_differs("bytes_copied", a.bytes_copied, b.bytes_copied);
}

LayerTimes median_layers(const std::vector<LayerTimes>& samples) {
  LayerTimes out;
  for (std::size_t l = 0; l < out.ns.size(); ++l) {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const LayerTimes& s : samples) v.push_back(static_cast<double>(s.ns[l]));
    out.ns[l] = static_cast<std::int64_t>(median(std::move(v)));
  }
  return out;
}

void add_layer_metrics(Result& result, const LayerTimes& layers, const ReplayCounts& c,
                       const CrcProbe& crc, double real_op_ns, double replay_ns) {
  const auto ns = [&](Layer l) { return static_cast<double>(layers.ns[static_cast<std::size_t>(l)]); };
  const auto per = [](double t, std::int64_t n) { return n > 0 ? t / static_cast<double>(n) : 0.0; };
  result.add("aape.should_send_calls", static_cast<double>(c.should_send_calls), "count");
  result.add("rearrange.ns_per_byte", per(ns(kRearrange), c.rearranged_bytes), "ns/B");
  result.add("rearrange.parcels", static_cast<double>(c.rearranged_parcels), "count");
  result.add("rearrange.share", replay_ns > 0 ? ns(kRearrange) / replay_ns : 0.0, "ratio");
  result.add("scan.ns_per_parcel", per(ns(kScan), c.scanned_parcels), "ns");
  result.add("encode.ns_per_byte", per(ns(kEncode), c.encoded_bytes), "ns/B");
  result.add("encode.messages", static_cast<double>(c.messages), "count");
  result.add("encode.runs", static_cast<double>(c.runs), "count");
  result.add("encode.bytes", static_cast<double>(c.encoded_bytes), "B");
  result.add("verify.ns_per_byte", per(ns(kVerify), c.verified_bytes), "ns/B");
  result.add("verify.rejects", static_cast<double>(c.rejects), "count");
  result.add("splice.ns_per_byte", per(ns(kSplice), c.spliced_bytes), "ns/B");
  result.add("compact.ns_per_parcel", per(ns(kCompact), c.compacted_parcels), "ns");
  result.add("crc.ns_per_byte", per(static_cast<double>(crc.ns), crc.bytes), "ns/B");
  result.add("seed.ns_per_parcel", per(ns(kSeed), c.seeded_parcels), "ns");
  result.add("scatter.ns_per_parcel", per(ns(kScatter), c.scattered_parcels), "ns");
  result.add("journal.ns_per_pair", per(ns(kJournal), c.journal_pairs), "ns");
  result.add("journal.bytes_per_session", static_cast<double>(c.journal_bytes), "B");
  const double layers_ns = static_cast<double>(layers.total());
  // The operation's end-to-end time as the sum of its layers plus the
  // residual the layers leave unaccounted for.
  static constexpr const char* kNames[kLayerCount] = {
      "seed", "rearrange", "scan", "encode", "verify", "splice", "compact", "journal", "scatter"};
  std::printf("# one operation, layer by layer (ms, median of the replays):");
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    std::printf(" %s %.4g +", kNames[l], static_cast<double>(layers.ns[l]) * 1e-6);
  }
  std::printf(" residual %.4g = real call %.4g\n", (real_op_ns - layers_ns) * 1e-6,
              real_op_ns * 1e-6);
  result.add("replay.residual_share", real_op_ns > 0 ? (real_op_ns - layers_ns) / real_op_ns : 0.0,
             "ratio");
  result.add("trace.overhead_pct",
             real_op_ns > 0 ? 100.0 * (replay_ns - real_op_ns) / real_op_ns : 0.0, "%");
}

void finish(Result& result, bool trace) {
  const CatalogueEntry* first = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const CatalogueEntry* last = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::set<std::string> seen;
  for (const Metric& m : result.metrics) {
    bool known = false;
    for (const CatalogueEntry* e = first; e != last; ++e) {
      if (m.name == e->name && m.unit == e->unit) known = true;
    }
    result.check(known, "metric outside the catalogue: " + m.name + " [" + m.unit + "]");
    result.check(seen.insert(m.name).second, "metric reported twice: " + m.name);
  }
  std::vector<Metric> ordered;
  for (const CatalogueEntry* e = first; e != last; ++e) {
    const auto it = std::find_if(result.metrics.begin(), result.metrics.end(),
                                 [&](const Metric& m) { return m.name == e->name; });
    if (it != result.metrics.end()) {
      ordered.push_back(*it);
    } else {
      // Per-layer rows a workload does not exercise read 0; an
      // end-to-end row is never optional.
      result.check(trace, std::string("end-to-end metric missing: ") + e->name);
      ordered.push_back(Metric{e->name, 0.0, e->unit});
    }
  }
  result.metrics = std::move(ordered);
}

void print_result(const Result& result) {
  for (const Metric& m : result.metrics) {
    std::printf("  %-28s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + format_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool print_environment(const std::string& workload, const std::string& shape,
                       std::int64_t parcels_per_op, double working_set_bytes) {
  const std::string l2 = cache_size(2);
  const std::string l3 = cache_size(3);
  const double mib = 1024.0 * 1024.0;
  std::printf("# env: nproc=%ld compiler=\"g++ %s\" build=%s flags=\"%s\" crc32=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, torex::crc32_backend_name());
  std::printf("# caches: L2=%s L3=%s\n", l2.empty() ? "?" : l2.c_str(),
              l3.empty() ? "?" : l3.c_str());
  const double l2b = cache_bytes(l2);
  const double l3b = cache_bytes(l3);
  std::printf(
      "# workload %s: shape %s, %lld parcels per operation, parcel working set %.2f MiB "
      "(%.2fx L2, %.3fx L3); no bandwidth figure is claimed\n",
      workload.c_str(), shape.c_str(), static_cast<long long>(parcels_per_op),
      working_set_bytes / mib, l2b > 0 ? working_set_bytes / l2b : 0.0,
      l3b > 0 ? working_set_bytes / l3b : 0.0);
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "refusing to time a non-optimised build (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return false;
#else
  return true;
#endif
}

}  // namespace perfbench
