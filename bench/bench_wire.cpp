// Wire-path evaluation: what the pooled zero-copy TOX3 frame layer
// costs over wire-free struct moves, measured where it matters — heap
// allocations, bytes copied, and wall-clock per parcel.
//
// Every heap allocation in the process is counted by overriding the
// global operator new/delete, so the numbers are ground truth, not
// instrumentation estimates. For each shape (the paper's 8x8 and the
// 3D 8x4x4) five executors run over identical payloads:
//
//   plain           exchange_payloads (struct moves, no wire)
//   sealed_pooled   exchange_payloads_sealed (caller order, gathered
//                   multi-run frames)
//   pooled_paper    exchange_payloads_pooled, §3.3 layout
//   pooled_naive    exchange_payloads_pooled, naive destination order
//   pooled_strided  strided user-buffer views (columns of row-major
//                   matrices) through seed/scatter_parcels_strided,
//                   naive destination order — every message is a
//                   true multi-run frame
//
// The bench is self-checking and exits non-zero on regression:
//   * sealed_pooled must copy exactly two payload passes — each
//     parcel gathered into a frame once and spliced out once, so
//     bytes_copied == 2 x parcels x sizeof(Parcel<int64_t>);
//   * sealed_pooled must stay under the same allocs-per-step budget as
//     pooled_paper, and its warm arena must serve at least as many
//     frames from the pool as it allocates fresh;
//   * sealed_pooled must stay within 2.5x the plain path's ns/parcel
//     on the 2D shape (the v3 run-gather + fast-CRC wire budget);
//   * pooled_paper must stay under a fixed allocs-per-step budget
//     (kAllocBudgetPerStep) once the arena is warm — the CI bench
//     smoke job fails when the zero-copy invariant erodes;
//   * pooled_paper must be fully contiguous in 2D and within the
//     2^(n-2) run bound in 3D;
//   * pooled_strided must gather parcels (gathered_parcels > 0, the
//     dead run-gather path regression) with more encoded runs than
//     messages, under the same alloc budget as pooled_paper.
//
// --out=FILE (default BENCH_wire.json) receives the results as JSON.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/payload_exchange.hpp"
#include "core/wire_buffer.hpp"
#include "obs/chrome_trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

// --- Global allocation counting ----------------------------------------

namespace {
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace torex;

/// Allocations-per-step ceiling for the warm framed paths (pooled
/// paper, sealed, strided). The warm wire allocates nothing per
/// message: frames recycle through the arena and partner lookups are
/// stride arithmetic. What remains is per exchange: the executor's
/// stepper and counting-sort scratch, plus the seed and delivered
/// buffers on the strided path, about 2 allocations per step on the
/// pooled and sealed paths and 13-16 on the strided one. The budget is
/// deliberately a hard constant below one allocation per message on
/// both shapes (64 and 128 messages per step): a change that
/// re-introduces per-message allocation trips it.
constexpr double kAllocBudgetPerStep = 32.0;

ParcelBuffers<std::int64_t> canonical_parcels(Rank n) {
  ParcelBuffers<std::int64_t> buffers(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      buffers[static_cast<std::size_t>(p)].push_back(
          {Block{p, q}, static_cast<std::int64_t>(p) * n + q});
    }
  }
  return buffers;
}

struct PathResult {
  std::string name;
  double ms = 0;                  ///< wall-clock per exchange
  double ns_per_parcel = 0;
  double allocs_per_step = 0;
  double alloc_kib_per_step = 0;
  WirePoolStats stats;            ///< wire traffic delta (zero for plain)
  bool has_stats = false;
};

/// Runs `fn` (one full exchange over fresh canonical payloads) reps
/// times, counting only the exchange itself — seed construction sits
/// outside the measured window. The caller warms the path (and
/// snapshots arena stats) before calling.
template <typename Fn>
PathResult measure(const std::string& name, const SuhShinAape& algo, int reps, Fn&& fn) {
  const Rank N = algo.shape().num_nodes();
  std::int64_t allocs = 0;
  std::int64_t alloc_bytes = 0;
  double total_ms = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto parcels = canonical_parcels(N);
    const std::int64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const std::int64_t b0 = g_alloc_bytes.load(std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    fn(std::move(parcels));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    alloc_bytes += g_alloc_bytes.load(std::memory_order_relaxed) - b0;
    total_ms += std::chrono::duration<double, std::milli>(elapsed).count();
  }
  const double steps = static_cast<double>(algo.total_steps()) * reps;
  const double parcels_moved =
      static_cast<double>(N) * static_cast<double>(N) * reps;  // lower bound: one hop each
  PathResult r;
  r.name = name;
  r.ms = total_ms / reps;
  r.ns_per_parcel = total_ms * 1e6 / parcels_moved;
  r.allocs_per_step = static_cast<double>(allocs) / steps;
  r.alloc_kib_per_step = static_cast<double>(alloc_bytes) / steps / 1024.0;
  return r;
}

void append_path_json(std::ostringstream& out, const PathResult& r, bool last) {
  out << "        \"" << r.name << "\": {\n"
      << "          \"ms_per_exchange\": " << r.ms << ",\n"
      << "          \"ns_per_parcel\": " << r.ns_per_parcel << ",\n"
      << "          \"allocs_per_step\": " << r.allocs_per_step << ",\n"
      << "          \"alloc_kib_per_step\": " << r.alloc_kib_per_step;
  if (r.has_stats) {
    out << ",\n"
        << "          \"messages\": " << r.stats.messages << ",\n"
        << "          \"parcels\": " << r.stats.parcels << ",\n"
        << "          \"bytes_encoded\": " << r.stats.bytes_encoded << ",\n"
        << "          \"bytes_copied\": " << r.stats.bytes_copied << ",\n"
        << "          \"pool_hits\": " << r.stats.pool_hits << ",\n"
        << "          \"pool_misses\": " << r.stats.pool_misses << ",\n"
        << "          \"contiguous_sends\": " << r.stats.contiguous_sends << ",\n"
        << "          \"total_sends\": " << r.stats.total_sends << ",\n"
        << "          \"gathered_parcels\": " << r.stats.gathered_parcels << ",\n"
        << "          \"runs_encoded\": " << r.stats.runs_encoded << ",\n"
        << "          \"max_runs_per_send\": " << r.stats.max_runs_per_send;
  }
  out << "\n        }" << (last ? "\n" : ",\n");
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::cerr << "SELF-CHECK FAILED: " << what << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = CliFlags::parse(argc, argv, {"out", "reps"});
  const std::string out_path = flags.get_string("out", "BENCH_wire.json");
  const int reps = static_cast<int>(flags.get_int("reps", 10, 1, 10000));

  std::ostringstream json;
  json << "{\n  \"bench\": \"wire\",\n  \"alloc_budget_per_step\": " << kAllocBudgetPerStep
       << ",\n  \"reps\": " << reps << ",\n  \"shapes\": [\n";

  const std::vector<std::vector<std::int32_t>> shapes{{8, 8}, {8, 4, 4}};
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    const TorusShape shape(shapes[si]);
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    std::cout << "=== " << shape.to_string() << " (" << N << " nodes, "
              << algo.total_steps() << " steps, " << reps << " reps) ===\n\n";

    std::vector<PathResult> results;

    // Each path: one untimed warmup exchange (pool converges, caches
    // warm), then snapshot arena stats, then the measured reps — so
    // both the allocation counts and the traffic stats cover exactly
    // the steady-state reps.
    const auto run_path = [&](const std::string& name, WireArena* arena, auto&& exchange) {
      exchange(canonical_parcels(N));  // warmup
      const WirePoolStats before = arena != nullptr ? arena->stats() : WirePoolStats{};
      PathResult r = measure(name, algo, reps, exchange);
      if (arena != nullptr) {
        r.stats = wire_stats_delta(arena->stats(), before);
        r.has_stats = true;
      }
      results.push_back(r);
    };

    run_path("plain", nullptr, [&](ParcelBuffers<std::int64_t> parcels) {
      exchange_payloads(algo, std::move(parcels));
    });

    {
      WireArena arena;
      IntegrityOptions options;
      options.arena = &arena;
      run_path("sealed_pooled", &arena, [&](ParcelBuffers<std::int64_t> parcels) {
        exchange_payloads_sealed(algo, std::move(parcels), {}, options);
      });
    }

    {
      WireArena arena;
      WireExchangeOptions options;
      options.layout = LayoutPolicy::kPaper;
      options.arena = &arena;
      run_path("pooled_paper", &arena, [&](ParcelBuffers<std::int64_t> parcels) {
        exchange_payloads_pooled(algo, std::move(parcels), options);
      });
    }

    {
      WireArena arena;
      WireExchangeOptions options;
      options.layout = LayoutPolicy::kNaiveDestinationOrder;
      options.arena = &arena;
      run_path("pooled_naive", &arena, [&](ParcelBuffers<std::int64_t> parcels) {
        exchange_payloads_pooled(algo, std::move(parcels), options);
      });
    }

    {
      // Strided user-buffer workload: both endpoints are columns of
      // row-major matrices (stride = N), seeded and scattered through
      // the StridedView API inside the measured window — the layer a
      // Träff-style datatype user pays. Naive destination order keeps
      // every send fragmented, so this is the workload that proves the
      // multi-run gather path is alive.
      const auto n = static_cast<std::size_t>(N);
      std::vector<std::int64_t> send_mat(n * n);
      std::vector<std::int64_t> recv_mat(n * n);
      std::vector<StridedView<const std::int64_t>> send_views;
      std::vector<StridedView<std::int64_t>> recv_views;
      for (Rank p = 0; p < N; ++p) {
        send_views.push_back({send_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
        recv_views.push_back({recv_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
        for (Rank q = 0; q < N; ++q) {
          send_mat[static_cast<std::size_t>(q) * n + static_cast<std::size_t>(p)] =
              static_cast<std::int64_t>(p) * N + q;
        }
      }
      WireArena arena;
      WireExchangeOptions options;
      options.layout = LayoutPolicy::kNaiveDestinationOrder;
      options.arena = &arena;
      run_path("pooled_strided", &arena, [&](ParcelBuffers<std::int64_t>) {
        scatter_parcels_strided(
            N, exchange_payloads_pooled(algo, seed_parcels_strided(N, send_views), options),
            recv_views);
      });
    }

    TextTable table({"path", "ms/exch", "ns/parcel", "allocs/step", "KiB alloc/step",
                     "bytes copied", "contig sends", "max runs"});
    table.set_align(0, TextTable::Align::kLeft);
    for (const PathResult& r : results) {
      auto& row = table.start_row()
                      .cell(r.name)
                      .cell(r.ms, 3)
                      .cell(r.ns_per_parcel, 1)
                      .cell(r.allocs_per_step, 1)
                      .cell(r.alloc_kib_per_step, 1);
      if (r.has_stats) {
        row.cell(r.stats.bytes_copied)
            .cell(std::to_string(r.stats.contiguous_sends) + "/" +
                  std::to_string(r.stats.total_sends))
            .cell(r.stats.max_runs_per_send);
      } else {
        row.cell("-").cell("-").cell("-");
      }
    }
    table.print(std::cout);
    std::cout << "\n";

    const PathResult& plain = results[0];
    const PathResult& sealed_pooled = results[1];
    const PathResult& pooled_paper = results[2];
    const PathResult& pooled_naive = results[3];
    const PathResult& pooled_strided = results[4];
    const std::string tag = " (" + shape.to_string() + ")";

    // Exact structural gates on the sealed wire: every parcel is copied
    // twice (gathered into its frame, spliced out of it) and never
    // more, frames recycle through the warm arena, and the steady-state
    // wire stays inside the allocation budget.
    check(sealed_pooled.stats.bytes_copied ==
              2 * sealed_pooled.stats.parcels *
                  static_cast<std::int64_t>(sizeof(Parcel<std::int64_t>)),
          "sealed_pooled must copy exactly 2 x parcels x sizeof(Parcel)" + tag);
    check(sealed_pooled.allocs_per_step <= kAllocBudgetPerStep,
          "sealed pooled path exceeded the alloc budget" + tag);
    check(sealed_pooled.stats.pool_misses <= sealed_pooled.stats.pool_hits,
          "warm arena should serve most sealed frames from the pool" + tag);
    check(pooled_paper.allocs_per_step <= kAllocBudgetPerStep,
          "pooled paper path exceeded the alloc budget" + tag);
    check(pooled_paper.stats.pool_misses <= pooled_paper.stats.pool_hits,
          "warm arena should serve most frames from the pool" + tag);
    // The strided workload is the dead-path regression gate: before
    // the run-gather rework gathered_parcels never moved off zero and
    // every message claimed exactly one run.
    check(pooled_strided.stats.gathered_parcels > 0,
          "strided workload must gather parcels (multi-run sends)" + tag);
    check(pooled_strided.stats.runs_encoded > pooled_strided.stats.total_sends,
          "strided workload must encode more runs than messages" + tag);
    check(pooled_strided.allocs_per_step <= kAllocBudgetPerStep,
          "strided workload exceeded the alloc budget" + tag);
    if (shape.num_dims() == 2) {
      check(pooled_paper.stats.fully_contiguous(),
            "paper layout must be fully contiguous in 2D" + tag);
      // The wire-overhead budget the v3 run-gather + fast-CRC rework
      // bought: sealing every message end-to-end costs at most 2.5x
      // the wire-free struct-move baseline per parcel.
      check(sealed_pooled.ns_per_parcel <= 2.5 * plain.ns_per_parcel,
            "sealed_pooled must stay within 2.5x plain ns/parcel" + tag);
    } else {
      check(pooled_paper.stats.max_runs_per_send <= 2,
            "paper layout must stay within 2 runs per send in 3D" + tag);
      check(pooled_naive.stats.gathered_parcels >= pooled_paper.stats.gathered_parcels,
            "naive layout should gather at least as much as the paper layout" + tag);
    }

    json << "    {\n      \"shape\": \"" << shape.to_string() << "\",\n      \"nodes\": " << N
         << ",\n      \"steps\": " << algo.total_steps() << ",\n      \"paths\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      append_path_json(json, results[i], i + 1 == results.size());
    }
    json << "      }\n    }" << (si + 1 == shapes.size() ? "\n" : ",\n");
  }

  json << "  ],\n  \"pass\": " << (g_failures == 0 ? "true" : "false") << "\n}\n";

  std::string error;
  if (!json_well_formed(json.str(), &error)) {
    std::cerr << "internal error: BENCH_wire.json is not well-formed: " << error << "\n";
    return 1;
  }
  {
    std::ofstream out(out_path);
    out << json.str();
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
  }
  std::cout << "wrote " << out_path << "\n";
  if (g_failures > 0) {
    std::cerr << g_failures << " self-check(s) failed\n";
    return 1;
  }
  std::cout << "all self-checks passed\n";
  return 0;
}
