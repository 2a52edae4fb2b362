#include "runtime/parallel_engine.hpp"

#include <algorithm>
#include <barrier>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "topology/group.hpp"
#include "util/assert.hpp"

namespace torex {

namespace {

struct StepId {
  int phase;
  int step;
};

/// Everything the workers touch, heap-allocated and shared so that a
/// stalled run can detach its threads and unwind safely: the leaked
/// workers keep the state alive through their shared_ptr and never
/// touch the (possibly destroyed) ParallelExchange again.
struct WorkerState {
  WorkerState(Rank num_nodes, int num_threads, std::size_t num_steps,
              std::vector<StepId> step_ids,
              std::function<void(int, int, Rank, const std::atomic<bool>&)> hook_fn)
      : N(num_nodes),
        T(num_threads),
        steps(std::move(step_ids)),
        hook(std::move(hook_fn)),
        buffers(static_cast<std::size_t>(num_nodes)),
        inbox(static_cast<std::size_t>(num_nodes)),
        step_total(num_steps),
        step_max(num_steps),
        thread_step(static_cast<std::size_t>(num_threads)),
        thread_node(static_cast<std::size_t>(num_threads)),
        sync(num_threads) {
    for (auto& a : step_total) a.store(0, std::memory_order_relaxed);
    for (auto& a : step_max) a.store(0, std::memory_order_relaxed);
    for (auto& a : thread_step) a.store(0, std::memory_order_relaxed);
    for (auto& a : thread_node) a.store(-1, std::memory_order_relaxed);
  }

  void record_error(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!first_error) first_error = std::move(error);
    }
    cancel.store(true, std::memory_order_relaxed);
  }

  const Rank N;
  const int T;
  const std::vector<StepId> steps;
  const std::function<void(int, int, Rank, const std::atomic<bool>&)> hook;
  /// Workers' own copy of the caller's recorder handle: shared state,
  /// independent lifetime — safe for detached workers.
  std::optional<Recorder> obs;
  /// Caller's cancellation flag (may be null); checked by workers at
  /// superstep boundaries, not just by the watchdog poll, so a fast
  /// exchange still observes a cancellation raised mid-run.
  const std::atomic<bool>* external = nullptr;
  std::atomic<bool> external_tripped{false};

  std::vector<std::vector<Block>> buffers;
  std::vector<std::vector<Block>> inbox;
  /// Wire accounting (obs-gated; workers flush local tallies once on
  /// exit). Every send is a single contiguous tail run by construction
  /// — stable_partition gathers the send set before it is published —
  /// so sends == contiguous sends; inbox reuse/grow counters report
  /// whether the steady state reached zero-allocation publishes.
  std::atomic<std::int64_t> wire_sends{0};
  std::atomic<std::int64_t> wire_parcels{0};
  std::atomic<std::int64_t> wire_bytes_copied{0};
  std::atomic<std::int64_t> wire_inbox_reuses{0};
  std::atomic<std::int64_t> wire_inbox_grows{0};
  std::vector<std::atomic<std::int64_t>> step_total;
  std::vector<std::atomic<std::int64_t>> step_max;
  std::atomic<bool> one_port_broken{false};
  std::atomic<bool> cancel{false};
  /// Barrier passages across all workers; the watchdog's liveness
  /// signal.
  std::atomic<std::int64_t> progress{0};
  std::atomic<int> finished{0};
  /// Supersteps each worker has completed / node it is processing.
  std::vector<std::atomic<std::int64_t>> thread_step;
  std::vector<std::atomic<Rank>> thread_node;

  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr first_error;  // guarded by mu
  std::barrier<> sync;
};

void worker_main(const std::shared_ptr<WorkerState>& st, const SuhShinAape* algo, int tid) {
  const Rank lo = static_cast<Rank>(static_cast<std::int64_t>(st->N) * tid / st->T);
  const Rank hi = static_cast<Rank>(static_cast<std::int64_t>(st->N) * (tid + 1) / st->T);
  Recorder* obs = st->obs.has_value() && st->obs->enabled() ? &*st->obs : nullptr;
  Histogram* barrier_hist =
      obs != nullptr
          ? &obs->metrics().histogram("parallel.barrier_wait_ns", default_latency_bounds_ns())
          : nullptr;
  const auto timed_barrier = [&] {
    const std::int64_t t0 = obs != nullptr ? obs->now_ns() : 0;
    st->sync.arrive_and_wait();
    if (obs != nullptr) barrier_hist->observe(obs->now_ns() - t0);
  };
  bool early_exit = false;
  std::int64_t wire_sends = 0;
  std::int64_t wire_parcels = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t inbox_reuses = 0;
  std::int64_t inbox_grows = 0;
  for (std::size_t s = 0; s < st->steps.size(); ++s) {
    if (st->external != nullptr && st->external->load(std::memory_order_relaxed)) {
      st->external_tripped.store(true, std::memory_order_relaxed);
      st->cancel.store(true, std::memory_order_relaxed);
    }
    if (st->cancel.load(std::memory_order_relaxed)) {
      early_exit = true;
      break;
    }
    const auto [phase, step] = st->steps[s];
    SpanGuard superstep_span(obs, "superstep", -1, phase, step);
    // Superstep half 1: partition own nodes' buffers and publish the
    // send sets into partner inboxes. One-port: each inbox has exactly
    // one writer, so no synchronization is needed beyond the barrier
    // that separates the halves.
    try {
      std::int64_t local_max = 0;
      std::int64_t local_total = 0;
      for (Rank p = lo; p < hi; ++p) {
        if (st->cancel.load(std::memory_order_relaxed)) break;
        st->thread_node[static_cast<std::size_t>(tid)].store(p, std::memory_order_relaxed);
        if (st->hook) st->hook(phase, step, p, st->cancel);
        if (st->cancel.load(std::memory_order_relaxed)) break;
        auto& buf = st->buffers[static_cast<std::size_t>(p)];
        auto split = std::stable_partition(buf.begin(), buf.end(), [&](const Block& b) {
          return !algo->should_send(p, phase, step, b);
        });
        const std::int64_t sent = std::distance(split, buf.end());
        if (sent == 0) continue;
        const Rank q = algo->partner(p, phase, step);
        auto& in = st->inbox[static_cast<std::size_t>(q)];
        if (!in.empty()) st->one_port_broken.store(true, std::memory_order_relaxed);
        if (obs != nullptr) {
          ++wire_sends;
          wire_parcels += sent;
          wire_bytes += sent * static_cast<std::int64_t>(sizeof(Block));
          if (static_cast<std::size_t>(sent) <= in.capacity()) {
            ++inbox_reuses;
          } else {
            ++inbox_grows;
          }
        }
        in.assign(split, buf.end());
        buf.erase(split, buf.end());
        local_max = std::max(local_max, sent);
        local_total += sent;
      }
      st->step_total[s].fetch_add(local_total, std::memory_order_relaxed);
      std::int64_t seen = st->step_max[s].load(std::memory_order_relaxed);
      while (local_max > seen && !st->step_max[s].compare_exchange_weak(
                                     seen, local_max, std::memory_order_relaxed)) {
      }
    } catch (...) {
      if (obs != nullptr) obs->instant("worker_exception", -1, phase, step, tid);
      st->record_error(std::current_exception());
      early_exit = true;
      break;
    }
    if (st->cancel.load(std::memory_order_relaxed)) {
      early_exit = true;
      break;
    }
    timed_barrier();
    st->progress.fetch_add(1, std::memory_order_relaxed);
    if (st->cancel.load(std::memory_order_relaxed)) {
      early_exit = true;
      break;
    }
    // Superstep half 2: integrate own inboxes.
    try {
      for (Rank p = lo; p < hi; ++p) {
        auto& in = st->inbox[static_cast<std::size_t>(p)];
        if (in.empty()) continue;
        auto& buf = st->buffers[static_cast<std::size_t>(p)];
        if (obs != nullptr) {
          wire_bytes += static_cast<std::int64_t>(in.size() * sizeof(Block));
        }
        buf.insert(buf.end(), in.begin(), in.end());
        in.clear();
      }
    } catch (...) {
      if (obs != nullptr) obs->instant("worker_exception", -1, phase, step, tid);
      st->record_error(std::current_exception());
      early_exit = true;
      break;
    }
    timed_barrier();
    st->progress.fetch_add(1, std::memory_order_relaxed);
    st->thread_step[static_cast<std::size_t>(tid)].store(static_cast<std::int64_t>(s) + 1,
                                                         std::memory_order_relaxed);
  }
  // A worker that stops early owes the barrier exactly one arrival;
  // arrive_and_drop provides it and removes the worker from every
  // later phase, so the survivors never deadlock waiting for it.
  if (early_exit) st->sync.arrive_and_drop();
  if (obs != nullptr) {
    st->wire_sends.fetch_add(wire_sends, std::memory_order_relaxed);
    st->wire_parcels.fetch_add(wire_parcels, std::memory_order_relaxed);
    st->wire_bytes_copied.fetch_add(wire_bytes, std::memory_order_relaxed);
    st->wire_inbox_reuses.fetch_add(inbox_reuses, std::memory_order_relaxed);
    st->wire_inbox_grows.fetch_add(inbox_grows, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lk(st->mu);
    st->finished.fetch_add(1, std::memory_order_relaxed);
  }
  st->cv.notify_all();
}

}  // namespace

ParallelExchange::ParallelExchange(const SuhShinAape& algorithm, ParallelOptions options)
    : algo_(algorithm), options_(std::move(options)) {
  if (options_.num_threads <= 0) {
    options_.num_threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
}

ExchangeTrace ParallelExchange::run_verified() {
  const TorusShape& shape = algo_.shape();
  const Rank N = shape.num_nodes();
  const int T = std::min<int>(options_.num_threads, N);
  const int n = algo_.num_dims();

  // Build the flat step list up front so workers iterate it in lockstep.
  std::vector<StepId> steps;
  for (int phase = 1; phase <= algo_.num_phases(); ++phase) {
    for (int step = 1; step <= algo_.steps_in_phase(phase); ++step) {
      steps.push_back({phase, step});
    }
  }

  auto st = std::make_shared<WorkerState>(N, T, steps.size(), steps, options_.before_send_hook);
  st->external = options_.cancel;
  Recorder* obs = options_.obs != nullptr && options_.obs->enabled() ? options_.obs : nullptr;
  if (obs != nullptr) st->obs = *obs;
  SpanGuard run_span(obs, "parallel_run");
  for (Rank p = 0; p < N; ++p) {
    auto& buf = st->buffers[static_cast<std::size_t>(p)];
    buf.reserve(static_cast<std::size_t>(N));
    for (Rank d = 0; d < N; ++d) buf.push_back(Block{p, d});
  }

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(T));
  const SuhShinAape* algo = &algo_;
  for (int tid = 0; tid < T; ++tid) {
    pool.emplace_back([st, algo, tid] { worker_main(st, algo, tid); });
  }

  // Watchdog loop on the calling thread: workers bump `progress` at
  // every barrier passage; a whole stall deadline with no passage means
  // some worker is wedged mid-superstep.
  const std::chrono::milliseconds deadline = options_.stall_deadline;
  const bool watchdog = deadline.count() > 0;
  if (obs != nullptr && watchdog) obs->metrics().counter("watchdog.armed").add();
  const std::chrono::milliseconds poll(
      watchdog ? std::max<std::int64_t>(1, std::min<std::int64_t>(deadline.count() / 4, 100))
               : 100);
  const std::chrono::milliseconds run_budget = options_.run_deadline;
  const bool has_run_deadline = run_budget.count() > 0;
  bool stalled = false;
  bool deadlined = false;
  std::optional<Rank> suspected;
  {
    std::unique_lock<std::mutex> lk(st->mu);
    std::int64_t last_progress = st->progress.load(std::memory_order_relaxed);
    auto last_change = std::chrono::steady_clock::now();
    const auto run_end = last_change + run_budget;
    while (st->finished.load(std::memory_order_relaxed) < T) {
      st->cv.wait_for(lk, poll);
      if (options_.cancel != nullptr && options_.cancel->load() &&
          !st->cancel.load(std::memory_order_relaxed)) {
        // Unblock wedged workers; whether the run counts as cancelled
        // is decided below by whether it actually completed.
        st->external_tripped.store(true, std::memory_order_relaxed);
        st->cancel.store(true, std::memory_order_relaxed);
      }
      if (options_.suspect_probe && !suspected &&
          !st->cancel.load(std::memory_order_relaxed)) {
        suspected = options_.suspect_probe();
        if (suspected) {
          // Proactive abort: the failure detector named a dead node, so
          // stop cooperatively now instead of burning the whole stall
          // deadline waiting for the watchdog.
          if (obs != nullptr) {
            obs->begin("fd.suspect", *suspected);
            obs->end("fd.suspect", *suspected);
            obs->metrics().counter("fd.suspects").add();
          }
          st->cancel.store(true, std::memory_order_relaxed);
        }
      }
      const std::int64_t now_progress = st->progress.load(std::memory_order_relaxed);
      const auto now = std::chrono::steady_clock::now();
      if (has_run_deadline && !deadlined && now >= run_end) {
        // Absolute budget spent: cancel cooperatively and give workers
        // one poll-sized grace window to unwind at a boundary.
        deadlined = true;
        if (obs != nullptr) {
          obs->instant("deadline_fired", -1, 0, 0, run_budget.count());
          obs->metrics().counter("watchdog.deadline_fired").add();
        }
        st->cancel.store(true, std::memory_order_relaxed);
        const auto grace_end = now + std::max(deadline, std::chrono::milliseconds(100));
        while (st->finished.load(std::memory_order_relaxed) < T &&
               std::chrono::steady_clock::now() < grace_end) {
          st->cv.wait_for(lk, poll);
        }
        break;
      }
      if (now_progress != last_progress) {
        last_progress = now_progress;
        last_change = now;
        continue;
      }
      if (watchdog && now - last_change >= deadline) {
        stalled = true;
        if (obs != nullptr) {
          obs->instant("watchdog_fired", -1, 0, 0, deadline.count());
          obs->metrics().counter("watchdog.fired").add();
        }
        st->cancel.store(true, std::memory_order_relaxed);
        // Grace window: cooperative workers unwind at the next cancel
        // check; a truly wedged one forces a detach below.
        const auto grace_end = now + deadline;
        while (st->finished.load(std::memory_order_relaxed) < T &&
               std::chrono::steady_clock::now() < grace_end) {
          st->cv.wait_for(lk, poll);
        }
        break;
      }
    }
  }
  if (st->finished.load() == T) {
    for (auto& th : pool) th.join();
  } else {
    // A wedged worker cannot be joined; the shared state outlives it
    // via the shared_ptr it captured, and it exits at its next cancel
    // check without touching this object again.
    for (auto& th : pool) th.detach();
  }

  {
    std::lock_guard<std::mutex> lk(st->mu);
    if (st->first_error) std::rethrow_exception(st->first_error);
  }
  // A cancellation (or stall) that lost the race to completion is a
  // no-op: the buffers are whole, so the run stands.
  bool completed = st->finished.load(std::memory_order_relaxed) == T;
  for (int tid = 0; completed && tid < T; ++tid) {
    completed = st->thread_step[static_cast<std::size_t>(tid)].load(std::memory_order_relaxed) ==
                static_cast<std::int64_t>(steps.size());
  }
  if (!completed && st->external_tripped.load(std::memory_order_relaxed)) {
    throw ExchangeCancelledError("parallel exchange cancelled by caller");
  }
  if (!completed && (suspected || deadlined || stalled)) {
    // Attribute the abort to the slowest worker's superstep and the node
    // it was processing when the run stopped.
    std::size_t slow_tid = 0;
    std::int64_t slow_step = st->thread_step[0].load(std::memory_order_relaxed);
    for (std::size_t tid = 1; tid < static_cast<std::size_t>(T); ++tid) {
      const std::int64_t done = st->thread_step[tid].load(std::memory_order_relaxed);
      if (done < slow_step) {
        slow_step = done;
        slow_tid = tid;
      }
    }
    const StepId stuck = steps[std::min(static_cast<std::size_t>(slow_step), steps.size() - 1)];
    const int unfinished = T - st->finished.load(std::memory_order_relaxed);
    if (suspected) throw CrashSuspectedError(stuck.phase, stuck.step, *suspected);
    std::ostringstream detail;
    if (deadlined) {
      detail << "run budget spent before completion";
      if (unfinished > 0) detail << ", " << unfinished << " worker(s) detached";
      throw DeadlineExceededError(stuck.phase, stuck.step, run_budget, detail.str());
    }
    const Rank node = st->thread_node[slow_tid].load(std::memory_order_relaxed);
    detail << "worker " << slow_tid << " of " << T;
    if (unfinished > 0) detail << ", " << unfinished << " worker(s) detached";
    throw RuntimeStallError(stuck.phase, stuck.step, node, deadline, detail.str());
  }

  TOREX_CHECK(!st->one_port_broken.load(), "one-port violation detected by the parallel runtime");

  if (obs != nullptr) {
    MetricsRegistry& m = obs->metrics();
    m.counter("wire.parallel.sends").add(st->wire_sends.load(std::memory_order_relaxed));
    m.counter("wire.parallel.parcels").add(st->wire_parcels.load(std::memory_order_relaxed));
    m.counter("wire.parallel.bytes_copied")
        .add(st->wire_bytes_copied.load(std::memory_order_relaxed));
    m.counter("wire.parallel.inbox_reuses")
        .add(st->wire_inbox_reuses.load(std::memory_order_relaxed));
    m.counter("wire.parallel.inbox_grows")
        .add(st->wire_inbox_grows.load(std::memory_order_relaxed));
    // stable_partition gathers every send set into one tail run before
    // it is published, so every send is contiguous by construction.
    m.counter("wire.parallel.contiguous_sends")
        .add(st->wire_sends.load(std::memory_order_relaxed));
  }

  ExchangeTrace trace;
  trace.rearrangement_passes = n + 1;
  trace.blocks_per_rearrangement = N;
  trace.steps.resize(steps.size());
  for (std::size_t s = 0; s < steps.size(); ++s) {
    trace.steps[s].phase = steps[s].phase;
    trace.steps[s].step = steps[s].step;
    trace.steps[s].hops = algo_.hops_per_step(steps[s].phase);
    trace.steps[s].total_blocks = st->step_total[s].load();
    trace.steps[s].max_blocks_per_node = st->step_max[s].load();
  }

  buffers_ = std::move(st->buffers);

  verify_aape_postcondition(shape, buffers_);
  return trace;
}

}  // namespace torex
