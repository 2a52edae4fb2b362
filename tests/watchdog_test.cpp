// Liveness and error propagation of the self-checking runtimes: worker
// exceptions must surface on the calling thread (never std::terminate),
// wedged supersteps must become RuntimeStallError within the deadline,
// and cooperative cancellation must unwind cleanly. Regression suite
// for the "a throwing worker took down the process" failure mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/exchange_engine.hpp"
#include "runtime/communicator.hpp"
#include "runtime/parallel_engine.hpp"
#include "runtime/watchdog.hpp"
#include "sim/fault_model.hpp"

namespace torex {
namespace {

using namespace std::chrono_literals;

// --- ParallelExchange: exception propagation ---------------------------

TEST(ParallelWatchdogTest, PoisonedHookRethrowsOnCallingThread) {
  // Regression: a throw inside a worker thread used to escape
  // worker_main and std::terminate the whole process. It must arrive
  // at the caller as the original exception.
  const SuhShinAape algo(TorusShape({4, 4}));
  ParallelOptions options;
  options.num_threads = 4;
  // Phase 3 step 1 is the first active step of a 4x4 schedule (the
  // scatter phases are empty at extent 4).
  options.before_send_hook = [](int phase, int step, Rank node, const std::atomic<bool>&) {
    if (phase == 3 && step == 1 && node == 5) {
      throw std::runtime_error("poisoned schedule step");
    }
  };
  ParallelExchange parallel(algo, options);
  try {
    parallel.run_verified();
    FAIL() << "poisoned hook must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "poisoned schedule step");
  }
}

TEST(ParallelWatchdogTest, FirstExceptionWinsAcrossWorkers) {
  // Several workers throw; exactly one exception must surface and it
  // must be one of the planted ones (not a barrier deadlock or a
  // mangled rethrow).
  const SuhShinAape algo(TorusShape({4, 4}));
  ParallelOptions options;
  options.num_threads = 4;
  options.before_send_hook = [](int, int, Rank node, const std::atomic<bool>&) {
    if (node % 4 == 0) throw std::runtime_error("planted");
  };
  ParallelExchange parallel(algo, options);
  try {
    parallel.run_verified();
    FAIL() << "must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "planted");
  }
}

TEST(ParallelWatchdogTest, RunsCleanlyAfterHookThatDoesNotThrow) {
  const SuhShinAape algo(TorusShape({4, 4}));
  std::atomic<int> visits{0};
  ParallelOptions options;
  options.num_threads = 3;
  options.before_send_hook = [&](int, int, Rank, const std::atomic<bool>&) { ++visits; };
  ParallelExchange parallel(algo, options);
  const ExchangeTrace trace = parallel.run_verified();
  // Every (step, node) pair is visited exactly once.
  EXPECT_EQ(visits.load(), algo.total_steps() * algo.shape().num_nodes());
  ExchangeEngine reference(algo);
  const ExchangeTrace expected = reference.run_verified();
  ASSERT_EQ(trace.steps.size(), expected.steps.size());
  for (std::size_t i = 0; i < trace.steps.size(); ++i) {
    EXPECT_EQ(trace.steps[i].total_blocks, expected.steps[i].total_blocks);
    EXPECT_EQ(trace.steps[i].max_blocks_per_node, expected.steps[i].max_blocks_per_node);
  }
}

// --- ParallelExchange: watchdog ----------------------------------------

TEST(ParallelWatchdogTest, WedgedWorkerBecomesRuntimeStallError) {
  const SuhShinAape algo(TorusShape({4, 4}));
  ParallelOptions options;
  options.num_threads = 2;
  options.stall_deadline = 200ms;
  // Node 3's worker wedges until the watchdog's cancel releases it —
  // a cooperative wedge, so the run also unwinds without detaching.
  options.before_send_hook = [](int phase, int step, Rank node, const std::atomic<bool>& cancel) {
    if (phase == 3 && step == 2 && node == 3) {
      while (!cancel.load()) std::this_thread::sleep_for(1ms);
    }
  };
  ParallelExchange parallel(algo, options);
  const auto start = std::chrono::steady_clock::now();
  try {
    parallel.run_verified();
    FAIL() << "wedged superstep must raise RuntimeStallError";
  } catch (const RuntimeStallError& e) {
    EXPECT_EQ(e.phase(), 3);
    EXPECT_EQ(e.step(), 2);
    EXPECT_EQ(e.node(), 3);
  }
  // Detection + grace must stay in the order of a few deadlines, not
  // hang: the watchdog, not ctest's TIMEOUT, did the work.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(ParallelWatchdogTest, ExternalCancellationUnwinds) {
  const SuhShinAape algo(TorusShape({8, 4}));
  std::atomic<bool> cancel{false};
  ParallelOptions options;
  options.num_threads = 2;
  options.cancel = &cancel;
  // Trip the flag from inside the run so the cancellation lands
  // mid-exchange deterministically.
  options.before_send_hook = [&](int phase, int, Rank, const std::atomic<bool>&) {
    if (phase == 2) cancel.store(true);
  };
  ParallelExchange parallel(algo, options);
  EXPECT_THROW(parallel.run_verified(), ExchangeCancelledError);
}

TEST(ParallelWatchdogTest, DefaultOptionsStillVerify) {
  // The default watchdog (stall deadline armed, no hook, no probe)
  // stays out of a healthy run: every step of the schedule runs, in
  // the oracle's order, and the postcondition holds.
  const SuhShinAape algo(TorusShape({4, 4}));
  ParallelExchange parallel(algo);
  const ExchangeTrace trace = parallel.run_verified();
  ASSERT_EQ(static_cast<std::int64_t>(trace.steps.size()), algo.total_steps());
  ExchangeEngine oracle(algo);
  const ExchangeTrace want = oracle.run_verified();
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    EXPECT_EQ(trace.steps[i].phase, want.steps[i].phase) << "step " << i;
    EXPECT_EQ(trace.steps[i].step, want.steps[i].step) << "step " << i;
    EXPECT_EQ(trace.steps[i].total_blocks, want.steps[i].total_blocks) << "step " << i;
  }
}

// --- The watchdog's errors --------------------------------------------

TEST(WatchdogErrorTest, StallErrorCarriesContext) {
  const RuntimeStallError e(3, 2, Rank{7}, 250ms, "test detail");
  EXPECT_EQ(e.phase(), 3);
  EXPECT_EQ(e.step(), 2);
  EXPECT_EQ(e.node(), 7);
  const std::string what = e.what();
  EXPECT_NE(what.find("phase 3"), std::string::npos);
  EXPECT_NE(what.find("step 2"), std::string::npos);
  EXPECT_NE(what.find("node 7"), std::string::npos);
  EXPECT_NE(what.find("test detail"), std::string::npos);
}

// --- Cancel racing the journal's flush/commit window -------------------

TEST(JournalCancelRaceTest, CancelBetweenFlushAndCommitLeavesResumableJournal) {
  // The worst-case race for crash durability: the cancel flag flips
  // after a step's deliveries are flushed but before its commit marker
  // is appended. The run must unwind as ExchangeCancelledError, the
  // journal must load, and a re-run must finish exactly-once — the
  // flushed-but-uncommitted parcels materialize and their re-sent seed
  // copies are dropped as duplicates.
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  const Rank n = shape.num_nodes();
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      send[static_cast<std::size_t>(p)].push_back(static_cast<std::int64_t>(p) * n + q);
    }
  }
  const TorusCommunicator comm(shape, CostParams{});

  std::atomic<bool> cancel{false};
  ResumeOptions options;
  options.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
  options.cancel = &cancel;
  int flushes = 0;
  // The deliveries flush of step k is followed by the cancel poll and
  // only then the commit flush; tripping the flag inside an odd flush
  // lands the cancellation exactly in the window.
  options.flush = [&](const ExchangeJournal&) {
    if (++flushes == 3) cancel.store(true);
  };

  ExchangeJournal journal;
  ExchangeOutcome outcome;
  EXPECT_THROW(comm.alltoall_resumable(send, FaultModel{}, journal, outcome, options),
               ExchangeCancelledError);
  EXPECT_FALSE(journal.exchange_complete());
  EXPECT_GT(journal.uncommitted_deliveries().size(), 0u)
      << "the cancel must land between a flush and its commit";

  ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  EXPECT_FALSE(loaded.torn_tail());
  ExchangeOutcome resumed;
  ResumeOptions clean;
  clean.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.resume(send, FaultModel{}, loaded, resumed, clean);
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      ASSERT_EQ(recv[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)],
                static_cast<std::int64_t>(q) * n + p);
    }
  }
  ASSERT_TRUE(resumed.resume.has_value());
  EXPECT_GT(resumed.resume->materialized, 0);
  EXPECT_EQ(resumed.resume->materialized, resumed.resume->duplicates_dropped);
  EXPECT_TRUE(loaded.exchange_complete());
}

// --- Suspect probe: proactive aborts ahead of the stall deadline -------

TEST(ParallelWatchdogTest, SuspectProbeAbortsBeforeStallDeadline) {
  const SuhShinAape algo(TorusShape({4, 4}));
  ParallelOptions options;
  options.num_threads = 2;
  // Generous deadline: if the probe does not fire, this test times out
  // at the ctest layer instead of passing by accident.
  options.stall_deadline = 30s;
  options.suspect_probe = [] { return std::optional<Rank>(Rank{6}); };
  // Wedge one worker cooperatively so the run cannot simply finish
  // before the monitor polls the probe.
  options.before_send_hook = [](int phase, int step, Rank node, const std::atomic<bool>& cancel) {
    if (phase == 3 && step == 1 && node == 1) {
      while (!cancel.load()) std::this_thread::sleep_for(1ms);
    }
  };
  ParallelExchange parallel(algo, options);
  const auto start = std::chrono::steady_clock::now();
  try {
    parallel.run_verified();
    FAIL() << "suspected node must abort the run";
  } catch (const CrashSuspectedError& e) {
    EXPECT_EQ(e.suspect(), 6);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s)
      << "proactive abort must beat the stall deadline";
}

// --- Absolute run deadline ---------------------------------------------

TEST(ParallelWatchdogTest, RunDeadlineBecomesDeadlineExceededError) {
  // A worker that keeps making *some* progress never trips the stall
  // watchdog; the absolute run deadline is the bound that still fires.
  // Here the wedge is total but the stall deadline is parked far away,
  // so only the run deadline can end the run.
  const SuhShinAape algo(TorusShape({4, 4}));
  ParallelOptions options;
  options.num_threads = 2;
  options.stall_deadline = 30s;
  options.run_deadline = 200ms;
  options.before_send_hook = [](int phase, int step, Rank node, const std::atomic<bool>& cancel) {
    if (phase == 3 && step == 1 && node == 4) {
      while (!cancel.load()) std::this_thread::sleep_for(1ms);
    }
  };
  ParallelExchange parallel(algo, options);
  const auto start = std::chrono::steady_clock::now();
  try {
    parallel.run_verified();
    FAIL() << "exhausted run budget must raise DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    EXPECT_EQ(e.phase(), 3);
    EXPECT_EQ(e.step(), 1);
    EXPECT_NE(std::string(e.what()).find("200 ms"), std::string::npos);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s)
      << "the run deadline, not the stall deadline or ctest, must end the run";
}

TEST(ParallelWatchdogTest, RunDeadlineDoesNotFireOnHealthyRuns) {
  const SuhShinAape algo(TorusShape({4, 4}));
  ParallelOptions options;
  options.num_threads = 2;
  options.run_deadline = 30000ms;
  ParallelExchange parallel(algo, options);
  const ExchangeTrace trace = parallel.run_verified();
  EXPECT_EQ(static_cast<std::int64_t>(trace.steps.size()), algo.total_steps());
}

// --- Cancel isolation across concurrent sessions -----------------------

TEST(ParallelWatchdogTest, ConcurrentSessionsCancelIsolation) {
  // Two independent runs share the process (and the cancel machinery's
  // code paths) on concurrent threads; cancelling one must not be
  // observable from the other. Regression guard for any future global
  // state sneaking into the cancel plumbing.
  const SuhShinAape algo(TorusShape({8, 4}));
  std::atomic<bool> cancel_a{false};
  std::atomic<bool> unused_b{false};

  std::exception_ptr error_a;
  std::exception_ptr error_b;
  std::optional<ExchangeTrace> trace_b;

  std::thread session_a([&] {
    ParallelOptions options;
    options.num_threads = 2;
    options.cancel = &cancel_a;
    options.before_send_hook = [&](int phase, int, Rank, const std::atomic<bool>&) {
      if (phase == 2) cancel_a.store(true);
    };
    try {
      ParallelExchange parallel(algo, options);
      parallel.run_verified();
    } catch (...) {
      error_a = std::current_exception();
    }
  });
  std::thread session_b([&] {
    ParallelOptions options;
    options.num_threads = 2;
    options.cancel = &unused_b;
    try {
      ParallelExchange parallel(algo, options);
      trace_b = parallel.run_verified();
    } catch (...) {
      error_b = std::current_exception();
    }
  });
  session_a.join();
  session_b.join();

  ASSERT_TRUE(error_a != nullptr) << "session A must unwind as cancelled";
  EXPECT_THROW(std::rethrow_exception(error_a), ExchangeCancelledError);
  ASSERT_TRUE(error_b == nullptr) << "session B must not observe A's cancel";
  ASSERT_TRUE(trace_b.has_value());
  EXPECT_EQ(static_cast<std::int64_t>(trace_b->steps.size()), algo.total_steps());
  EXPECT_FALSE(unused_b.load()) << "B's flag must never flip";
}

}  // namespace
}  // namespace torex
