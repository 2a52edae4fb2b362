#include "core/exchange_engine.hpp"

#include <algorithm>

#include "topology/group.hpp"
#include "util/assert.hpp"

namespace torex {

namespace {

/// Hoisted telemetry handles so the step loop does no registry lookups.
struct EngineObs {
  Recorder* obs = nullptr;
  Counter* steps = nullptr;
  Counter* blocks = nullptr;
  Histogram* latency = nullptr;

  explicit EngineObs(Recorder* recorder) {
    if (recorder == nullptr || !recorder->enabled()) return;
    obs = recorder;
    steps = &recorder->metrics().counter("exchange.steps");
    blocks = &recorder->metrics().counter("exchange.blocks_moved");
    latency =
        &recorder->metrics().histogram("engine.step_latency_ns", default_latency_bounds_ns());
  }

  void step_done(std::int64_t started_ns, const StepRecord& record) const {
    if (obs == nullptr) return;
    steps->add();
    blocks->add(record.total_blocks);
    latency->observe(obs->now_ns() - started_ns);
  }
};

}  // namespace

ExchangeEngine::ExchangeEngine(const SuhShinAape& algorithm, EngineOptions options)
    : algo_(algorithm), options_(options) {}

void ExchangeEngine::reset() {
  const Rank N = algo_.shape().num_nodes();
  buffers_.assign(static_cast<std::size_t>(N), {});
  for (Rank p = 0; p < N; ++p) {
    auto& buf = buffers_[static_cast<std::size_t>(p)];
    buf.reserve(static_cast<std::size_t>(N));
    for (Rank d = 0; d < N; ++d) buf.push_back(Block{p, d});
  }
}

ExchangeTrace ExchangeEngine::run_custom(std::vector<std::vector<Block>> initial) {
  const Rank N = algo_.shape().num_nodes();
  TOREX_REQUIRE(static_cast<Rank>(initial.size()) == N, "need one buffer per node");
  for (Rank p = 0; p < N; ++p) {
    for (const Block& b : initial[static_cast<std::size_t>(p)]) {
      TOREX_REQUIRE(b.origin == p, "custom block must start at its origin");
      TOREX_REQUIRE(b.dest >= 0 && b.dest < N, "block destination out of range");
    }
  }

  // Expected delivery: per destination, the sorted multiset of blocks.
  std::vector<std::vector<Block>> expected(static_cast<std::size_t>(N));
  for (const auto& buf : initial) {
    for (const Block& b : buf) expected[static_cast<std::size_t>(b.dest)].push_back(b);
  }
  for (auto& e : expected) std::sort(e.begin(), e.end());

  buffers_ = std::move(initial);
  ExchangeTrace trace = play();

  for (Rank p = 0; p < N; ++p) {
    auto got = buffers_[static_cast<std::size_t>(p)];
    std::sort(got.begin(), got.end());
    TOREX_CHECK(got == expected[static_cast<std::size_t>(p)],
                "custom exchange did not deliver the expected multiset");
  }
  return trace;
}

ExchangeTrace ExchangeEngine::run() {
  reset();
  return play();
}

ExchangeTrace ExchangeEngine::play() {
  const Rank N = algo_.shape().num_nodes();
  incoming_.assign(static_cast<std::size_t>(N), {});
  incoming_source_.assign(static_cast<std::size_t>(N), -1);

  ExchangeTrace trace;
  const int n = algo_.num_dims();
  trace.rearrangement_passes = n + 1;
  trace.blocks_per_rearrangement = N;
  trace.steps.reserve(static_cast<std::size_t>(algo_.total_steps()));

  const EngineObs obs(options_.obs);
  for (int phase = 1; phase <= algo_.num_phases(); ++phase) {
    SpanGuard phase_span(obs.obs, "phase", -1, phase);
    for (int step = 1; step <= algo_.steps_in_phase(phase); ++step) {
      const std::int64_t started_ns = obs.obs != nullptr ? obs.obs->now_ns() : 0;
      SpanGuard step_span(obs.obs, "step", -1, phase, step);
      StepRecord record;
      record.phase = phase;
      record.step = step;
      record.hops = algo_.hops_per_step(phase);
      execute_step(phase, step, record);
      if (options_.on_step_end) options_.on_step_end(phase, step, record, buffers_);
      obs.step_done(started_ns, record);
      trace.steps.push_back(std::move(record));
    }
    if (options_.check_phase_invariants) {
      if (phase == n) check_after_scatter();
      if (phase == n + 1) check_after_quarter();
    }
  }
  return trace;
}

ExchangeTrace ExchangeEngine::run_verified() {
  ExchangeTrace trace = run();
  verify_postcondition();
  return trace;
}

void ExchangeEngine::execute_step(int phase, int step, StepRecord& record) {
  const Rank N = algo_.shape().num_nodes();

  // Send: each node partitions its buffer, keeping non-forwarded blocks
  // in place and appending forwarded ones to the partner's inbox.
  for (Rank p = 0; p < N; ++p) {
    auto& buf = buffers_[static_cast<std::size_t>(p)];
    auto split = std::stable_partition(buf.begin(), buf.end(), [&](const Block& b) {
      return !algo_.should_send(p, phase, step, b);
    });
    const std::int64_t sent = std::distance(split, buf.end());
    if (sent == 0) continue;  // idle node (short ring / nothing left): empty message

    const Rank q = algo_.partner(p, phase, step);
    TOREX_CHECK(q != p, "node addressed itself");
    auto& inbox = incoming_[static_cast<std::size_t>(q)];
    TOREX_CHECK(incoming_source_[static_cast<std::size_t>(q)] == -1,
                "one-port violation: node receives two messages in one step");
    incoming_source_[static_cast<std::size_t>(q)] = p;
    inbox.insert(inbox.end(), split, buf.end());
    buf.erase(split, buf.end());

    record.max_blocks_per_node = std::max(record.max_blocks_per_node, sent);
    record.total_blocks += sent;
    if (options_.record_transfers) {
      record.transfers.push_back(TransferRecord{
          p, q, algo_.direction(p, phase, step), algo_.hops_per_step(phase), sent});
    }
  }

  // Deliver: append inboxes to buffers.
  for (Rank p = 0; p < N; ++p) {
    auto& inbox = incoming_[static_cast<std::size_t>(p)];
    if (inbox.empty()) {
      incoming_source_[static_cast<std::size_t>(p)] = -1;
      continue;
    }
    auto& buf = buffers_[static_cast<std::size_t>(p)];
    buf.insert(buf.end(), inbox.begin(), inbox.end());
    inbox.clear();
    incoming_source_[static_cast<std::size_t>(p)] = -1;
  }
}

void ExchangeEngine::check_after_scatter() const {
  // Paper §3.2/§4.1: after phase n, every block (o, d) sits on the
  // member of o's group that shares d's 4x..x4 submesh (the proxy).
  const TorusShape& s = algo_.shape();
  for (Rank p = 0; p < s.num_nodes(); ++p) {
    const Coord pc = s.coord_of(p);
    for (const Block& b : buffers_[static_cast<std::size_t>(p)]) {
      const Coord oc = s.coord_of(b.origin);
      const Coord dc = s.coord_of(b.dest);
      TOREX_CHECK(same_group(pc, oc), "block left its origin's group during scatter");
      TOREX_CHECK(same_submesh(pc, dc), "block not in destination submesh after scatter");
    }
  }
}

void ExchangeEngine::check_after_quarter() const {
  // After phase n+1, every block is in its destination's 2x..x2
  // half-submesh.
  const TorusShape& s = algo_.shape();
  for (Rank p = 0; p < s.num_nodes(); ++p) {
    const Coord pc = s.coord_of(p);
    for (const Block& b : buffers_[static_cast<std::size_t>(p)]) {
      const Coord dc = s.coord_of(b.dest);
      TOREX_CHECK(same_half_submesh(pc, dc),
                  "block not in destination half-submesh after quarter exchange");
    }
  }
}

void verify_aape_postcondition(const TorusShape& shape,
                               const std::vector<std::vector<Block>>& buffers) {
  const Rank N = shape.num_nodes();
  TOREX_CHECK(static_cast<Rank>(buffers.size()) == N, "wrong node count in final state");
  std::vector<char> seen(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    const auto& buf = buffers[static_cast<std::size_t>(p)];
    TOREX_CHECK(static_cast<Rank>(buf.size()) == N,
                "node does not hold exactly N blocks after the exchange");
    std::fill(seen.begin(), seen.end(), 0);
    for (const Block& b : buf) {
      TOREX_CHECK(b.dest == p, "node holds a block destined elsewhere");
      TOREX_CHECK(!seen[static_cast<std::size_t>(b.origin)], "duplicate origin in final buffer");
      seen[static_cast<std::size_t>(b.origin)] = 1;
    }
  }
}

void ExchangeEngine::verify_postcondition() const {
  verify_aape_postcondition(algo_.shape(), buffers_);
}

}  // namespace torex
