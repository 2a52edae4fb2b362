// The Suh-Shin all-to-all personalized exchange schedule.
//
// This class turns the paper's phase rules into three queryable maps —
// per-(node, phase, step) transmit direction, partner, and a
// block-forwarding predicate — from which the exchange engine, the
// contention checker and the cost simulator all derive their views.
//
// Phase layout for an n-dimensional torus (phases are 1-based):
//   phases 1..n     scatter within each mod-4 group subtorus; stride-4
//                   shifts toward a fixed neighbor; a1/4 - 1 steps each
//   phase n+1       quarter exchange: +-2 partners inside each 4^n
//                   submesh; n steps (one dimension per step)
//   phase n+2       pair exchange: +-1 partners inside each 2^n
//                   submesh; n steps
//
// The forwarding predicates are the local-rule equivalent of the
// paper's §3.3 array slices:
//   scatter   send (o,d) iff the node's subtorus coordinate differs
//             from d's submesh coordinate along the phase dimension
//   quarter   send (o,d) iff the node and d lie in different 2x..x2
//             half-submeshes along the step dimension
//   pair      send (o,d) iff node and d differ in parity along the
//             step dimension
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/block.hpp"
#include "core/pattern.hpp"
#include "topology/shape.hpp"
#include "topology/torus.hpp"

namespace torex {

/// Role of a phase in the algorithm.
enum class PhaseKind {
  kScatter,          ///< phases 1..n: group-subtorus rings, 4-hop strides
  kQuarterExchange,  ///< phase n+1: +-2 exchanges in 4x..x4 submeshes
  kPairExchange,     ///< phase n+2: +-1 exchanges in 2x..x2 submeshes
};

/// Immutable, precomputed schedule for one torus shape.
class SuhShinAape {
 public:
  /// Builds the schedule. Requires: >= 2 dimensions, every extent a
  /// positive multiple of four, extents sorted non-increasing
  /// (a1 >= a2 >= ... >= an, the paper's convention).
  explicit SuhShinAape(TorusShape shape);
  SuhShinAape(TorusShape shape, PatternConvention convention);

  const TorusShape& shape() const { return torus_.shape(); }
  const Torus& torus() const { return torus_; }
  PatternConvention convention() const { return convention_; }
  int num_dims() const { return torus_.shape().num_dims(); }

  /// n + 2.
  int num_phases() const { return num_dims() + 2; }

  PhaseKind phase_kind(int phase) const;

  /// Steps in a phase: a1/4 - 1 for scatter phases, n for the last two.
  int steps_in_phase(int phase) const;

  /// Total startup count, the paper's n(a1/4 + 1).
  int total_steps() const;

  /// Physical hops every message of this phase travels (4, 2 or 1).
  int hops_per_step(int phase) const;

  /// Direction `node` transmits in (phase, step). Step is 1-based; for
  /// scatter phases the direction is step-independent.
  Direction direction(Rank node, int phase, int step) const;

  /// The fixed node `node`'s message is addressed to in (phase, step).
  Rank partner(Rank node, int phase, int step) const;

  /// The forwarding predicate of one (node, phase, step), hoisted out
  /// of per-block loops. Every rule compares one per-dimension class of
  /// the block's destination (coord/4 for scatter, (coord%4)/2 for the
  /// quarter exchange, coord%2 for the pair exchange) along the step's
  /// dimension against the holder's own class, so a test is a column
  /// pointer, a stride and a class: one load and one compare per block.
  class SendTest {
   public:
    /// Should the holder include `b` in this (phase, step) message?
    bool operator()(const Block& b) const { return class_of(b.dest) != own_; }
    /// `dest`'s class along the step's dimension.
    int class_of(Rank dest) const { return column_[static_cast<std::ptrdiff_t>(dest) * stride_]; }
    /// The holder's class along the step's dimension.
    int own_class() const { return own_; }

   private:
    friend class SuhShinAape;
    SendTest(const std::int16_t* column, std::ptrdiff_t stride, int own)
        : column_(column), stride_(stride), own_(own) {}

    const std::int16_t* column_;
    std::ptrdiff_t stride_;
    int own_;
  };

  /// The (phase, step) forwarding predicate of `node`; valid while this
  /// schedule lives. For scatter phases it is step-independent.
  SendTest send_test(Rank node, int phase, int step) const;

  /// Forwarding predicate: should `node` include block `b` in its
  /// (phase, step) message? Per-block loops take send_test() once
  /// instead.
  bool should_send(Rank node, int phase, int step, const Block& b) const {
    return send_test(node, phase, step)(b);
  }

 private:
  void precompute();

  int scatter_dir_index(Rank node, int phase) const {
    return (phase - 1) * torus_.shape().num_nodes() + node;
  }
  int per_dim_index(Rank node, int dim) const { return node * num_dims() + dim; }

  Torus torus_;
  PatternConvention convention_;
  std::vector<int> scatter_steps_;  // per scatter phase; a1/4 - 1 on sorted shapes

  // Flat caches, indexed as noted above.
  std::vector<Direction> scatter_dirs_;    // [(phase-1) * N + node]
  std::vector<std::int8_t> quarter_dims_;  // [(step-1) * N + node]
  std::vector<int> pair_dims_;             // [step-1]
  // Class columns, one int16 type so a SendTest can point into any.
  std::vector<std::int16_t> sub_;          // [node * n + dim] = coord/4
  std::vector<std::int16_t> half_;         // [node * n + dim] = (coord%4)/2
  std::vector<std::int16_t> parity_;       // [node * n + dim] = coord%2
  std::vector<std::int8_t> mod4_;          // [node * n + dim] = coord%4
};

}  // namespace torex
