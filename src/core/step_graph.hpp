// The hybrid LU-QR step graph (paper Algorithm 1), written once.
//
// Every step k is emitted into a TaskSink as a stream of tile tasks:
//
//   panel    Backup-Panel + LU-On-Panel + criterion (the decision task; it
//            emits the rest of its step and then advances to step k+1 —
//            the paper's Propagate selection task)
//   LU path  A1: per-column swap + L11^{-1} apply, per-row eliminate of the
//                non-domain rows against U11
//            A2: per-column Q^T apply, per-row eliminate against R
//            B1/B2: per-row eliminate by the full A_kk^{-1}, row k untouched
//            then, for every variant, the per-tile GEMM Schur update
//   QR path  panel restore, then GEQRT/TSQRT/TTQRT factor tasks, each
//            fanning out per-column UNMQR/TSMQR/TTMQR updates along an HQR
//            elimination list
//
// Trailing columns include any right-hand-side tile columns riding along.
// With HybridOptions::track_growth, the task that performs the final write
// of a trailing tile in a step contributes that tile's norm to the step's
// maximum; max is order-insensitive, so every sink reports the same growth
// factor.
#pragma once

#include <memory>
#include <vector>

#include "core/hybrid.hpp"
#include "core/task_sink.hpp"
#include "criteria/criteria.hpp"
#include "tile/process_grid.hpp"
#include "tile/tile_matrix.hpp"

namespace luqr::core {

template <typename T>
class StepGraph {
 public:
  /// Prepare to factor `a` in place (clears `log` when given). A null
  /// `criterion` makes every step a QR step with no panel stage — the
  /// pure tile-QR (HQR) baseline.
  StepGraph(TileMatrix<T>& a, Criterion* criterion, const HybridOptions& options,
            TransformLogT<T>* log);
  ~StepGraph();
  StepGraph(const StepGraph&) = delete;
  StepGraph& operator=(const StepGraph&) = delete;

  /// Tile steps of the factorization (tile rows of the square part).
  int steps() const { return n_; }

  /// Emit step k into `sink`. Step k's decision emits step k+1 through
  /// sink.advance, so emitting step 0 emits the whole graph. `sink` must
  /// outlive every emitted task.
  void emit(TaskSink& sink, int k);

  /// Once every emitted task has run: the per-step trace, the LU/QR counts
  /// and the growth factor.
  FactorizationStatsT<T> take_stats();

 private:
  struct Step;
  void decide(TaskSink& sink, Step& s);
  void emit_lu(TaskSink& sink, Step& s);
  void emit_qr(TaskSink& sink, Step& s, StepLogT<T>* step_log);

  TileMatrix<T>& a_;
  Criterion* criterion_;
  HybridOptions options_;
  TransformLogT<T>* log_;
  ProcessGrid grid_;
  int n_;
  double initial_max_ = 0.0;  // track_growth baseline: max tile norm of A
  FactorizationStatsT<T> stats_;
  // Per-step state the tasks reference; kept alive until take_stats.
  std::vector<std::unique_ptr<Step>> steps_;
};

/// Factor `a` through the inline sink (see StepGraph for `criterion`).
template <typename T>
FactorizationStatsT<T> factor_inline(TileMatrix<T>& a, Criterion* criterion,
                                     const HybridOptions& options,
                                     TransformLogT<T>* log);

}  // namespace luqr::core
