// The hybrid LU-QR step graph (paper Algorithm 1), written once.
//
// Given a DenseSource, the graph opens with a convert stage: one task per
// tile column that tiles that column's dense columns (A with identity
// padding, or the RHS B with zero padding) and, when a retained original is
// kept, copies A's columns into it in the same pass. Each convert task is
// declared a Write of its column's tiles, so step 0's tasks wait only for
// the columns they touch, and the remaining copies run on idle workers
// during the step-0 panel (PLASMA runs the same LAPACK-to-tile translation
// as tasks of the factorization's DAG). Without a source the graph factors
// tiles the caller filled beforehand.
//
// Every step k is then emitted into a TaskSink as a stream of tile tasks:
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
// maximum (and each convert task its column's norms to the baseline);
// max is order-insensitive, so every sink reports the same growth factor.
//
// The panel backup lives in one buffer per factorization, sized for the
// largest diagonal domain and reused by every step. The panel task that
// fills it declares it a Write and the restore task that reads it a Read,
// so the sink orders step k+1's backup after step k's restore.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/hybrid.hpp"
#include "core/task_sink.hpp"
#include "criteria/criteria.hpp"
#include "tile/process_grid.hpp"
#include "tile/tile_matrix.hpp"

namespace luqr::core {

/// Write tile column `tj` of the tiled [A | B]: A's columns with identity
/// padding for tj < tiles.mt(), B's with zero padding after them, and, for
/// A's columns, the same columns of `keep` when it is non-null. The one
/// routine behind DenseSource and make_augmented.
template <typename T, typename S>
void convert_dense_column(TileMatrix<T>& tiles, int tj, kern::ConstMatrixView<S> a,
                          kern::ConstMatrixView<S> b, Matrix<T>* keep);

/// The dense operands a StepGraph's convert stage tiles: the square system
/// matrix A, optionally a right-hand side B riding as extra tile columns
/// (the fused solve), and optionally `keep`, an n x n matrix that receives
/// a copy of A (a retained factorization's original; it may be created
/// with Matrix::for_overwrite). A and B may be held in double for a float
/// graph; the copy narrows them. The source only refers to its operands,
/// which must outlive the factorization.
template <typename T>
class DenseSource {
 public:
  /// A alone, copied into `keep` as well when it is non-null.
  template <typename S>
  explicit DenseSource(const Matrix<S>& a, Matrix<T>* keep = nullptr)
      : DenseSource(a, kern::ConstMatrixView<S>(), keep) {}
  /// [A | B], the fused solve.
  template <typename S>
  DenseSource(const Matrix<S>& a, const Matrix<S>& b)
      : DenseSource(a, b.cview(), nullptr) {
    LUQR_REQUIRE(b.rows() == a.rows(), "rhs row count mismatch");
  }

  int order() const { return n_; }        ///< rows (= columns) of A
  int rhs_cols() const { return nrhs_; }  ///< columns of B (0 without one)

  /// The tile grid the convert stage fills at tile size nb: ceil(n/nb)
  /// tile rows and square columns, plus ceil(nrhs/nb) RHS tile columns,
  /// left unset (TileMatrix::for_overwrite) since the stage writes it all.
  TileMatrix<T> tiles(int nb) const;

  /// Fill tile column `tj` of `tiles` (see convert_dense_column).
  void convert_column(TileMatrix<T>& tiles, int tj) const { column_(tiles, tj); }

 private:
  template <typename S>
  DenseSource(const Matrix<S>& a, kern::ConstMatrixView<S> b, Matrix<T>* keep)
      : n_(a.rows()), nrhs_(b.cols) {
    LUQR_REQUIRE(a.rows() == a.cols(), "system matrix must be square");
    LUQR_REQUIRE(keep == nullptr || (keep->rows() == n_ && keep->cols() == n_),
                 "retained copy must match the system matrix");
    column_ = [av = a.cview(), b, keep](TileMatrix<T>& tiles, int tj) {
      convert_dense_column(tiles, tj, av, b, keep);
    };
  }

  int n_ = 0;
  int nrhs_ = 0;
  std::function<void(TileMatrix<T>&, int)> column_;
};

template <typename T>
class StepGraph {
 public:
  /// Prepare to factor `a` in place (clears `log` when given). A null
  /// `criterion` makes every step a QR step with no panel stage — the
  /// pure tile-QR (HQR) baseline. With a `source`, `a` must have the shape
  /// source->tiles(nb) gives; its contents are written by the convert
  /// stage, so nothing may read `a` before the graph's tasks run.
  StepGraph(TileMatrix<T>& a, Criterion* criterion, const HybridOptions& options,
            TransformLogT<T>* log, const DenseSource<T>* source = nullptr);
  ~StepGraph();
  StepGraph(const StepGraph&) = delete;
  StepGraph& operator=(const StepGraph&) = delete;

  /// Tile steps of the factorization (tile rows of the square part).
  int steps() const { return n_; }

  /// Emit step k into `sink`. Step k's decision emits step k+1 through
  /// sink.advance, so emitting step 0 emits the whole graph, convert stage
  /// first. `sink` must outlive every emitted task.
  void emit(TaskSink& sink, int k);

  /// Once every emitted task has run: the per-step trace, the LU/QR counts
  /// and the growth factor.
  FactorizationStatsT<T> take_stats();

 private:
  struct Step;
  std::vector<int> panel_rows(int k) const;
  void emit_convert(TaskSink& sink);
  void convert(int j);
  void decide(TaskSink& sink, Step& s);
  void emit_lu(TaskSink& sink, Step& s);
  void emit_qr(TaskSink& sink, Step& s, StepLogT<T>* step_log);

  TileMatrix<T>& a_;
  Criterion* criterion_;
  HybridOptions options_;
  TransformLogT<T>* log_;
  const DenseSource<T>* source_;
  ProcessGrid grid_;
  int n_;
  // track_growth baseline: max tile norm of A (reduced by the convert tasks
  // when the graph has a source).
  std::atomic<double> initial_max_{0.0};
  // Panel backup of the current step (empty without a panel stage).
  std::vector<T> backup_;
  FactorizationStatsT<T> stats_;
  // Per-step state the tasks reference; kept alive until take_stats.
  std::vector<std::unique_ptr<Step>> steps_;
};

/// Factor `a` through the inline sink (see StepGraph for `criterion` and
/// `source`).
template <typename T>
FactorizationStatsT<T> factor_inline(TileMatrix<T>& a, Criterion* criterion,
                                     const HybridOptions& options,
                                     TransformLogT<T>* log,
                                     const DenseSource<T>* source = nullptr);

}  // namespace luqr::core
