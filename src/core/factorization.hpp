// Retained hybrid factorization: factor A once, solve many times.
//
// The fused-RHS driver (hybrid_solve) is the paper's experimental setup;
// this class is the §II-D-1 alternative it mentions: "at the end of the
// factorization, all needed information about the transformations is stored
// in place of A, so one can apply the transformations on b during a second
// pass". The factored tiles plus the TransformLog are exactly that
// information. The second pass is one replay of the log on a dense panel
// of the exact RHS width, finished by the same core::back_substitute the
// fused driver ends with; its result is bitwise the fused driver's, and
// each column's bits do not depend on how many other columns ride along.
//
// Also provides classical iterative refinement (Wilkinson): with the
// original A retained, each refinement sweep solves A d = b - A x using the
// existing factorization and updates x — squeezing extra accuracy out of
// LU-heavy (less stable) factorizations at O(N^2) cost per sweep.
//
// Two layers live here:
//   FactorizationT<T> — the precision-generic engine (tiles, log, replay,
//     back-substitution), instantiated for double and float.
//   Factorization — the public handle. F64 wraps a double engine directly;
//     F32/F32_IR wrap a float engine plus the retained f64 original, and
//     F32_IR solves run LU-IR: residual in f64 against the original,
//     corrections through the f32 factors, with an f64-refactorization
//     fallback when refinement stalls (see core/precision.hpp).
#pragma once

#include <memory>
#include <mutex>

#include "core/hybrid.hpp"
#include "core/precision.hpp"
#include "core/transform_log.hpp"
#include "kernels/dense.hpp"

namespace luqr::core {

/// The precision-generic retained factorization: factored tiles, transform
/// log, replay and back-substitution, all in the working scalar T.
template <typename T>
class FactorizationT {
 public:
  /// Factor `a` (square). The criterion decides LU vs QR per step exactly
  /// as in hybrid_solve. `a` itself is copied, padded and factored;
  /// the original is kept for residual computation (refinement).
  static FactorizationT compute(const Matrix<T>& a, Criterion& criterion,
                                int nb, const HybridOptions& options = {});

  /// Assemble a retained factorization from an externally driven factor
  /// pass — the parallel backend's path: tile `a` with from_dense, run
  /// rt::parallel_hybrid_factor over the tiles with a TransformLog, then
  /// adopt the factored tiles, stats and log. `original` is the unfactored
  /// A (kept for iterative refinement). The tiles/log must describe a
  /// factorization of exactly that matrix (padded per from_dense).
  static FactorizationT adopt(const Matrix<T>& original,
                              TileMatrix<T> factored,
                              FactorizationStatsT<T> stats,
                              TransformLogT<T> log,
                              const HybridOptions& options = {});

  /// Solve A X = B for a fresh right-hand side by replaying the recorded
  /// transformations and back-substituting. All W columns of B ride in one
  /// dense panel of the exact width W: every kernel runs once per tile
  /// (pair) at width W, dispatched as for an nb-wide tile, so column j of
  /// the result is bitwise the solve of B's column j alone, and bitwise the
  /// fused-RHS driver's answer (make_augmented + hybrid_factor +
  /// solve_augmented). `refinement_sweeps` extra passes of iterative
  /// refinement are applied (0 = plain solve), in the working precision T.
  ///
  /// Const and safe to call from many threads concurrently on the same
  /// FactorizationT: all state is read-only after construction, each solve
  /// works in its own buffers.
  Matrix<T> solve(const Matrix<T>& b, int refinement_sweeps = 0) const;

  const FactorizationStatsT<T>& stats() const { return stats_; }
  int order() const { return n_scalar_; }
  int tile_size() const { return factored_.nb(); }
  const Matrix<T>& matrix() const { return original_; }
  const HybridOptions& options() const { return options_; }
  std::size_t memory_bytes() const;

 private:
  FactorizationT() = default;

  /// Replay the recorded row transformations of all steps on one dense
  /// panel holding every RHS column at the exact width (rows padded to
  /// whole tiles).
  void apply_transformations(Matrix<T>& wb) const;

  int n_scalar_ = 0;
  TileMatrix<T> factored_;  ///< n x n tiles, upper part = U/R, lower = L/V
  Matrix<T> original_;      ///< the unfactored A (for refinement)
  FactorizationStatsT<T> stats_;
  TransformLogT<T> log_;
  HybridOptions options_;
};

/// A hybrid LU-QR factorization retained for repeated solves — the public,
/// precision-aware handle. F64 behaves exactly as before; F32/F32_IR hold a
/// float engine and the retained f64 original (see the header comment).
class Factorization {
 public:
  /// Factor `a` in double (Precision::F64). Unchanged legacy entry point.
  static Factorization compute(const Matrix<double>& a, Criterion& criterion,
                               int nb, const HybridOptions& options = {});

  /// Adopt an externally driven f64 factor pass (the parallel backend).
  static Factorization adopt(const Matrix<double>& original,
                             TileMatrix<double> factored,
                             FactorizationStats stats, TransformLog log,
                             const HybridOptions& options = {});

  /// Adopt an externally driven f32 factor pass (serial or parallel) as a
  /// reduced-precision factorization of the f64 `original`. The tiles/log
  /// must describe a float factorization of exactly float(original).
  /// `precision` selects F32 (plain reduced-precision solves) or F32_IR
  /// (refine to f64; `refine` caps/targets the loop). `fallback` — required
  /// for F32_IR — is the criterion spec an f64 fallback refactorization
  /// uses when refinement stalls (computed lazily, at most once, serially).
  static Factorization adopt_f32(const Matrix<double>& original,
                                 TileMatrix<float> factored,
                                 FactorizationStatsT<float> stats,
                                 TransformLogT<float> log,
                                 const HybridOptions& options,
                                 Precision precision,
                                 const RefineOptions& refine = {},
                                 const CriterionSpec* fallback = nullptr);

  /// Solve A X = B. F64: the historical path (refinement_sweeps of classic
  /// f64 refinement). F32: solve through the float factors, widen. F32_IR:
  /// LU-IR to the f64 tolerance, with fallback; `refinement_sweeps` is
  /// ignored (the IR loop subsumes it). Const and thread-safe.
  Matrix<double> solve(const Matrix<double>& b,
                       int refinement_sweeps = 0) const;

  /// Same, surfacing the per-solve precision/refinement outcome.
  Matrix<double> solve(const Matrix<double>& b, SolveReport* report,
                       int refinement_sweeps = 0) const;

  /// Step trace. For F32/F32_IR this is the float engine's trace widened to
  /// the double record type (diag_t factors stay with the engine).
  const FactorizationStats& stats() const;
  int order() const { return n_scalar_; }
  int tile_size() const { return nb_; }
  Precision precision() const { return precision_; }

  /// The unfactored f64 A this factorization was computed from (also what
  /// the serve cache compares against on a content-hash hit).
  const Matrix<double>& matrix() const {
    return f64_ ? f64_->matrix() : original_;
  }

  /// Approximate resident footprint: factored tiles + retained original +
  /// transformation log (pivot sequences and block-reflector T factors),
  /// plus the f64 fallback factorization once it has been materialized.
  /// What the serve FactorizationCache charges against its byte budget.
  std::size_t memory_bytes() const;

 private:
  Factorization() = default;

  /// F32/F32_IR: one correction solve through the float engine (narrow,
  /// solve, widen).
  Matrix<double> solve_through_f32(const Matrix<double>& rhs,
                                   int refinement_sweeps) const;

  /// F32_IR fallback: the f64 refactorization, computed lazily under a lock
  /// shared by all copies of this handle.
  const FactorizationT<double>& fallback_f64() const;

  Precision precision_ = Precision::F64;
  RefineOptions refine_;
  int n_scalar_ = 0;
  int nb_ = 0;
  std::shared_ptr<FactorizationT<double>> f64_;
  std::shared_ptr<FactorizationT<float>> f32_;
  Matrix<double> original_;         ///< f64 original (empty for F64: engine has it)
  FactorizationStats stats_summary_;  ///< widened f32 trace (F32/F32_IR)
  HybridOptions options_;
  bool has_fallback_spec_ = false;
  CriterionSpec fallback_spec_{};
  /// Lazily computed f64 fallback; shared_ptr keeps the handle movable.
  struct FallbackSlot {
    std::mutex mu;
    std::shared_ptr<FactorizationT<double>> fac;
  };
  std::shared_ptr<FallbackSlot> fallback_;
};

}  // namespace luqr::core
