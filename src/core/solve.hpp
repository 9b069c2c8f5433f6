// Public dense entry point: solve A x = b with the hybrid LU-QR algorithm.
//
// Handles tiling (including padding when N is not a multiple of nb, paper
// §II-D-2), carries the right-hand side through the factorization as extra
// tile columns (§II-D-1), and finishes with the panel back-substitution the
// retained factorization also uses (solve_augmented).
#pragma once

#include "core/hybrid.hpp"
#include "core/precision.hpp"
#include "kernels/dense.hpp"

namespace luqr::core {

/// Result of a dense solve. `x` and `stats` are always double-typed: a
/// reduced-precision solve widens its factors' trace and (F32_IR) refines
/// the solution back to f64; `report` says which precision ran and how the
/// refinement went.
struct SolveResult {
  Matrix<double> x;          ///< N x nrhs solution
  FactorizationStats stats;  ///< per-step LU/QR trace
  SolveReport report;        ///< precision + refinement outcome
};

/// Solve A x = b. `a` is N x N, `b` is N x nrhs, `nb` the tile size (any
/// positive value; N is padded internally when nb does not divide it).
SolveResult hybrid_solve(const Matrix<double>& a, const Matrix<double>& b,
                         Criterion& criterion, int nb,
                         const HybridOptions& options = {});

/// Build the augmented tiled matrix [A | b] with identity padding on the
/// square part and zero padding on the RHS rows. Exposed for drivers that
/// run hybrid_factor (or another factor pass) themselves and finish with
/// solve_augmented.
template <typename T>
TileMatrix<T> make_augmented(const Matrix<T>& a, const Matrix<T>& b, int nb);

/// Finish a fused solve: after the factor pass has transformed the RHS tile
/// columns of `aug`, copy their first `nrhs` columns into a dense panel,
/// back-substitute (core::back_substitute) and return the top `n_scalar`
/// rows — the N x nrhs solution. `nrhs` may be 0. Pass the factor pass's
/// stats when it may have run B1/B2 steps; nullptr otherwise.
template <typename T>
Matrix<T> solve_augmented(const TileMatrix<T>& aug,
                          const FactorizationStatsT<T>* stats, int n_scalar,
                          int nrhs);

}  // namespace luqr::core
