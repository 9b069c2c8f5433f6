// The hybrid LU-QR factorization driver (paper Algorithm 1).
//
// At each step k:
//   1. Backup-Panel: save the diagonal-domain panel tiles.
//   2. LU-On-Panel: factor the stacked domain panel (partial pivoting,
//      local to one node) and collect the criterion statistics.
//   3. Check: the robustness criterion decides LU vs QR.
//   4. Propagate: on LU, replay the interchanges and run
//      Apply/Eliminate/Update with LU kernels; on QR, restore the panel
//      from the backup and run a hierarchical QR elimination step.
//
// Each step is written once, as a task graph (core/step_graph.hpp).
// hybrid_factor runs it through the inline sink on the calling thread;
// rt::parallel_hybrid_factor submits the same graph to the dataflow engine,
// so the two agree bitwise for every variant and precision.
//
// The right-hand side rides along as extra tile columns (§II-D-1), so after
// the loop the square part is tile upper triangular; back_substitute
// finishes the solve on the transformed RHS copied into a dense panel (the
// same routine the retained factorization's second pass ends with).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/transform_log.hpp"
#include "criteria/criteria.hpp"
#include "hqr/trees.hpp"
#include "tile/process_grid.hpp"
#include "tile/tile_matrix.hpp"

namespace luqr::core {

/// Where the factor stage may search for pivots (paper §II-A and §VI):
/// Tile = inside A_kk only (LU NoPiv's factor stage), Domain = the diagonal
/// domain (the paper's hybrid variant), Panel = the whole panel (LUPP).
enum class PivotScope { Tile, Domain, Panel };

enum class StepKind { LU, QR };

/// LU step variants (paper §II-C). All four compute the same Schur
/// complement A_ij - A_ik A_kk^{-1} A_kj; they differ in how the factor /
/// apply / eliminate stages realize it:
///   A1 (default): GETRF on the diagonal domain, SWPTRSM apply, TRSM
///                 eliminate — upper triangular result.
///   A2: GEQRT on the diagonal tile, ORMQR apply, TRSM eliminate against R —
///       upper triangular result; a QR fallback could reuse the factor.
///   B1: block LU — GETRF on the diagonal tile, eliminate with the full
///       A_kk^{-1}, row k untouched; the result is only *block* upper
///       triangular (the solve uses the stored diagonal factors).
///   B2: block LU with a GEQRT-factored diagonal tile.
enum class LuVariant { A1, A2, B1, B2 };

/// Per-step trace entry (drives the %LU-steps experiments and debugging).
/// Templated on the working scalar; criterion-facing statistics stay double
/// at every precision (the criteria are precision-agnostic).
template <typename T>
struct StepRecordT {
  int k = 0;
  StepKind kind = StepKind::LU;
  LuVariant variant = LuVariant::A1;
  double inv_norm_akk = 0.0;  ///< ||A_kk^{-1}||_1 seen by the criterion
  double max_below = 0.0;     ///< max tile 1-norm below the diagonal
  /// B1 only: the interchanges of the diagonal-tile GETRF (needed to apply
  /// A_kk^{-1} during the block back-substitution).
  std::vector<int> diag_piv;
  /// B2 only: the block-reflector factor of the diagonal-tile GEQRT.
  std::shared_ptr<ReflectorT<T>> diag_t;
};

using StepRecord = StepRecordT<double>;

/// Factorization configuration.
struct HybridOptions {
  int grid_p = 1;  ///< process-grid rows (domains = grid rows)
  int grid_q = 1;  ///< process-grid cols
  PivotScope scope = PivotScope::Domain;  ///< A1 only; A2/B1/B2 factor the tile
  LuVariant variant = LuVariant::A1;
  hqr::TreeConfig tree{};        ///< QR-step reduction trees
  bool exact_inv_norm = false;   ///< exact ||A_kk^{-1}||_1 instead of estimator
  bool track_growth = false;     ///< record the tile-norm growth factor
};

/// Factorization outcome and trace.
template <typename T>
struct FactorizationStatsT {
  std::vector<StepRecordT<T>> steps;
  int lu_steps = 0;
  int qr_steps = 0;
  /// max_k max_{ij} ||A^{(k)}_ij||_1 / max_{ij} ||A_ij||_1 over the trailing
  /// submatrices, when track_growth is set (the quantity bounded in §III).
  /// Reduced in double at every precision (same float tile norms, same
  /// double arithmetic, so serial==parallel stays bitwise).
  double growth_factor = 1.0;

  double lu_fraction() const {
    const int total = lu_steps + qr_steps;
    return total == 0 ? 0.0 : static_cast<double>(lu_steps) / total;
  }
};

using FactorizationStats = FactorizationStatsT<double>;

/// Factor the augmented tiled matrix in place. The first mt() tile columns
/// are the (square) system matrix; any further columns (e.g. the RHS) are
/// transformed alongside. After return the square part is tile upper
/// triangular (LU steps leave U rows, QR steps leave R rows) with the
/// eliminated V/L blocks stored below the diagonal.
///
/// When `log` is non-null, every transformation is recorded so it can be
/// replayed on fresh right-hand sides later (paper §II-D-1's second-pass
/// alternative; see core::Factorization for the retained-factorization API).
template <typename T>
FactorizationStatsT<T> hybrid_factor(TileMatrix<T>& a, Criterion& criterion,
                                     const HybridOptions& options = {},
                                     TransformLogT<T>* log = nullptr);

/// Back-substitution for the (tile or block) upper triangular factor `u`
/// produced by the step graph: solves U X = B in place, where `x` holds B as
/// one dense (mt*nb) x W panel (rows tiled like `u`'s, any width W >= 0).
/// Every kernel runs once per tile (pair) at the full width W with nb as its
/// dispatch width, so each column's bits are those of a one-column solve.
/// Only the square part of `u` is read. For factorizations that used the
/// B1/B2 variants, pass the stats so the block-diagonal solves can replay
/// the stored diagonal factors; A-variant factorizations may pass nullptr.
template <typename T>
void back_substitute(const TileMatrix<T>& u, const FactorizationStatsT<T>* stats,
                     kern::MatrixView<T> x);

std::string to_string(StepKind k);

}  // namespace luqr::core
