// The LU-On-Panel stage (paper §IV, Figure 1).
//
// At step k the diagonal-domain tiles of the panel are backed up, the
// stacked domain panel is LU-factored with partial pivoting (the paper uses
// PLASMA's recursive multi-threaded GETRF; we use our stacked GETRF — same
// mathematics), and the statistics every robustness criterion needs are
// collected from the whole panel. The factored tiles are written back in
// place; if the criterion later chooses QR, Propagate restores the backup.
#pragma once

#include <memory>
#include <vector>

#include "core/transform_log.hpp"
#include "criteria/criteria.hpp"
#include "tile/tile_matrix.hpp"

namespace luqr::core {

/// Result of the panel factor stage at step k. Templated on the working
/// scalar; the criterion statistics (PanelInfo) stay double at every
/// precision — reduced-precision panels widen their norms and pivots so the
/// per-panel LU-vs-QR decision runs through the exact same criteria.
template <typename T>
struct PanelFactorizationT {
  int k = 0;
  std::vector<int> domain_rows;  ///< tile rows of the diagonal domain, k first
  std::vector<int> piv;          ///< stacked-row pivots (0-based within the stack)
  int info = 0;                  ///< getrf info (0, or first zero pivot)
  PanelInfo stats;               ///< criterion inputs (norms, pivots, maxima)
  /// A2/B2: the diagonal tile was factored with GEQRT instead; this is its
  /// block reflector (empty for LU-factored panels).
  std::shared_ptr<ReflectorT<T>> diag_t;
  /// B2: the T factor of that GEQRT, for the step's right applies of Q^T
  /// (the eliminate tasks). It lives with the step, not in the retained
  /// reflector: no replay reads it.
  Matrix<T> diag_tfactor;
};

using PanelFactorization = PanelFactorizationT<double>;

/// Back up the domain tiles of column k into `backup` (domain_rows.size()
/// tiles, see TileMatrix::backup_column), gather the panel
/// statistics (tile 1-norms below the diagonal, per-column local/away
/// maxima), factor the stacked domain panel in place, and estimate
/// ||(A_kk^{(k)})^{-1}||_1 from the factors.
///
/// On return the domain tiles of column k hold the L\U factors of the
/// stacked panel; all other tiles are untouched. Row interchanges have NOT
/// been applied to trailing columns yet (that is the LU path's Apply).
template <typename T>
PanelFactorizationT<T> factor_panel(TileMatrix<T>& a, int k,
                                    const std::vector<int>& domain_rows,
                                    bool exact_inv_norm, T* backup);

/// Variant A2/B2 factor stage: GEQRT on the diagonal tile only (no
/// pivoting), its reflector recorded in `diag_t` (and its T factor in
/// `diag_tfactor` with `keep_t`); `backup` receives the diagonal tile.
/// Panel statistics are collected exactly as in factor_panel;
/// ||A_kk^{-1}||_1 is taken as ||R^{-1}||_1 (equal up to the orthogonal
/// factor) and the MUMPS pivots as |R_jj|.
template <typename T>
PanelFactorizationT<T> factor_panel_qr_tile(TileMatrix<T>& a, int k, T* backup,
                                            std::shared_ptr<ReflectorT<T>> diag_t,
                                            bool keep_t);

}  // namespace luqr::core
