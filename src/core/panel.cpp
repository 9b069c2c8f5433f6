#include <algorithm>
#include <cmath>
#include <utility>

#include "core/panel.hpp"
#include "kernels/lapack.hpp"
#include "kernels/norms.hpp"
#include "kernels/workspace.hpp"

namespace luqr::core {

using kern::ConstMatrixView;
using kern::MatrixView;

namespace {

// Pre-factorization statistics over the whole panel: tile 1-norms below the
// diagonal (Max/Sum criteria) and per-column maxima inside/outside the
// diagonal domain (MUMPS criterion). These are the values at the beginning
// of step k, collected concurrently with the factorization in the paper.
// Reduced-precision panels widen each scalar to double so every criterion
// sees the same PanelInfo type regardless of the working precision.
template <typename T>
void gather_panel_stats(const TileMatrix<T>& a, int k,
                        const std::vector<int>& domain_rows, PanelInfo& stats) {
  const int n = a.mt();
  const int nb = a.nb();
  std::vector<bool> in_domain(static_cast<std::size_t>(n), false);
  for (int r : domain_rows) in_domain[static_cast<std::size_t>(r)] = true;

  for (int i = k + 1; i < n; ++i)
    stats.below_tile_norms.push_back(static_cast<double>(
        kern::lange(kern::Norm::One, ConstMatrixView<T>(a.tile(i, k)))));
  stats.local_max.assign(static_cast<std::size_t>(nb), 0.0);
  stats.away_max.assign(static_cast<std::size_t>(nb), 0.0);
  for (int i = k; i < n; ++i) {
    auto tile = a.tile(i, k);
    auto& dst = in_domain[static_cast<std::size_t>(i)] ? stats.local_max
                                                       : stats.away_max;
    for (int j = 0; j < nb; ++j) {
      double m = 0.0;
      for (int r = 0; r < nb; ++r)
        m = std::max(m, std::abs(static_cast<double>(tile(r, j))));
      dst[static_cast<std::size_t>(j)] = std::max(dst[static_cast<std::size_t>(j)], m);
    }
  }
}

}  // namespace

template <typename T>
PanelFactorizationT<T> factor_panel(TileMatrix<T>& a, int k,
                                    const std::vector<int>& domain_rows,
                                    bool exact_inv_norm, T* backup) {
  const int n = a.mt();
  const int nb = a.nb();
  LUQR_REQUIRE(!domain_rows.empty() && domain_rows[0] == k,
               "factor_panel: domain must start at the diagonal row");

  PanelFactorizationT<T> pf;
  pf.k = k;
  pf.domain_rows = domain_rows;
  pf.stats.k = k;
  pf.stats.panel_rows = n - k;

  gather_panel_stats(a, k, domain_rows, pf.stats);
  std::as_const(a).backup_column(k, domain_rows, backup);

  // Stacked LU with partial pivoting over the domain.
  const int d = static_cast<int>(domain_rows.size());
  std::vector<T> stack_buf(static_cast<std::size_t>(d) * nb * nb);
  MatrixView<T> stack(stack_buf.data(), d * nb, nb, d * nb);
  for (int t = 0; t < d; ++t) {
    auto tile = a.tile(domain_rows[static_cast<std::size_t>(t)], k);
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i < nb; ++i) stack(t * nb + i, j) = tile(i, j);
  }
  pf.info = kern::getrf(stack, pf.piv);
  for (int t = 0; t < d; ++t) {
    auto tile = a.tile(domain_rows[static_cast<std::size_t>(t)], k);
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i < nb; ++i) tile(i, j) = stack(t * nb + i, j);
  }

  pf.stats.pivots.assign(static_cast<std::size_t>(nb), 0.0);
  for (int j = 0; j < nb; ++j)
    pf.stats.pivots[static_cast<std::size_t>(j)] =
        std::abs(static_cast<double>(stack(j, j)));
  pf.stats.factor_failed = pf.info != 0;
  if (!pf.stats.factor_failed) {
    // The pivoted diagonal tile is L11*U11 = the top nb x nb of the stack
    // (its permutation is external, so the factor pair needs no laswp).
    ConstMatrixView<T> top(stack.data, nb, nb, d * nb);
    const std::vector<int> no_piv;
    const double inv_norm = static_cast<double>(
        exact_inv_norm ? kern::norm1_inv_exact(top, no_piv)
                       : kern::norm1_inv_estimate(top, no_piv));
    pf.stats.inv_norm_akk = inv_norm;
    if (!std::isfinite(inv_norm)) pf.stats.factor_failed = true;
  }
  return pf;
}

template <typename T>
PanelFactorizationT<T> factor_panel_qr_tile(TileMatrix<T>& a, int k, T* backup,
                                            std::shared_ptr<ReflectorT<T>> diag_t,
                                            bool keep_t) {
  const int nb = a.nb();
  PanelFactorizationT<T> pf;
  pf.k = k;
  pf.domain_rows = {k};
  pf.stats.k = k;
  pf.stats.panel_rows = a.mt() - k;

  gather_panel_stats(a, k, pf.domain_rows, pf.stats);
  std::as_const(a).backup_column(k, pf.domain_rows, backup);

  auto tile = a.tile(k, k);
  {
    kern::Workspace& ws = kern::tls_workspace();
    kern::Workspace::Frame frame(ws);
    MatrixView<T> t(ws.alloc<T>(static_cast<std::size_t>(nb) * nb), nb, nb, nb);
    kern::geqrt(tile, t, &ws);
    diag_t->set(QrKind::Geqrt, ConstMatrixView<T>(tile), ConstMatrixView<T>(t));
    if (keep_t) {
      pf.diag_tfactor = Matrix<T>::for_overwrite(nb, nb);
      kern::copy(ConstMatrixView<T>(t), pf.diag_tfactor.view());
    }
  }
  pf.diag_t = std::move(diag_t);

  pf.stats.pivots.assign(static_cast<std::size_t>(nb), 0.0);
  for (int j = 0; j < nb; ++j)
    pf.stats.pivots[static_cast<std::size_t>(j)] =
        std::abs(static_cast<double>(tile(j, j)));
  // ||A_kk^{-1}||_1 = ||R^{-1} Q^T||_1; ||R^{-1}||_1 matches it up to the
  // orthogonal factor's norm equivalence, which is all the criteria need.
  const double inv_norm = static_cast<double>(
      kern::norm1_inv_upper_exact(ConstMatrixView<T>(tile)));
  pf.stats.inv_norm_akk = inv_norm;
  pf.stats.factor_failed = !std::isfinite(inv_norm);
  return pf;
}

template PanelFactorizationT<double> factor_panel(TileMatrix<double>&, int,
                                                  const std::vector<int>&, bool,
                                                  double*);
template PanelFactorizationT<float> factor_panel(TileMatrix<float>&, int,
                                                 const std::vector<int>&, bool,
                                                 float*);
template PanelFactorizationT<double> factor_panel_qr_tile(
    TileMatrix<double>&, int, double*, std::shared_ptr<ReflectorT<double>>, bool);
template PanelFactorizationT<float> factor_panel_qr_tile(
    TileMatrix<float>&, int, float*, std::shared_ptr<ReflectorT<float>>, bool);

}  // namespace luqr::core
