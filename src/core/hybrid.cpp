#include "core/hybrid.hpp"

#include <utility>

#include "core/step_graph.hpp"
#include "kernels/blas.hpp"
#include "kernels/lapack.hpp"

namespace luqr::core {

template <typename T>
FactorizationStatsT<T> hybrid_factor(TileMatrix<T>& a, Criterion& criterion,
                                     const HybridOptions& options,
                                     TransformLogT<T>* log) {
  return factor_inline(a, &criterion, options, log);
}

template <typename T>
void back_substitute(const TileMatrix<T>& u, const FactorizationStatsT<T>* stats,
                     TileMatrix<T>& rhs, int first_col) {
  const int n = u.mt();
  for (int k = n - 1; k >= 0; --k) {
    const auto diag = u.tile(k, k);
    // B-variant LU steps leave the *original* A_kk factored in place of the
    // diagonal tile (block upper triangular result); replay its factors.
    const StepRecordT<T>* rec = nullptr;
    if (stats && k < static_cast<int>(stats->steps.size()) &&
        stats->steps[static_cast<std::size_t>(k)].kind == StepKind::LU) {
      rec = &stats->steps[static_cast<std::size_t>(k)];
    }
    const bool b1 = rec && rec->variant == LuVariant::B1;
    const bool b2 = rec && rec->variant == LuVariant::B2;
    for (int col = first_col; col < rhs.nt(); ++col) {
      auto bk = rhs.tile(k, col);
      // y <- b_k - sum_{j>k} U_kj x_j
      for (int j = k + 1; j < n; ++j)
        kern::gemm(kern::Trans::No, kern::Trans::No, T(-1), u.tile(k, j),
                   std::as_const(rhs).tile(j, col), T(1), bk);
      if (b1) {
        // x_k = A_kk^{-1} y = U^{-1} L^{-1} P y.
        kern::laswp(bk, rec->diag_piv, /*forward=*/true);
        kern::trsm(kern::Side::Left, kern::Uplo::Lower, kern::Trans::No,
                   kern::Diag::Unit, T(1), diag, bk);
      } else if (b2) {
        // x_k = A_kk^{-1} y = R^{-1} Q^T y.
        kern::unmqr(kern::Trans::Yes, diag, rec->diag_t->cview(), bk);
      }
      kern::trsm(kern::Side::Left, kern::Uplo::Upper, kern::Trans::No,
                 kern::Diag::NonUnit, T(1), diag, bk);
    }
  }
}

template <typename T>
void back_substitute(TileMatrix<T>& a, const FactorizationStatsT<T>* stats) {
  LUQR_REQUIRE(a.nt() > a.mt(), "back_substitute: no right-hand-side tile columns");
  back_substitute(a, stats, a, a.mt());
}

std::string to_string(StepKind k) { return k == StepKind::LU ? "LU" : "QR"; }

template FactorizationStatsT<double> hybrid_factor(TileMatrix<double>&,
                                                   Criterion&,
                                                   const HybridOptions&,
                                                   TransformLogT<double>*);
template FactorizationStatsT<float> hybrid_factor(TileMatrix<float>&,
                                                  Criterion&,
                                                  const HybridOptions&,
                                                  TransformLogT<float>*);
template void back_substitute(const TileMatrix<double>&,
                              const FactorizationStatsT<double>*,
                              TileMatrix<double>&, int);
template void back_substitute(const TileMatrix<float>&,
                              const FactorizationStatsT<float>*,
                              TileMatrix<float>&, int);
template void back_substitute(TileMatrix<double>&,
                              const FactorizationStatsT<double>*);
template void back_substitute(TileMatrix<float>&,
                              const FactorizationStatsT<float>*);

}  // namespace luqr::core
