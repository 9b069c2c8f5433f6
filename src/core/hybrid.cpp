#include "core/hybrid.hpp"

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
                     kern::MatrixView<T> x) {
  const int n = u.mt();
  const int nb = u.nb();
  LUQR_REQUIRE(x.rows == n * nb,
               "back_substitute: rhs panel row count mismatch");
  // A zero-column panel may carry a null data pointer: slice nothing.
  if (x.cols == 0) return;
  auto xb = [&](int i) { return x.block(i * nb, 0, nb, x.cols); };
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
    auto xk = xb(k);
    // y <- b_k - sum_{j>k} U_kj x_j
    for (int j = k + 1; j < n; ++j)
      kern::gemm(kern::Trans::No, kern::Trans::No, T(-1), u.tile(k, j),
                 kern::ConstMatrixView<T>(xb(j)), T(1), xk, nullptr, nb);
    if (b1) {
      // x_k = A_kk^{-1} y = U^{-1} L^{-1} P y.
      kern::laswp(xk, rec->diag_piv, /*forward=*/true);
      kern::trsm(kern::Side::Left, kern::Uplo::Lower, kern::Trans::No,
                 kern::Diag::Unit, T(1), diag, xk);
    } else if (b2) {
      // x_k = A_kk^{-1} y = R^{-1} Q^T y.
      rec->diag_t->apply_qt(xk, xk);
    }
    kern::trsm(kern::Side::Left, kern::Uplo::Upper, kern::Trans::No,
               kern::Diag::NonUnit, T(1), diag, xk);
  }
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
                              kern::MatrixView<double>);
template void back_substitute(const TileMatrix<float>&,
                              const FactorizationStatsT<float>*,
                              kern::MatrixView<float>);

}  // namespace luqr::core
