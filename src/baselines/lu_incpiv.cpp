#include "baselines/baselines.hpp"
#include "kernels/lapack.hpp"

namespace luqr::baselines {

core::SolveResult lu_incpiv_solve(const Matrix<double>& a, const Matrix<double>& b,
                                  int nb) {
  TileMatrix<double> aug = core::make_augmented(a, b, nb);
  const int n = aug.mt();
  const int nt = aug.nt();

  Matrix<double> l1(nb, nb);
  std::vector<int> piv;
  core::SolveResult result;
  for (int k = 0; k < n; ++k) {
    // Factor the diagonal tile (pivoting inside the tile), apply to its row.
    kern::getrf(aug.tile(k, k), piv);
    for (int j = k + 1; j < nt; ++j)
      kern::gessm(kern::ConstMatrixView<double>(aug.tile(k, k)), piv,
                  aug.tile(k, j));
    // Incremental pairwise pivoting down the panel: each row block refines
    // the U factor of the diagonal tile and eliminates itself.
    for (int i = k + 1; i < n; ++i) {
      kern::tstrf(aug.tile(k, k), aug.tile(i, k), l1.view(), piv);
      for (int j = k + 1; j < nt; ++j)
        kern::ssssm(l1.cview(), kern::ConstMatrixView<double>(aug.tile(i, k)), piv,
                    aug.tile(k, j), aug.tile(i, j));
    }
    core::StepRecord rec;
    rec.k = k;
    rec.kind = core::StepKind::LU;
    result.stats.steps.push_back(rec);
    ++result.stats.lu_steps;
  }
  result.x = core::solve_augmented<double>(aug, nullptr, a.rows(), b.cols());
  return result;
}

}  // namespace luqr::baselines
