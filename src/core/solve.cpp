#include "core/solve.hpp"

#include <algorithm>

#include "core/step_graph.hpp"

namespace luqr::core {

template <typename T>
TileMatrix<T> make_augmented(const Matrix<T>& a, const Matrix<T>& b, int nb) {
  // The convert stage's routine, run column by column on the caller:
  // identity padding on the square part, zero padding on the RHS rows.
  const DenseSource<T> source(a, b);
  TileMatrix<T> aug = source.tiles(nb);
  for (int j = 0; j < aug.nt(); ++j) source.convert_column(aug, j);
  return aug;
}

template <typename T>
Matrix<T> solve_augmented(const TileMatrix<T>& aug,
                          const FactorizationStatsT<T>* stats, int n_scalar,
                          int nrhs) {
  const int nb = aug.nb();
  const int mt = aug.mt();
  LUQR_REQUIRE(nrhs >= 0 && nrhs <= (aug.nt() - mt) * nb,
               "solve_augmented: more right-hand sides than RHS tile columns");
  Matrix<T> x(mt * nb, nrhs);
  const auto xv = x.view();
  for (int c0 = 0; c0 < nrhs; c0 += nb)
    aug.store_column(mt + c0 / nb,
                     xv.block(0, c0, xv.rows, std::min(nb, nrhs - c0)));
  back_substitute(aug, stats, xv);
  Matrix<T> top(n_scalar, nrhs);
  for (int j = 0; j < nrhs; ++j)
    for (int i = 0; i < n_scalar; ++i) top(i, j) = x(i, j);
  return top;
}

template TileMatrix<double> make_augmented(const Matrix<double>&,
                                           const Matrix<double>&, int);
template TileMatrix<float> make_augmented(const Matrix<float>&,
                                          const Matrix<float>&, int);
template Matrix<double> solve_augmented(const TileMatrix<double>&,
                                        const FactorizationStatsT<double>*, int,
                                        int);
template Matrix<float> solve_augmented(const TileMatrix<float>&,
                                       const FactorizationStatsT<float>*, int,
                                       int);

}  // namespace luqr::core
