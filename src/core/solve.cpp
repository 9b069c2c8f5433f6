#include "core/solve.hpp"

namespace luqr::core {

template <typename T>
TileMatrix<T> make_augmented(const Matrix<T>& a, const Matrix<T>& b, int nb) {
  LUQR_REQUIRE(a.rows() == a.cols(), "system matrix must be square");
  LUQR_REQUIRE(b.rows() == a.rows(), "rhs row count mismatch");
  LUQR_REQUIRE(nb > 0, "tile size must be positive");
  const int n_scalar = a.rows();
  const int mt = (n_scalar + nb - 1) / nb;
  const int bt = (b.cols() + nb - 1) / nb;
  TileMatrix<T> aug(mt, mt + bt, nb);
  // Square part with identity padding (keeps the padded system nonsingular
  // and the padded solution tail exactly zero).
  for (int j = 0; j < mt * nb; ++j) {
    for (int i = 0; i < mt * nb; ++i) {
      if (i < n_scalar && j < n_scalar) {
        aug.at(i, j) = a(i, j);
      } else if (i == j) {
        aug.at(i, j) = T(1);
      }
    }
  }
  // RHS columns, zero padded.
  for (int j = 0; j < b.cols(); ++j)
    for (int i = 0; i < n_scalar; ++i) aug.at(i, mt * nb + j) = b(i, j);
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
  for (int j = 0; j < nrhs; ++j)
    for (int i = 0; i < mt * nb; ++i) x(i, j) = aug.at(i, mt * nb + j);
  back_substitute(aug, stats, x.view());
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

// hybrid_solve is a thin wrapper over the luqr::Solver facade; its
// definition lives in api/solver.cpp so this layer never includes upward.

}  // namespace luqr::core
