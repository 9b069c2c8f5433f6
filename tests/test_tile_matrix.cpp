// Tests for the tiled container and the 2D block-cyclic process grid.
#include <gtest/gtest.h>

#include <limits>

#include "core/solve.hpp"
#include "core/step_graph.hpp"
#include "test_helpers.hpp"
#include "tile/process_grid.hpp"
#include "tile/tile_matrix.hpp"

namespace luqr {
namespace {

using luqr::testing::random_matrix;

TEST(TileMatrix, RoundTripDenseConversion) {
  const auto dense = random_matrix(24, 24, 1);
  auto tiled = TileMatrix<double>::from_dense(dense, 8);
  EXPECT_EQ(tiled.mt(), 3);
  EXPECT_EQ(tiled.nt(), 3);
  const auto back = tiled.to_dense(24, 24);
  for (int j = 0; j < 24; ++j)
    for (int i = 0; i < 24; ++i) EXPECT_DOUBLE_EQ(back(i, j), dense(i, j));
}

TEST(TileMatrix, GlobalElementAddressing) {
  TileMatrix<double> a(2, 2, 4);
  a.at(5, 6) = 42.0;  // tile (1,1), local (1,2)
  EXPECT_DOUBLE_EQ(a.tile(1, 1)(1, 2), 42.0);
  a.tile(0, 1)(3, 0) = -7.0;  // global (3, 4)
  EXPECT_DOUBLE_EQ(a.at(3, 4), -7.0);
}

TEST(TileMatrix, TilesAreContiguousColumnMajor) {
  TileMatrix<double> a(2, 2, 3);
  auto t = a.tile(1, 0);
  EXPECT_EQ(t.rows, 3);
  EXPECT_EQ(t.cols, 3);
  EXPECT_EQ(t.ld, 3);
  t(0, 0) = 1.0;
  t(2, 2) = 9.0;
  EXPECT_DOUBLE_EQ(*(t.data + 8), 9.0);  // last element of the tile buffer
}

TEST(TileMatrix, PaddingIsIdentity) {
  const auto dense = random_matrix(10, 10, 2);  // nb=4 -> padded to 12
  auto tiled = TileMatrix<double>::from_dense(dense, 4);
  EXPECT_EQ(tiled.rows(), 12);
  for (int i = 10; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      EXPECT_DOUBLE_EQ(tiled.at(i, j), i == j ? 1.0 : 0.0);
      EXPECT_DOUBLE_EQ(tiled.at(j, i), j == i ? 1.0 : 0.0);
    }
  }
}

TEST(TileMatrix, BackupRestoreColumn) {
  const auto dense = random_matrix(16, 16, 3);
  auto tiled = TileMatrix<double>::from_dense(dense, 4);
  // A non-contiguous domain, backed up in its listed order.
  const std::vector<int> rows = {3, 1, 2};
  std::vector<double> saved(rows.size() * 16);
  tiled.backup_column(1, rows, saved.data());
  for (std::size_t t = 0; t < rows.size(); ++t)
    EXPECT_EQ(saved[t * 16 + 5], tiled.tile(rows[t], 1)(1, 1));
  // Clobber and restore.
  for (int i : rows) kern::fill(tiled.tile(i, 1), -1.0);
  tiled.restore_column(1, rows, saved.data());
  const auto back = tiled.to_dense(16, 16);
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(back(i, j), dense(i, j));
}

// The convert stage's per-column routine against an element-wise reference,
// in both working precisions (float tiles narrow a double source in the
// same copy). Tiles start as NaN so an element the routine skips shows.
template <typename T>
class ConvertColumn : public ::testing::Test {};
using ConvertScalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(ConvertColumn, ConvertScalars);

template <typename T>
void poison(TileMatrix<T>& t) {
  for (int j = 0; j < t.nt(); ++j)
    for (int i = 0; i < t.mt(); ++i)
      kern::fill(t.tile(i, j), std::numeric_limits<T>::quiet_NaN());
}

// Expected element (i, j) of the tiled [A | B]: A narrowed, identity on the
// padded diagonal, B narrowed in the RHS tile columns, zeros elsewhere.
template <typename T>
T reference(const Matrix<double>& a, const Matrix<double>& b, int mt, int nb,
            int i, int j) {
  const int n = a.rows();
  if (j < mt * nb) {
    if (i < n && j < n) return static_cast<T>(a(i, j));
    return i == j ? T(1) : T(0);
  }
  const int c = j - mt * nb;
  return i < n && c < b.cols() ? static_cast<T>(b(i, c)) : T(0);
}

TYPED_TEST(ConvertColumn, TilesPaddingAndOriginalMatchElementwiseReference) {
  using T = TypeParam;
  const int nb = 8;
  for (int n : {4 * nb, 4 * nb + 5}) {
    for (int nrhs : {0, 1, nb + 3}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " nrhs=" << nrhs);
      const auto a = random_matrix(n, n, 100 + n);
      const auto b = random_matrix(n, nrhs, 200 + nrhs);
      const int mt = (n + nb - 1) / nb;

      // A alone, with the retained copy.
      Matrix<T> keep(n, n, std::numeric_limits<T>::quiet_NaN());
      const core::DenseSource<T> alone(a, &keep);
      TileMatrix<T> tiles = alone.tiles(nb);
      ASSERT_EQ(tiles.mt(), mt);
      ASSERT_EQ(tiles.nt(), mt);
      poison(tiles);
      for (int j = 0; j < tiles.nt(); ++j) alone.convert_column(tiles, j);
      for (int j = 0; j < tiles.cols(); ++j)
        for (int i = 0; i < tiles.rows(); ++i)
          ASSERT_EQ(tiles.at(i, j), (reference<T>(a, b, mt, nb, i, j)))
              << i << "," << j;
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          ASSERT_EQ(keep(i, j), static_cast<T>(a(i, j)))
              << "original " << i << "," << j;

      // [A | B] as the fused solve tiles it.
      const core::DenseSource<T> fused(a, b);
      TileMatrix<T> aug = fused.tiles(nb);
      ASSERT_EQ(aug.nt(), mt + (nrhs + nb - 1) / nb);
      poison(aug);
      for (int j = 0; j < aug.nt(); ++j) fused.convert_column(aug, j);
      for (int j = 0; j < aug.cols(); ++j)
        for (int i = 0; i < aug.rows(); ++i)
          ASSERT_EQ(aug.at(i, j), (reference<T>(a, b, mt, nb, i, j))) << i << "," << j;

      // The same-precision routes share the routine: from_dense,
      // make_augmented, and back out through to_dense.
      using luqr::testing::converted;
      const auto at = converted<T>(a);
      const auto bt = converted<T>(b);
      const auto from = TileMatrix<T>::from_dense(at, nb);
      const auto made = core::make_augmented(at, bt, nb);
      for (int j = 0; j < aug.cols(); ++j)
        for (int i = 0; i < aug.rows(); ++i) {
          ASSERT_EQ(made.at(i, j), aug.at(i, j)) << i << "," << j;
          if (j < from.cols()) {
            ASSERT_EQ(from.at(i, j), aug.at(i, j)) << i << "," << j;
          }
        }
      const auto back = aug.to_dense(n, aug.cols());
      for (int j = 0; j < back.cols(); ++j)
        for (int i = 0; i < n; ++i) ASSERT_EQ(back(i, j), aug.at(i, j));
    }
  }
}

TEST(TileMatrix, OutOfRangeTileThrows) {
  TileMatrix<double> a(2, 3, 4);
  EXPECT_THROW(a.tile(2, 0), Error);
  EXPECT_THROW(a.tile(0, 3), Error);
  EXPECT_THROW(a.tile(-1, 0), Error);
}

TEST(TileMatrix, RectangularGridForAugmentedSystems) {
  TileMatrix<double> a(3, 5, 4);  // 3x3 square part + 2 RHS tile columns
  EXPECT_EQ(a.rows(), 12);
  EXPECT_EQ(a.cols(), 20);
  a.at(11, 19) = 1.5;
  EXPECT_DOUBLE_EQ(a.tile(2, 4)(3, 3), 1.5);
}

TEST(TileMatrixFloat, WorksWithFloat) {
  TileMatrix<float> a(1, 1, 2);
  a.at(1, 1) = 2.5f;
  EXPECT_FLOAT_EQ(a.tile(0, 0)(1, 1), 2.5f);
}

// ---------------------------------------------------------------------------
// ProcessGrid
// ---------------------------------------------------------------------------

TEST(ProcessGrid, OwnershipIsBlockCyclic) {
  ProcessGrid g(4, 4);
  EXPECT_EQ(g.nodes(), 16);
  EXPECT_EQ(g.owner(0, 0), 0);
  EXPECT_EQ(g.owner(1, 0), 4);
  EXPECT_EQ(g.owner(0, 1), 1);
  EXPECT_EQ(g.owner(5, 6), (5 % 4) * 4 + (6 % 4));
}

TEST(ProcessGrid, DiagonalDomainRows) {
  ProcessGrid g(4, 4);
  // Step 1 of a 10-tile panel: rows congruent to 1 mod 4 starting at 1.
  EXPECT_EQ(g.diagonal_domain(1, 10), (std::vector<int>{1, 5, 9}));
  // Step 7: rows 7 only (11 > mt).
  EXPECT_EQ(g.diagonal_domain(7, 10), (std::vector<int>{7}));
}

TEST(ProcessGrid, SingleRowGridOwnsWholePanel) {
  ProcessGrid g(1, 4);
  const auto rows = g.diagonal_domain(2, 6);
  EXPECT_EQ(rows, (std::vector<int>{2, 3, 4, 5}));
}

TEST(ProcessGrid, PanelDomainsPartitionThePanel) {
  ProcessGrid g(3, 2);
  const int k = 2, mt = 11;
  const auto domains = g.panel_domains(k, mt);
  // First group must be the diagonal domain.
  EXPECT_EQ(domains[0], g.diagonal_domain(k, mt));
  // All rows k..mt-1 appear exactly once.
  std::vector<int> seen;
  for (const auto& d : domains) {
    EXPECT_FALSE(d.empty());
    for (int r : d) seen.push_back(r);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<int> expected;
  for (int i = k; i < mt; ++i) expected.push_back(i);
  EXPECT_EQ(seen, expected);
  // Each group is one grid row.
  for (const auto& d : domains)
    for (int r : d) EXPECT_EQ(g.row_rank(r), g.row_rank(d[0]));
}

TEST(ProcessGrid, LastStepHasSingleDomain) {
  ProcessGrid g(4, 1);
  const auto domains = g.panel_domains(9, 10);
  ASSERT_EQ(domains.size(), 1u);
  EXPECT_EQ(domains[0], (std::vector<int>{9}));
}

TEST(ProcessGrid, InvalidGridThrows) {
  EXPECT_THROW(ProcessGrid(0, 2), Error);
  EXPECT_THROW(ProcessGrid(2, -1), Error);
}

}  // namespace
}  // namespace luqr
