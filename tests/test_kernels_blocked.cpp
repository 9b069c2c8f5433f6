// Tests for the packed cache-blocked GEMM and the workspace arena:
// randomized parity fuzz against the naive reference over all four
// transpose variants (odd shapes, ld > rows, the alpha/beta grid), the
// NaN/Inf propagation regression (the seed's zero-skip bug), determinism of
// the blocked path on and off engine workers, workspace reuse, tile
// alignment, and trmm parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "kernels/blas.hpp"
#include "kernels/pack.hpp"
#include "kernels/reference.hpp"
#include "runtime/engine.hpp"
#include "test_helpers.hpp"
#include "tile/tile_matrix.hpp"

namespace luqr::kern {
namespace {

using luqr::testing::expect_near;
using luqr::testing::random_matrix;

// ---------------------------------------------------------------------------
// Randomized parity fuzz: blocked vs reference loops
// ---------------------------------------------------------------------------

// A view with ld > rows: the top-left (rows x cols) corner of a larger
// allocation, so leading-dimension handling is exercised on both reads and
// writes.
struct Padded {
  Matrix<double> storage;
  MatrixView<double> view;
  Padded(int rows, int cols, int pad, std::uint64_t seed)
      : storage(random_matrix(rows + pad, cols, seed)),
        view(storage.view().block(0, 0, rows, cols)) {}
};

TEST(GemmBlockedFuzz, ParityAllVariantsShapesScales) {
  const double scales[] = {0.0, 1.0, -1.0, 0.5};
  Rng rng(20260729);
  for (int iter = 0; iter < 200; ++iter) {
    // Odd/awkward shapes around and below the micro-tile size, plus a few
    // larger than one cache block (kc = 256 by default).
    const int m = 1 + static_cast<int>(rng.uniform() * (iter % 5 == 0 ? 300 : 40));
    const int n = 1 + static_cast<int>(rng.uniform() * 40);
    const int k = 1 + static_cast<int>(rng.uniform() * (iter % 7 == 0 ? 300 : 40));
    const Trans ta = rng.uniform() < 0.5 ? Trans::No : Trans::Yes;
    const Trans tb = rng.uniform() < 0.5 ? Trans::No : Trans::Yes;
    const double alpha = scales[iter % 4];
    const double beta = scales[(iter / 4) % 4];
    const int pad = iter % 3 == 0 ? 7 : 0;  // ld > rows on every operand

    Padded a(ta == Trans::No ? m : k, ta == Trans::No ? k : m, pad, 1000 + iter);
    Padded b(tb == Trans::No ? k : n, tb == Trans::No ? n : k, pad, 2000 + iter);
    Padded c_blk(m, n, pad, 3000 + iter);
    Matrix<double> c_ref(m, n);
    copy(ConstMatrixView<double>(c_blk.view), c_ref.view());

    gemm_blocked(ta, tb, alpha, ConstMatrixView<double>(a.view),
                 ConstMatrixView<double>(b.view), beta, c_blk.view);
    ref_gemm(ta, tb, alpha, ConstMatrixView<double>(a.view),
             ConstMatrixView<double>(b.view), beta, c_ref.view());

    Matrix<double> c_out(m, n);
    copy(ConstMatrixView<double>(c_blk.view), c_out.view());
    expect_near(c_out, c_ref, 1e-12 * (k + 1), "blocked gemm vs reference");
  }
}

TEST(GemmBlockedFuzz, ParityFloat) {
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    const int m = 1 + static_cast<int>(rng.uniform() * 70);
    const int n = 1 + static_cast<int>(rng.uniform() * 30);
    const int k = 1 + static_cast<int>(rng.uniform() * 70);
    const Trans ta = iter % 2 ? Trans::No : Trans::Yes;
    const Trans tb = iter % 4 < 2 ? Trans::No : Trans::Yes;
    Matrix<float> a(ta == Trans::No ? m : k, ta == Trans::No ? k : m);
    Matrix<float> b(tb == Trans::No ? k : n, tb == Trans::No ? n : k);
    Matrix<float> c(m, n);
    Rng fill_rng(100 + iter);
    auto fill_mat = [&](Matrix<float>& x) {
      for (int j = 0; j < x.cols(); ++j)
        for (int i = 0; i < x.rows(); ++i)
          x(i, j) = static_cast<float>(fill_rng.gaussian());
    };
    fill_mat(a);
    fill_mat(b);
    fill_mat(c);
    auto c_ref = c;
    gemm_blocked(ta, tb, -1.0f, a.cview(), b.cview(), 0.5f, c.view());
    ref_gemm(ta, tb, -1.0f, a.cview(), b.cview(), 0.5f, c_ref.view());
    float max_diff = 0.0f;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i)
        max_diff = std::max(max_diff, std::abs(c(i, j) - c_ref(i, j)));
    EXPECT_LE(max_diff, 1e-4f * static_cast<float>(k + 1));
  }
}

// The dispatcher must agree with whichever path it picks (big product ->
// blocked, small -> simple loops).
TEST(GemmDispatch, MatchesChosenPathBitwise) {
  for (int size : {8, 96}) {
    const auto a = random_matrix(size, size, 1);
    const auto b = random_matrix(size, size, 2);
    auto c_dispatch = random_matrix(size, size, 3);
    auto c_direct = c_dispatch;
    gemm(Trans::No, Trans::No, -1.0, a.cview(), b.cview(), 1.0, c_dispatch.view());
    if (gemm_wants_blocked(size, size, size)) {
      gemm_blocked(Trans::No, Trans::No, -1.0, a.cview(), b.cview(), 1.0,
                   c_direct.view());
    } else {
      gemm_unblocked(Trans::No, Trans::No, -1.0, a.cview(), b.cview(), 1.0,
                     c_direct.view());
    }
    for (int j = 0; j < size; ++j)
      for (int i = 0; i < size; ++i)
        EXPECT_EQ(c_dispatch(i, j), c_direct(i, j));
  }
  // Sanity on the default threshold: a 64^3 tile product takes the blocked
  // path, a 8^3 one does not.
  EXPECT_TRUE(gemm_wants_blocked(64, 64, 64));
  EXPECT_FALSE(gemm_wants_blocked(8, 8, 8));
}

// ---------------------------------------------------------------------------
// NaN/Inf propagation (regression: the seed's `if (blj == 0) continue;`
// skipped the whole axpy, so a NaN/Inf in A never reached C through a zero
// entry of B)
// ---------------------------------------------------------------------------

TEST(GemmNanPropagation, ZeroInBDoesNotMaskNanInA) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int size : {6, 96}) {  // simple-loop path and blocked path
    auto run = [&](void (*impl)(Trans, Trans, double, ConstMatrixView<double>,
                                ConstMatrixView<double>, double,
                                MatrixView<double>, Workspace*)) {
      auto a = random_matrix(size, size, 1);
      Matrix<double> b(size, size);  // all-zero B
      a(size / 2, 0) = nan;
      auto c = random_matrix(size, size, 2);
      impl(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 1.0, c.view(),
           nullptr);
      // Column of A carrying the NaN multiplies a zero from every B entry:
      // 0 * NaN = NaN must land in C's whole middle row.
      for (int j = 0; j < size; ++j) EXPECT_TRUE(std::isnan(c(size / 2, j)));
    };
    run(&gemm<double>);
    run(&gemm_blocked<double>);
  }
}

TEST(GemmNanPropagation, InfTimesZeroProducesNan) {
  const double inf = std::numeric_limits<double>::infinity();
  Matrix<double> a(4, 4), b(4, 4);
  a(1, 2) = inf;  // meets b(2, j) == 0
  Matrix<double> c(4, 4);
  gemm_unblocked(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view());
  for (int j = 0; j < 4; ++j) EXPECT_TRUE(std::isnan(c(1, j)));
}

TEST(GemmNanPropagation, NtVariantAlsoFixed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto a = random_matrix(5, 5, 1);
  a(2, 3) = nan;
  Matrix<double> b(5, 5);  // zero B, transposed operand
  auto c = random_matrix(5, 5, 2);
  gemm_unblocked(Trans::No, Trans::Yes, 1.0, a.cview(), b.cview(), 1.0, c.view());
  for (int j = 0; j < 5; ++j) EXPECT_TRUE(std::isnan(c(2, j)));
}

// ---------------------------------------------------------------------------
// Determinism: same product, same bits — on the main thread and on any
// engine worker (blocking is fixed at config time, independent of threads)
// ---------------------------------------------------------------------------

TEST(GemmBlockedDeterminism, RepeatRunsBitwiseEqual) {
  const auto a = random_matrix(130, 70, 1);
  const auto b = random_matrix(70, 90, 2);
  auto c1 = random_matrix(130, 90, 3);
  auto c2 = c1;
  gemm_blocked(Trans::No, Trans::No, -1.0, a.cview(), b.cview(), 1.0, c1.view());
  gemm_blocked(Trans::No, Trans::No, -1.0, a.cview(), b.cview(), 1.0, c2.view());
  for (int j = 0; j < 90; ++j)
    for (int i = 0; i < 130; ++i) EXPECT_EQ(c1(i, j), c2(i, j));
}

TEST(GemmBlockedDeterminism, WorkerAndMainThreadBitwiseEqual) {
  const auto a = random_matrix(96, 96, 4);
  const auto b = random_matrix(96, 96, 5);
  auto c_main = random_matrix(96, 96, 6);
  auto c_worker = c_main;
  gemm_blocked(Trans::No, Trans::No, -1.0, a.cview(), b.cview(), 1.0,
               c_main.view());
  rt::Engine engine(2);
  engine.submit(
      [&] {
        gemm_blocked(Trans::No, Trans::No, -1.0, a.cview(), b.cview(), 1.0,
                     c_worker.view());
      },
      {{c_worker.data(), rt::Access::ReadWrite}});
  engine.wait_all();
  for (int j = 0; j < 96; ++j)
    for (int i = 0; i < 96; ++i) EXPECT_EQ(c_main(i, j), c_worker(i, j));
  EXPECT_GT(engine.workspace_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Workspace arena
// ---------------------------------------------------------------------------

TEST(Workspace, AllocationsAreCacheAligned) {
  Workspace ws;
  Workspace::Frame frame(ws);
  for (std::size_t n : {1u, 3u, 1000u, 100000u}) {
    auto* p = ws.alloc<double>(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes, 0u);
    p[0] = 1.0;  // touch
    p[n - 1] = 2.0;
  }
}

TEST(Workspace, FramesNestAndCapacityIsReused) {
  Workspace ws;
  {
    Workspace::Frame outer(ws);
    double* a = ws.alloc<double>(512);
    a[0] = 42.0;
    {
      Workspace::Frame inner(ws);
      double* b = ws.alloc<double>(100000);  // forces a second chunk
      b[99999] = 1.0;
      EXPECT_NE(a, b);
    }
    EXPECT_EQ(a[0], 42.0);  // inner frame never touched outer storage
  }
  const std::size_t after_first = ws.bytes_reserved();
  EXPECT_GT(after_first, 0u);
  // Steady state: repeating the same allocation pattern grows nothing.
  for (int i = 0; i < 10; ++i) {
    Workspace::Frame frame(ws);
    ws.alloc<double>(512);
    ws.alloc<double>(100000);
  }
  EXPECT_EQ(ws.bytes_reserved(), after_first);
}

TEST(Workspace, KernelsReuseArenaAcrossCalls) {
  // After a warm-up call, repeated identical GEMMs must not grow the
  // thread's arena (the per-task-allocation regression this PR removes).
  const auto a = random_matrix(128, 128, 1);
  const auto b = random_matrix(128, 128, 2);
  auto c = random_matrix(128, 128, 3);
  Workspace ws;
  gemm_blocked(Trans::No, Trans::No, -1.0, a.cview(), b.cview(), 1.0, c.view(),
               &ws);
  const std::size_t warm = ws.bytes_reserved();
  for (int i = 0; i < 5; ++i)
    gemm_blocked(Trans::No, Trans::No, -1.0, a.cview(), b.cview(), 1.0,
                 c.view(), &ws);
  EXPECT_EQ(ws.bytes_reserved(), warm);
}

// ---------------------------------------------------------------------------
// Tile alignment
// ---------------------------------------------------------------------------

TEST(TileAlignment, EveryTileStartsOnACacheLine) {
  for (int nb : {3, 8, 17, 48, 64}) {
    TileMatrix<double> a(3, 2, nb);
    for (int j = 0; j < a.nt(); ++j)
      for (int i = 0; i < a.mt(); ++i)
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.tile(i, j).data) %
                      kCacheLineBytes,
                  0u)
            << "tile (" << i << ", " << j << ") of nb = " << nb;
  }
}

TEST(TileAlignment, PaddedStridePreservesRoundTrip) {
  // nb chosen so nb*nb*sizeof(double) is not a multiple of 64: the stride
  // padding must stay invisible to dense round-trips.
  const auto dense = random_matrix(23, 31, 9);
  const auto tiled = TileMatrix<double>::from_dense(dense, 5);
  const auto back = tiled.to_dense(23, 31);
  expect_near(back, dense, 0.0, "tile round-trip");
}

// ---------------------------------------------------------------------------
// TRMM parity fuzz: in-place column form vs a dense materialized op(A)
// ---------------------------------------------------------------------------

// Materialize op(A) as a dense k x k matrix: zero outside the stored
// triangle, ones on the diagonal for Diag::Unit. Feeding the result through
// ref_gemm gives an order-independent reference for both sides.
template <typename T>
Matrix<T> dense_triangle(ConstMatrixView<T> a, Uplo uplo, Trans trans,
                         Diag diag) {
  const int k = a.rows;
  Matrix<T> opa(k, k);
  for (int c = 0; c < k; ++c)
    for (int r = 0; r < k; ++r) {
      const int rr = trans == Trans::No ? r : c;
      const int cc = trans == Trans::No ? c : r;
      const bool stored = uplo == Uplo::Lower ? rr >= cc : rr <= cc;
      if (!stored) continue;
      opa(r, c) = rr == cc && diag == Diag::Unit ? T(1) : a(rr, cc);
    }
  return opa;
}

template <typename T>
void trmm_fuzz_body(std::uint64_t seed, T tol) {
  const T scales[] = {T(1), T(-1), T(0.5), T(0)};
  Rng rng(seed);
  for (int iter = 0; iter < 160; ++iter) {
    const int m = 1 + static_cast<int>(rng.uniform() * 40);
    const int n = 1 + static_cast<int>(rng.uniform() * 40);
    const Side side = iter % 2 == 0 ? Side::Left : Side::Right;
    const Uplo uplo = (iter / 2) % 2 == 0 ? Uplo::Lower : Uplo::Upper;
    const Trans trans = (iter / 4) % 2 == 0 ? Trans::No : Trans::Yes;
    const Diag diag = (iter / 8) % 2 == 0 ? Diag::NonUnit : Diag::Unit;
    const T alpha = scales[(iter / 16) % 4];
    const int k = side == Side::Left ? m : n;

    Matrix<T> a(k, k);
    Matrix<T> b(m, n);
    for (int c = 0; c < k; ++c)
      for (int r = 0; r < k; ++r) a(r, c) = static_cast<T>(rng.gaussian());
    for (int c = 0; c < n; ++c)
      for (int r = 0; r < m; ++r) b(r, c) = static_cast<T>(rng.gaussian());

    const Matrix<T> opa = dense_triangle(a.cview(), uplo, trans, diag);
    Matrix<T> ref(m, n);
    if (side == Side::Left)
      ref_gemm(Trans::No, Trans::No, alpha, opa.cview(), b.cview(), T(0),
               ref.view());
    else
      ref_gemm(Trans::No, Trans::No, alpha, b.cview(), opa.cview(), T(0),
               ref.view());

    trmm(side, uplo, trans, diag, alpha, a.cview(), b.view());

    T worst = T(0);
    for (int c = 0; c < n; ++c)
      for (int r = 0; r < m; ++r)
        worst = std::max(worst, std::abs(b(r, c) - ref(r, c)));
    EXPECT_LE(worst, tol * static_cast<T>(k + 1))
        << "iter " << iter << " side=" << (side == Side::Left ? "L" : "R")
        << " uplo=" << (uplo == Uplo::Lower ? "lo" : "up")
        << " trans=" << (trans == Trans::No ? "N" : "T")
        << " diag=" << (diag == Diag::Unit ? "U" : "N") << " m=" << m
        << " n=" << n;
  }
}

TEST(TrmmFuzz, ParityAllVariantsDouble) { trmm_fuzz_body<double>(77001, 1e-13); }

TEST(TrmmFuzz, ParityAllVariantsFloat) {
  trmm_fuzz_body<float>(77002, 1e-4f);
}

TEST(TrmmFuzz, RightSideLeavesOtherColumnsExact) {
  // The Right-side column form updates column j from columns l != j: a
  // one-column triangle (k = 1) must reduce to a pure scale, bitwise.
  Matrix<double> a(1, 1);
  a(0, 0) = 3.0;
  Matrix<double> b = random_matrix(17, 1, 5);
  const Matrix<double> orig = b;
  trmm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 2.0, a.cview(),
       b.view());
  for (int i = 0; i < 17; ++i) EXPECT_EQ(b(i, 0), 2.0 * (3.0 * orig(i, 0)));
}

}  // namespace
}  // namespace luqr::kern
