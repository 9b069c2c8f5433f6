#include <algorithm>
#include <vector>

#include "kernels/access.hpp"
#include "kernels/blas.hpp"
#include "kernels/pack.hpp"
#include "obs/kprof.hpp"

namespace luqr::kern {

namespace {

// Solve op(A) x = b in place for one column b, A triangular m x m.
template <typename T>
void solve_col(Uplo uplo, Trans trans, Diag diag, const ConstMatrixView<T>& a, T* b) {
  const int m = a.rows;
  const bool unit = diag == Diag::Unit;
  if (uplo == Uplo::Lower && trans == Trans::No) {
    // Forward substitution, axpy form.
    for (int l = 0; l < m; ++l) {
      if (!unit) b[l] /= a(l, l);
      const T bl = b[l];
      for (int i = l + 1; i < m; ++i) b[i] -= a(i, l) * bl;
    }
  } else if (uplo == Uplo::Upper && trans == Trans::No) {
    // Backward substitution, axpy form.
    for (int l = m - 1; l >= 0; --l) {
      if (!unit) b[l] /= a(l, l);
      const T bl = b[l];
      for (int i = 0; i < l; ++i) b[i] -= a(i, l) * bl;
    }
  } else if (uplo == Uplo::Lower && trans == Trans::Yes) {
    // L^T x = b: backward, dot form.
    for (int l = m - 1; l >= 0; --l) {
      T acc = b[l];
      for (int i = l + 1; i < m; ++i) acc -= a(i, l) * b[i];
      b[l] = unit ? acc : acc / a(l, l);
    }
  } else {
    // U^T x = b: forward, dot form.
    for (int l = 0; l < m; ++l) {
      T acc = b[l];
      for (int i = 0; i < l; ++i) acc -= a(i, l) * b[i];
      b[l] = unit ? acc : acc / a(l, l);
    }
  }
}

}  // namespace

template <typename T>
void trsm_unblocked(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                    ConstMatrixView<T> a, MatrixView<T> b) {
  LUQR_REQUIRE(a.rows == a.cols, "trsm: A must be square");
  const int m = b.rows, n = b.cols;
  LUQR_REQUIRE(side == Side::Left ? a.rows == m : a.rows == n,
               "trsm dimension mismatch");
  if (alpha != T(1)) {
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) b(i, j) *= alpha;
  }
  if (m == 0 || n == 0) return;

  if (side == Side::Left) {
    for (int j = 0; j < n; ++j) solve_col(uplo, trans, diag, a, &b(0, j));
    return;
  }

  // side == Right: solve X * op(A) = B column-block-wise; effectively a
  // triangular solve over the columns of B. The unit-diagonal case never
  // touches the diagonal entries (no divide, no read — a NaN parked there
  // must stay inert).
  const bool unit = diag == Diag::Unit;
  auto axpy_col = [&](int dst, int src, T coef) {
    if (coef == T(0)) return;
    T* d = &b(0, dst);
    const T* s = &b(0, src);
    for (int i = 0; i < m; ++i) d[i] -= s[i] * coef;
  };
  auto scale_col = [&](int j, T denom) {
    T* d = &b(0, j);
    for (int i = 0; i < m; ++i) d[i] /= denom;
  };
  const bool left_to_right = (uplo == Uplo::Upper) == (trans == Trans::No);
  if (left_to_right) {
    for (int j = 0; j < n; ++j) {
      for (int l = 0; l < j; ++l)
        axpy_col(j, l, trans == Trans::No ? a(l, j) : a(j, l));
      if (!unit) scale_col(j, a(j, j));
    }
  } else {
    for (int j = n - 1; j >= 0; --j) {
      for (int l = j + 1; l < n; ++l)
        axpy_col(j, l, trans == Trans::No ? a(l, j) : a(j, l));
      if (!unit) scale_col(j, a(j, j));
    }
  }
}

namespace {

// Blocked Left-side solve: unblocked solves on kb x kb diagonal blocks, the
// rest of the flops in one packed GEMM per block step. The inner GEMM is
// *unconditionally* the blocked kernel: its per-element sums depend only on
// KC, never on the RHS width, so — together with the per-column diagonal
// solves — every column of B sees identical arithmetic whether it is solved
// alone or as part of a wide panel (the invariance trsm_wants_blocked's
// width-free dispatch promises).
template <typename T>
void trsm_blocked_left(Uplo uplo, Trans trans, Diag diag, ConstMatrixView<T> a,
                       MatrixView<T> b, Workspace* ws) {
  const int m = b.rows, n = b.cols;
  constexpr int kb = kTrsmKB;
  const bool forward = (uplo == Uplo::Lower) == (trans == Trans::No);
  const int nblk = (m + kb - 1) / kb;
  for (int step = 0; step < nblk; ++step) {
    const int bi = forward ? step : nblk - 1 - step;
    const int b0 = bi * kb;
    const int bs = std::min(kb, m - b0);
    trsm_unblocked(Side::Left, uplo, trans, diag, T(1), a.block(b0, b0, bs, bs),
                   b.block(b0, 0, bs, n));
    if (forward) {
      const int rem = m - b0 - bs;
      if (rem == 0) continue;
      if (trans == Trans::No) {
        gemm_blocked(Trans::No, Trans::No, T(-1), a.block(b0 + bs, b0, rem, bs),
                     ConstMatrixView<T>(b.block(b0, 0, bs, n)), T(1),
                     b.block(b0 + bs, 0, rem, n), ws);
      } else {
        // op(A) = U^T: the sub-diagonal coefficients live above the diagonal.
        gemm_blocked(Trans::Yes, Trans::No, T(-1), a.block(b0, b0 + bs, bs, rem),
                     ConstMatrixView<T>(b.block(b0, 0, bs, n)), T(1),
                     b.block(b0 + bs, 0, rem, n), ws);
      }
    } else {
      if (b0 == 0) continue;
      if (trans == Trans::No) {
        gemm_blocked(Trans::No, Trans::No, T(-1), a.block(0, b0, b0, bs),
                     ConstMatrixView<T>(b.block(b0, 0, bs, n)), T(1),
                     b.block(0, 0, b0, n), ws);
      } else {
        // op(A) = L^T: the super-diagonal coefficients live below the diagonal.
        gemm_blocked(Trans::Yes, Trans::No, T(-1), a.block(b0, 0, bs, b0),
                     ConstMatrixView<T>(b.block(b0, 0, bs, n)), T(1),
                     b.block(0, 0, b0, n), ws);
      }
    }
  }
}

// Blocked Right-side solve over the columns of B (X * op(A) = B).
template <typename T>
void trsm_blocked_right(Uplo uplo, Trans trans, Diag diag, ConstMatrixView<T> a,
                        MatrixView<T> b, Workspace* ws) {
  const int m = b.rows, n = b.cols;
  constexpr int kb = kTrsmKB;
  const bool forward = (uplo == Uplo::Upper) == (trans == Trans::No);
  const int nblk = (n + kb - 1) / kb;
  for (int step = 0; step < nblk; ++step) {
    const int bi = forward ? step : nblk - 1 - step;
    const int b0 = bi * kb;
    const int bs = std::min(kb, n - b0);
    trsm_unblocked(Side::Right, uplo, trans, diag, T(1), a.block(b0, b0, bs, bs),
                   b.block(0, b0, m, bs));
    const ConstMatrixView<T> xblk(b.block(0, b0, m, bs));
    if (forward) {
      const int rem = n - b0 - bs;
      if (rem == 0) continue;
      if (trans == Trans::No) {
        gemm_blocked(Trans::No, Trans::No, T(-1), xblk,
                     a.block(b0, b0 + bs, bs, rem), T(1),
                     b.block(0, b0 + bs, m, rem), ws);
      } else {
        // op(A) = L^T: op(A)(block, j) = A(j, block)^T with j > block.
        gemm_blocked(Trans::No, Trans::Yes, T(-1), xblk,
                     a.block(b0 + bs, b0, rem, bs), T(1),
                     b.block(0, b0 + bs, m, rem), ws);
      }
    } else {
      if (b0 == 0) continue;
      if (trans == Trans::No) {
        gemm_blocked(Trans::No, Trans::No, T(-1), xblk, a.block(b0, 0, bs, b0),
                     T(1), b.block(0, 0, m, b0), ws);
      } else {
        // op(A) = U^T: op(A)(block, j) = A(j, block)^T with j < block.
        gemm_blocked(Trans::No, Trans::Yes, T(-1), xblk, a.block(0, b0, b0, bs),
                     T(1), b.block(0, 0, m, b0), ws);
      }
    }
  }
}

}  // namespace

template <typename T>
void trsm_blocked(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                  ConstMatrixView<T> a, MatrixView<T> b, Workspace* ws) {
  LUQR_REQUIRE(a.rows == a.cols, "trsm: A must be square");
  const int m = b.rows, n = b.cols;
  LUQR_REQUIRE(side == Side::Left ? a.rows == m : a.rows == n,
               "trsm dimension mismatch");
  if (alpha != T(1)) {
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < m; ++i) b(i, j) *= alpha;
  }
  if (m == 0 || n == 0) return;
  if (side == Side::Left) {
    trsm_blocked_left(uplo, trans, diag, a, b, ws);
  } else {
    trsm_blocked_right(uplo, trans, diag, a, b, ws);
  }
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          ConstMatrixView<T> a, MatrixView<T> b, Workspace* ws) {
  // Audited-task footprint report (no-op without an installed listener).
  note_read(a);
  note_write(b);
  LUQR_REQUIRE(a.rows == a.cols, "trsm: A must be square");
  const int m = b.rows, n = b.cols;
  LUQR_REQUIRE(side == Side::Left ? a.rows == m : a.rows == n,
               "trsm dimension mismatch");
  obs::KernelScope prof(obs::KernelClass::Trsm,
                        obs::trsm_model_flops(side == Side::Left, m, n));
  // Dispatch on the triangle dimension only (see trsm_wants_blocked).
  if (trsm_wants_blocked(a.rows)) {
    trsm_blocked(side, uplo, trans, diag, alpha, a, b, ws);
  } else {
    trsm_unblocked(side, uplo, trans, diag, alpha, a, b);
  }
}

namespace {

// B <- alpha op(A) B by in-place dot form over the stored triangle, per
// column of B. The traversal direction is chosen so each b(i, j) is
// overwritten only after every element that reads it: op(A) upper ->
// descending reads / ascending writes, op(A) lower -> the reverse. The inner
// loops are plain contiguous dots rather than a branchy triangle lambda.
template <typename T>
void trmm_left_unblocked(Uplo uplo, Trans trans, Diag diag, T alpha,
                         const ConstMatrixView<T>& a, const MatrixView<T>& b) {
  const int m = b.rows, n = b.cols;
  const bool unit = diag == Diag::Unit;
  const bool op_upper = (uplo == Uplo::Upper) == (trans == Trans::No);
  for (int j = 0; j < n; ++j) {
    T* bj = &b(0, j);
    if (op_upper) {
      for (int i = 0; i < m; ++i) {
        T acc = unit ? bj[i] : a(i, i) * bj[i];
        if (trans == Trans::No) {
          // Row i of upper A, elements l > i: strided read of A.
          for (int l = i + 1; l < m; ++l) acc += a(i, l) * bj[l];
        } else {
          // op(A) = L^T: column i of lower A below the diagonal.
          const T* ai = &a(0, i);
          for (int l = i + 1; l < m; ++l) acc += ai[l] * bj[l];
        }
        bj[i] = alpha * acc;
      }
    } else {
      for (int i = m - 1; i >= 0; --i) {
        T acc = unit ? bj[i] : a(i, i) * bj[i];
        if (trans == Trans::No) {
          for (int l = 0; l < i; ++l) acc += a(i, l) * bj[l];
        } else {
          // op(A) = U^T: column i of upper A above the diagonal.
          const T* ai = &a(0, i);
          for (int l = 0; l < i; ++l) acc += ai[l] * bj[l];
        }
        bj[i] = alpha * acc;
      }
    }
  }
}

}  // namespace

template <typename T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          ConstMatrixView<T> a, MatrixView<T> b) {
  note_read(a);
  note_write(b);
  LUQR_REQUIRE(a.rows == a.cols, "trmm: A must be square");
  const int m = b.rows, n = b.cols;
  LUQR_REQUIRE(side == Side::Left ? a.rows == m : a.rows == n,
               "trmm dimension mismatch");
  obs::KernelScope prof(obs::KernelClass::Trmm,
                        obs::trsm_model_flops(side == Side::Left, m, n));
  if (side == Side::Left) {
    trmm_left_unblocked(uplo, trans, diag, alpha, a, b);
  } else {
    // B <- alpha B op(A), in-place column axpy form: column j of the
    // result is a combination of the columns op(A) feeds it from (l <= j
    // when op(A) is upper, l >= j when lower), so
    // traversing columns away from the diagonal's feed direction —
    // descending for upper, ascending for lower — overwrites each column
    // only after every column that reads it. All inner loops are contiguous
    // column axpys (unit stride in B both sides), replacing the old per-row
    // triangle-lambda form that branched on storedness per element.
    const bool unit = diag == Diag::Unit;
    const bool op_upper = (uplo == Uplo::Upper) == (trans == Trans::No);
    const int jb = op_upper ? n - 1 : 0;
    const int je = op_upper ? -1 : n;
    const int jstep = op_upper ? -1 : 1;
    for (int j = jb; j != je; j += jstep) {
      T* bj = &b(0, j);
      const T djj = unit ? T(1) : a(j, j);
      if (djj != T(1))
        for (int i = 0; i < m; ++i) bj[i] *= djj;
      const int lb = op_upper ? 0 : j + 1;
      const int le = op_upper ? j : n;
      for (int l = lb; l < le; ++l) {
        const T coef = trans == Trans::No ? a(l, j) : a(j, l);
        const T* bl = &b(0, l);
        for (int i = 0; i < m; ++i) bj[i] += coef * bl[i];
      }
      if (alpha != T(1))
        for (int i = 0; i < m; ++i) bj[i] *= alpha;
    }
  }
}

#define LUQR_INST(T)                                                      \
  template void trsm<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>,  \
                        MatrixView<T>, Workspace*);                       \
  template void trsm_blocked<T>(Side, Uplo, Trans, Diag, T,              \
                                ConstMatrixView<T>, MatrixView<T>,       \
                                Workspace*);                              \
  template void trsm_unblocked<T>(Side, Uplo, Trans, Diag, T,            \
                                  ConstMatrixView<T>, MatrixView<T>);    \
  template void trmm<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>,  \
                        MatrixView<T>);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern
