#include <algorithm>
#include <cmath>

#include "kernels/access.hpp"
#include "kernels/lapack.hpp"
#include "kernels/pack.hpp"
#include "obs/kprof.hpp"

namespace luqr::kern {

namespace {

// Generate an elementary Householder reflector H = I - tau v v^T with
// v = [1; x'] such that H [alpha; x] = [beta; 0]. On exit alpha = beta and
// x holds v[1:]. Returns tau (0 when x is already zero).
template <typename T>
T larfg(T& alpha, T* x, int n, int incx = 1) {
  T xnorm2 = T(0);
  for (int i = 0; i < n; ++i) {
    const T xi = x[i * incx];
    xnorm2 += xi * xi;
  }
  if (xnorm2 == T(0)) return T(0);
  const T beta = -std::copysign(std::sqrt(alpha * alpha + xnorm2), alpha);
  const T tau = (beta - alpha) / beta;
  const T scale = T(1) / (alpha - beta);
  for (int i = 0; i < n; ++i) x[i * incx] *= scale;
  alpha = beta;
  return tau;
}

}  // namespace

template <typename T>
void geqrt_unblocked(MatrixView<T> a, MatrixView<T> t, Workspace* wsp) {
  const int m = a.rows, n = a.cols;
  LUQR_REQUIRE(m >= n, "geqrt: m >= n required");
  LUQR_REQUIRE(t.rows >= n && t.cols >= n, "geqrt: T too small");
  fill(t.block(0, 0, n, n), T(0));
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  T* work = ws.alloc<T>(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    // Reflector for column j.
    const T tau = larfg(a(j, j), m > j + 1 ? &a(j + 1, j) : nullptr, m - j - 1);
    t(j, j) = tau;
    if (tau != T(0)) {
      // Apply (I - tau v v^T) to the trailing columns, v = [1; A(j+1:m, j)].
      for (int jj = j + 1; jj < n; ++jj) {
        T w = a(j, jj);
        for (int i = j + 1; i < m; ++i) w += a(i, j) * a(i, jj);
        w *= tau;
        a(j, jj) -= w;
        for (int i = j + 1; i < m; ++i) a(i, jj) -= a(i, j) * w;
      }
    }
    // T(0:j, j) = -tau * T(0:j, 0:j) * (V(:, 0:j)^T v_j): the forward
    // columnwise accumulation of the compact WY factor.
    if (j > 0 && tau != T(0)) {
      for (int i = 0; i < j; ++i) {
        T z = a(j, i);  // V(j, i), the unit of v_j hits row j of column i
        for (int r = j + 1; r < m; ++r) z += a(r, i) * a(r, j);
        work[i] = z;
      }
      for (int i = 0; i < j; ++i) {
        T acc = T(0);
        for (int l = i; l < j; ++l) acc += t(i, l) * work[l];
        t(i, j) = -tau * acc;
      }
    }
  }
}

// Blocked compact-WY factorization: factor a jb-wide panel with the
// unblocked loops, push the trailing-column update through unmqr (whose
// W = V^T C / C -= V W halves are packed GEMMs above the dispatch
// threshold), and accumulate the full T factor block-by-block with the
// standard coupling T12 = -T1 (V1^T V2) T2 — so downstream consumers
// (unmqr, the replay log) see exactly the same compact-WY convention the
// unblocked kernel produces.
template <typename T>
void geqrt_blocked(MatrixView<T> a, MatrixView<T> t, Workspace* wsp) {
  const int m = a.rows, n = a.cols;
  LUQR_REQUIRE(m >= n, "geqrt: m >= n required");
  LUQR_REQUIRE(t.rows >= n && t.cols >= n, "geqrt: T too small");
  // Zero the whole factor up front (like the unblocked kernel): the blocks
  // below the coupled diagonal are never written, and callers reuse T
  // storage across calls.
  fill(t.block(0, 0, n, n), T(0));
  Workspace& ws = workspace_or_tls(wsp);
  const int jb = panel_blocking().jb;
  for (int j0 = 0; j0 < n; j0 += jb) {
    const int bb = std::min(jb, n - j0);
    MatrixView<T> panel = a.block(j0, j0, m - j0, bb);
    MatrixView<T> t22 = t.block(j0, j0, bb, bb);
    geqrt_unblocked(panel, t22, wsp);
    const int ncols = n - j0 - bb;
    if (ncols > 0)
      unmqr(Trans::Yes, ConstMatrixView<T>(panel), ConstMatrixView<T>(t22),
            a.block(j0, j0 + bb, m - j0, ncols), wsp);
    if (j0 > 0) {
      Workspace::Frame frame(ws);
      // V2 densified: the unit-lower trapezoid of the factored panel.
      const int mrem = m - j0;
      MatrixView<T> v2(ws.alloc<T>(static_cast<std::size_t>(mrem) * bb), mrem,
                       bb, mrem);
      for (int j = 0; j < bb; ++j) {
        T* col = &v2(0, j);
        for (int i = 0; i < j; ++i) col[i] = T(0);
        col[j] = T(1);
        for (int i = j + 1; i < mrem; ++i) col[i] = panel(i, j);
      }
      // W = V1^T V2. V2 is zero in the rows above j0, so only the dense
      // below-j0 part of V1 (= the stored reflectors of the earlier panels)
      // contributes.
      MatrixView<T> w(ws.alloc<T>(static_cast<std::size_t>(j0) * bb), j0, bb,
                      j0);
      gemm(Trans::Yes, Trans::No, T(1),
           ConstMatrixView<T>(a.block(j0, 0, mrem, j0)),
           ConstMatrixView<T>(v2), T(0), w, wsp);
      // T12 = -T1 W T2, both triangular products through GEMM on densified
      // triangles: T1 grows to n - jb and the in-place TRMM's strided dot
      // loops would dominate the whole factorization (measured >50% of the
      // blocked kernel at nb = 128); two copies + packed GEMMs are far
      // cheaper.
      MatrixView<T> t1d(ws.alloc<T>(static_cast<std::size_t>(j0) * j0), j0, j0,
                        j0);
      for (int j = 0; j < j0; ++j) {
        T* col = &t1d(0, j);
        for (int i = 0; i <= j; ++i) col[i] = t(i, j);
        for (int i = j + 1; i < j0; ++i) col[i] = T(0);
      }
      MatrixView<T> t2d(ws.alloc<T>(static_cast<std::size_t>(bb) * bb), bb, bb,
                        bb);
      for (int j = 0; j < bb; ++j) {
        T* col = &t2d(0, j);
        for (int i = 0; i <= j; ++i) col[i] = t22(i, j);
        for (int i = j + 1; i < bb; ++i) col[i] = T(0);
      }
      MatrixView<T> w2(ws.alloc<T>(static_cast<std::size_t>(j0) * bb), j0, bb,
                       j0);
      gemm(Trans::No, Trans::No, T(1), ConstMatrixView<T>(t1d),
           ConstMatrixView<T>(w), T(0), w2, wsp);
      gemm(Trans::No, Trans::No, T(-1), ConstMatrixView<T>(w2),
           ConstMatrixView<T>(t2d), T(0), t.block(0, j0, j0, bb), wsp);
    }
  }
}

template <typename T>
void geqrt(MatrixView<T> a, MatrixView<T> t, Workspace* wsp) {
  // Audited-task footprint report (no-op without an installed listener).
  note_write(a);
  note_write(t);
  obs::KernelScope prof(obs::KernelClass::Geqrt,
                        obs::geqrt_model_flops(a.rows, a.cols));
  if (panel_wants_blocked(a.rows, a.cols)) {
    geqrt_blocked(a, t, wsp);
  } else {
    geqrt_unblocked(a, t, wsp);
  }
}

template <typename T>
void unmqr(Trans trans, ConstMatrixView<T> v, ConstMatrixView<T> t,
           MatrixView<T> c, Workspace* wsp, int dispatch_n) {
  note_read(v);
  note_read(t);
  note_write(c);
  const int m = c.rows, n = c.cols, k = v.cols;
  const int dn = dispatch_n > 0 ? dispatch_n : n;
  LUQR_REQUIRE(v.rows == m && t.rows >= k && t.cols >= k, "unmqr shape mismatch");
  if (m == 0 || n == 0 || k == 0) return;
  obs::KernelScope prof(obs::KernelClass::Unmqr,
                        obs::unmqr_model_flops(m, n, k));
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  MatrixView<T> w(ws.alloc<T>(static_cast<std::size_t>(k) * n), k, n, k);

  if (gemm_wants_blocked(k, dn, m)) {
    // Big tiles: materialize the unit-lower-trapezoidal V densely (the
    // upper triangle of its storage holds R and must read as zero, the
    // diagonal as one) so both halves of the compact-WY apply are packed
    // GEMMs — the W = V^T C / C -= V W shapes that dominate the QR step.
    MatrixView<T> vfull(ws.alloc<T>(static_cast<std::size_t>(m) * k), m, k, m);
    for (int j = 0; j < k; ++j) {
      T* col = &vfull(0, j);
      for (int i = 0; i < j; ++i) col[i] = T(0);
      col[j] = T(1);
      const T* src = &v(0, j);
      for (int i = j + 1; i < m; ++i) col[i] = src[i];
    }
    // W = V^T C.
    gemm(Trans::Yes, Trans::No, T(1), ConstMatrixView<T>(vfull),
         ConstMatrixView<T>(c), T(0), w, &ws, dn);
    // W <- op(T) W.
    trmm(Side::Left, Uplo::Upper, trans, Diag::NonUnit, T(1),
         t.block(0, 0, k, k), w);
    // C <- C - V W.
    gemm(Trans::No, Trans::No, T(-1), ConstMatrixView<T>(vfull),
         ConstMatrixView<T>(w), T(1), c, &ws, dn);
    return;
  }

  // Small tiles: trapezoidal loops, no value-based short-circuits (a NaN in
  // W must reach every row of C it mathematically touches).
  // W = V^T C with V unit lower trapezoidal (implicit unit diagonal).
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < k; ++i) {
      T acc = c(i, j);  // unit diagonal element of column i
      for (int r = i + 1; r < m; ++r) acc += v(r, i) * c(r, j);
      w(i, j) = acc;
    }
  }
  // W <- op(T) W.
  trmm(Side::Left, Uplo::Upper, trans, Diag::NonUnit, T(1),
       t.block(0, 0, k, k), w);
  // C <- C - V W.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < k; ++i) {
      const T wij = w(i, j);
      c(i, j) -= wij;  // unit diagonal
      for (int r = i + 1; r < m; ++r) c(r, j) -= v(r, i) * wij;
    }
  }
}

#define LUQR_INST(T)                                                          \
  template void geqrt<T>(MatrixView<T>, MatrixView<T>, Workspace*);           \
  template void geqrt_unblocked<T>(MatrixView<T>, MatrixView<T>, Workspace*); \
  template void geqrt_blocked<T>(MatrixView<T>, MatrixView<T>, Workspace*);   \
  template void unmqr<T>(Trans, ConstMatrixView<T>, ConstMatrixView<T>,       \
                         MatrixView<T>, Workspace*, int);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern
