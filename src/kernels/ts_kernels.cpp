#include <cmath>

#include "kernels/access.hpp"
#include "kernels/lapack.hpp"
#include "obs/kprof.hpp"

namespace luqr::kern {

template <typename T>
void tsqrt(MatrixView<T> r, MatrixView<T> a, MatrixView<T> t, Workspace* wsp) {
  // Audited-task footprint report (no-op without an installed listener).
  note_write(r);
  note_write(a);
  note_write(t);
  obs::KernelScope prof(obs::KernelClass::Tsqrt,
                        obs::tsqrt_model_flops(a.rows, r.cols));
  const int nb = r.cols, m = a.rows;
  LUQR_REQUIRE(r.rows == nb && a.cols == nb, "tsqrt shape mismatch");
  LUQR_REQUIRE(t.rows >= nb && t.cols >= nb, "tsqrt: T too small");
  fill(t.block(0, 0, nb, nb), T(0));
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  T* work = ws.alloc<T>(static_cast<std::size_t>(nb));
  for (int j = 0; j < nb; ++j) {
    // Reflector from [R(j,j); A(:,j)] — the rows of R below j are zero and
    // stay zero, so v = [e_j; A(:,j)] with the unit carried by R's row j.
    T xnorm2 = T(0);
    for (int i = 0; i < m; ++i) xnorm2 += a(i, j) * a(i, j);
    T tau = T(0);
    if (xnorm2 != T(0)) {
      const T alpha = r(j, j);
      const T beta = -std::copysign(std::sqrt(alpha * alpha + xnorm2), alpha);
      tau = (beta - alpha) / beta;
      const T scale = T(1) / (alpha - beta);
      for (int i = 0; i < m; ++i) a(i, j) *= scale;
      r(j, j) = beta;
    }
    t(j, j) = tau;
    if (tau != T(0)) {
      // Update the remaining columns of the stacked tile.
      for (int jj = j + 1; jj < nb; ++jj) {
        T w = r(j, jj);
        for (int i = 0; i < m; ++i) w += a(i, j) * a(i, jj);
        w *= tau;
        r(j, jj) -= w;
        for (int i = 0; i < m; ++i) a(i, jj) -= a(i, j) * w;
      }
      // T(0:j, j): the top e_i / e_j parts are orthogonal, so only the
      // square V block contributes to V(:,0:j)^T v_j.
      if (j > 0) {
        for (int i = 0; i < j; ++i) {
          T z = T(0);
          for (int rr = 0; rr < m; ++rr) z += a(rr, i) * a(rr, j);
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
}

template <typename T>
void tsmqr(Trans trans, ConstMatrixView<T> v, ConstMatrixView<T> t,
           MatrixView<T> c1, MatrixView<T> c2, Workspace* wsp,
           int dispatch_n) {
  note_read(v);
  note_read(t);
  note_write(c1);
  note_write(c2);
  obs::KernelScope prof(obs::KernelClass::Tsmqr,
                        obs::tsmqr_model_flops(v.rows, c1.cols, v.cols));
  const int nb = v.cols, m = v.rows, n = c1.cols;
  LUQR_REQUIRE(c1.rows == nb && c2.rows == m && c2.cols == n, "tsmqr shape mismatch");
  if (n == 0) return;
  const int dn = dispatch_n > 0 ? dispatch_n : n;
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  if (apply_wants_packed(m, dn, nb)) {
    tsmqr(PackedReflector<T>(QrKind::Ts, trans, v, t, ws), c1, c2, &ws);
    return;
  }
  // Small tiles: Z = C1 + V^T C2 (the stacked reflectors are [I; V]).
  MatrixView<T> z(ws.alloc<T>(static_cast<std::size_t>(nb) * n), nb, n, nb);
  copy(ConstMatrixView<T>(c1), z);
  gemm(Trans::Yes, Trans::No, T(1), v, ConstMatrixView<T>(c2), T(1), z, &ws,
       dn);
  // Z <- op(T) Z.
  trmm(Side::Left, Uplo::Upper, trans, Diag::NonUnit, T(1),
       t.block(0, 0, nb, nb), z);
  // C1 -= Z ; C2 -= V Z.
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < nb; ++i) c1(i, j) -= z(i, j);
  gemm(Trans::No, Trans::No, T(-1), v, ConstMatrixView<T>(z), T(1), c2, &ws,
       dn);
}

template <typename T>
void tsmqr(const PackedReflector<T>& q, MatrixView<T> c1, MatrixView<T> c2,
           Workspace* wsp) {
  const int nb = q.cols(), m = q.rows(), n = c1.cols;
  LUQR_REQUIRE(!q.empty() && q.kind() == QrKind::Ts && c1.rows == nb &&
                   c2.rows == m && c2.cols == n,
               "tsmqr shape mismatch");
  note_access(q.data(), q.size() * sizeof(T), /*write=*/false);
  note_write(c1);
  note_write(c2);
  if (n == 0) return;
  obs::KernelScope prof(obs::KernelClass::Tsmqr,
                        obs::tsmqr_model_flops(m, n, nb));
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  MatrixView<T> z(ws.alloc<T>(static_cast<std::size_t>(nb) * n), nb, n, nb);
  MatrixView<T> w(ws.alloc<T>(static_cast<std::size_t>(nb) * n), nb, n, nb);
  // Z = C1 + V^T C2; W = op(T) Z; C1 -= W; C2 -= V W.
  copy(ConstMatrixView<T>(c1), z);
  gemm_packed_a(q.vt(), T(1), Trans::No, ConstMatrixView<T>(c2), T(1), z, &ws);
  gemm_packed_a(q.t(), T(1), Trans::No, ConstMatrixView<T>(z), T(0), w, &ws);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < nb; ++i) c1(i, j) -= w(i, j);
  gemm_packed_a(q.v(), T(-1), Trans::No, ConstMatrixView<T>(w), T(1), c2, &ws);
}

#define LUQR_INST(T)                                                      \
  template void tsqrt<T>(MatrixView<T>, MatrixView<T>, MatrixView<T>,     \
                         Workspace*);                                     \
  template void tsmqr<T>(Trans, ConstMatrixView<T>, ConstMatrixView<T>,   \
                         MatrixView<T>, MatrixView<T>, Workspace*, int);  \
  template void tsmqr<T>(const PackedReflector<T>&, MatrixView<T>,        \
                         MatrixView<T>, Workspace*);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern
