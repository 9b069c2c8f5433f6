#include <cmath>

#include "kernels/access.hpp"
#include "kernels/lapack.hpp"
#include "kernels/pack.hpp"
#include "obs/kprof.hpp"

namespace luqr::kern {

template <typename T>
void ttqrt(MatrixView<T> r1, MatrixView<T> r2, MatrixView<T> t, Workspace* wsp) {
  // Audited-task footprint report (no-op without an installed listener).
  note_write(r1);
  note_write(r2);
  note_write(t);
  obs::KernelScope prof(obs::KernelClass::Ttqrt,
                        obs::ttqrt_model_flops(r1.cols));
  const int nb = r1.cols;
  LUQR_REQUIRE(r1.rows == nb && r2.rows == nb && r2.cols == nb, "ttqrt shape mismatch");
  LUQR_REQUIRE(t.rows >= nb && t.cols >= nb, "ttqrt: T too small");
  fill(t.block(0, 0, nb, nb), T(0));
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  T* work = ws.alloc<T>(static_cast<std::size_t>(nb));
  for (int j = 0; j < nb; ++j) {
    // Reflector from [R1(j,j); R2(0:j+1, j)] — both blocks upper triangular,
    // so the reflector touches only rows 0..j of R2 and V stays triangular.
    T xnorm2 = T(0);
    for (int i = 0; i <= j; ++i) xnorm2 += r2(i, j) * r2(i, j);
    T tau = T(0);
    if (xnorm2 != T(0)) {
      const T alpha = r1(j, j);
      const T beta = -std::copysign(std::sqrt(alpha * alpha + xnorm2), alpha);
      tau = (beta - alpha) / beta;
      const T scale = T(1) / (alpha - beta);
      for (int i = 0; i <= j; ++i) r2(i, j) *= scale;
      r1(j, j) = beta;
    }
    t(j, j) = tau;
    if (tau != T(0)) {
      // Update remaining columns; column jj gains fill only in rows 0..j of
      // R2, which stays within its upper triangle (j < jj).
      for (int jj = j + 1; jj < nb; ++jj) {
        T w = r1(j, jj);
        for (int i = 0; i <= j; ++i) w += r2(i, j) * r2(i, jj);
        w *= tau;
        r1(j, jj) -= w;
        for (int i = 0; i <= j; ++i) r2(i, jj) -= r2(i, j) * w;
      }
      if (j > 0) {
        // V(:, 0:j)^T v_j over the triangular bottom block.
        for (int i = 0; i < j; ++i) {
          T z = T(0);
          for (int rr = 0; rr <= i; ++rr) z += r2(rr, i) * r2(rr, j);
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
void ttmqr(Trans trans, ConstMatrixView<T> v, ConstMatrixView<T> t,
           MatrixView<T> c1, MatrixView<T> c2, Workspace* wsp,
           int dispatch_n) {
  note_read(v);
  note_read(t);
  note_write(c1);
  note_write(c2);
  obs::KernelScope prof(obs::KernelClass::Ttmqr,
                        obs::ttmqr_model_flops(c1.cols, v.cols));
  const int nb = v.cols, n = c1.cols;
  LUQR_REQUIRE(v.rows == nb && c1.rows == nb && c2.rows == nb && c2.cols == n,
               "ttmqr shape mismatch");
  if (n == 0) return;
  const int dn = dispatch_n > 0 ? dispatch_n : n;
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  MatrixView<T> z(ws.alloc<T>(static_cast<std::size_t>(nb) * n), nb, n, nb);
  copy(ConstMatrixView<T>(c1), z);

  if (gemm_wants_blocked(nb, dn, nb)) {
    // Big tiles: materialize the triangular V as a dense tile (the storage
    // below its diagonal belongs to earlier reflectors and must read as
    // zero) and ride the packed GEMM for both V^T C2 and V Z. The explicit
    // zeros double the nominal flop count but run at blocked-kernel speed,
    // which overtakes the short triangular loops well before nb = 64.
    MatrixView<T> vfull(ws.alloc<T>(static_cast<std::size_t>(nb) * nb), nb, nb, nb);
    for (int j = 0; j < nb; ++j) {
      T* col = &vfull(0, j);
      for (int i = 0; i <= j; ++i) col[i] = v(i, j);
      for (int i = j + 1; i < nb; ++i) col[i] = T(0);
    }
    // Z = C1 + V^T C2.
    gemm(Trans::Yes, Trans::No, T(1), ConstMatrixView<T>(vfull),
         ConstMatrixView<T>(c2), T(1), z, &ws, dn);
    trmm(Side::Left, Uplo::Upper, trans, Diag::NonUnit, T(1),
         t.block(0, 0, nb, nb), z);
    // C1 -= Z ; C2 -= V Z.
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < nb; ++i) c1(i, j) -= z(i, j);
    gemm(Trans::No, Trans::No, T(-1), ConstMatrixView<T>(vfull),
         ConstMatrixView<T>(z), T(1), c2, &ws, dn);
    return;
  }

  // Small tiles: triangular loops touch half the elements; no value-based
  // short-circuits (NaN/Inf in C2/Z must propagate).
  // Z = C1 + V^T C2 with V upper triangular.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < nb; ++i) {
      T acc = T(0);
      for (int r = 0; r <= i; ++r) acc += v(r, i) * c2(r, j);
      z(i, j) += acc;
    }
  }
  trmm(Side::Left, Uplo::Upper, trans, Diag::NonUnit, T(1),
       t.block(0, 0, nb, nb), z);
  // C1 -= Z ; C2 -= V Z (triangular V).
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < nb; ++i) c1(i, j) -= z(i, j);
    for (int i = 0; i < nb; ++i) {
      const T zij = z(i, j);
      for (int r = 0; r <= i; ++r) c2(r, j) -= v(r, i) * zij;
    }
  }
}

#define LUQR_INST(T)                                                      \
  template void ttqrt<T>(MatrixView<T>, MatrixView<T>, MatrixView<T>,     \
                         Workspace*);                                     \
  template void ttmqr<T>(Trans, ConstMatrixView<T>, ConstMatrixView<T>,   \
                         MatrixView<T>, MatrixView<T>, Workspace*, int);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern
