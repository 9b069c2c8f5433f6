#include <algorithm>
#include <limits>

#include "fault/fault.hpp"
#include "kernels/access.hpp"
#include "kernels/blas.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/pack.hpp"
#include "obs/kprof.hpp"

namespace luqr::kern {

namespace {

// Scale C by beta (handles beta == 0 without reading C, per BLAS semantics).
template <typename T>
void scale_c(T beta, const MatrixView<T>& c) {
  if (beta == T(1)) return;
  for (int j = 0; j < c.cols; ++j) {
    T* cj = &c(0, j);
    if (beta == T(0)) {
      for (int i = 0; i < c.rows; ++i) cj[i] = T(0);
    } else {
      for (int i = 0; i < c.rows; ++i) cj[i] *= beta;
    }
  }
}

// op(A)'s column count == the shared dimension k; also validates shapes.
template <typename T>
int checked_k(Trans transa, Trans transb, const ConstMatrixView<T>& a,
              const ConstMatrixView<T>& b, const MatrixView<T>& c) {
  const int opa_rows = transa == Trans::No ? a.rows : a.cols;
  const int opa_cols = transa == Trans::No ? a.cols : a.rows;
  const int opb_rows = transb == Trans::No ? b.rows : b.cols;
  const int opb_cols = transb == Trans::No ? b.cols : b.rows;
  LUQR_REQUIRE(opa_rows == c.rows && opb_cols == c.cols && opa_cols == opb_rows,
               "gemm dimension mismatch");
  return opa_cols;
}

// C += alpha * A * B with A (m x k), B (k x n), both untransposed.
// Column-major axpy form: C(:,j) += (alpha*B(l,j)) * A(:,l). No value-based
// short-circuit on B(l,j) == 0: skipping the axpy would drop a NaN/Inf
// carried by A (0 * NaN must propagate, as in BLAS).
template <typename T>
void gemm_nn(T alpha, const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
             const MatrixView<T>& c) {
  const int m = c.rows, n = c.cols, k = a.cols;
  for (int j = 0; j < n; ++j) {
    T* cj = &c(0, j);
    for (int l = 0; l < k; ++l) {
      const T blj = alpha * b(l, j);
      const T* al = &a(0, l);
      for (int i = 0; i < m; ++i) cj[i] += al[i] * blj;
    }
  }
}

// C += alpha * A^T * B: dot-product form, A (k x m), B (k x n).
template <typename T>
void gemm_tn(T alpha, const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
             const MatrixView<T>& c) {
  const int m = c.rows, n = c.cols, k = a.rows;
  for (int j = 0; j < n; ++j) {
    const T* bj = &b(0, j);
    for (int i = 0; i < m; ++i) {
      const T* ai = &a(0, i);
      T acc = T(0);
      for (int l = 0; l < k; ++l) acc += ai[l] * bj[l];
      c(i, j) += alpha * acc;
    }
  }
}

// C += alpha * A * B^T: axpy form over columns of C, A (m x k), B (n x k).
template <typename T>
void gemm_nt(T alpha, const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
             const MatrixView<T>& c) {
  const int m = c.rows, n = c.cols, k = a.cols;
  for (int j = 0; j < n; ++j) {
    T* cj = &c(0, j);
    for (int l = 0; l < k; ++l) {
      const T blj = alpha * b(j, l);
      const T* al = &a(0, l);
      for (int i = 0; i < m; ++i) cj[i] += al[i] * blj;
    }
  }
}

// C += alpha * A^T * B^T, A (k x m), B (n x k).
template <typename T>
void gemm_tt(T alpha, const ConstMatrixView<T>& a, const ConstMatrixView<T>& b,
             const MatrixView<T>& c) {
  const int m = c.rows, n = c.cols, k = a.rows;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const T* ai = &a(0, i);
      T acc = T(0);
      for (int l = 0; l < k; ++l) acc += ai[l] * b(j, l);
      c(i, j) += alpha * acc;
    }
  }
}

}  // namespace

template <typename T>
void gemm_unblocked(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                    ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  const int k = checked_k(transa, transb, a, b, c);
  scale_c(beta, c);
  if (alpha == T(0) || c.rows == 0 || c.cols == 0 || k == 0) return;
  if (transa == Trans::No && transb == Trans::No) {
    gemm_nn(alpha, a, b, c);
  } else if (transa == Trans::Yes && transb == Trans::No) {
    gemm_tn(alpha, a, b, c);
  } else if (transa == Trans::No && transb == Trans::Yes) {
    gemm_nt(alpha, a, b, c);
  } else {
    gemm_tt(alpha, a, b, c);
  }
}

template <typename T>
void gemm_blocked(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                  ConstMatrixView<T> b, T beta, MatrixView<T> c,
                  Workspace* wsp) {
  constexpr int MR = MicroTile<T>::MR;
  constexpr int NR = MicroTile<T>::NR;
  const int m = c.rows, n = c.cols;
  const int k = checked_k(transa, transb, a, b, c);
  scale_c(beta, c);
  if (alpha == T(0) || m == 0 || n == 0 || k == 0) return;

  const GemmBlocking& bl = gemm_blocking();
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  // Panel buffers sized to the smaller of the blocking limit and the actual
  // problem, rounded up to whole micro-panels.
  const int mc_cap = std::min((m + MR - 1) / MR * MR, (bl.mc + MR - 1) / MR * MR);
  const int nc_cap = std::min((n + NR - 1) / NR * NR, (bl.nc + NR - 1) / NR * NR);
  const int kc_cap = std::min(k, bl.kc);
  T* apack = ws.alloc<T>(static_cast<std::size_t>(mc_cap) * kc_cap);
  T* bpack = ws.alloc<T>(static_cast<std::size_t>(kc_cap) * nc_cap);
  alignas(kCacheLineBytes) T ctmp[MR * NR];

  for (int jc = 0; jc < n; jc += bl.nc) {
    const int nc = std::min(bl.nc, n - jc);
    for (int pc = 0; pc < k; pc += bl.kc) {
      const int kc = std::min(bl.kc, k - pc);
      pack_b_panel<T, NR>(transb, alpha, kc, nc, b, pc, jc, bpack);
      for (int ic = 0; ic < m; ic += bl.mc) {
        const int mc = std::min(bl.mc, m - ic);
        pack_a_panel<T, MR>(transa, mc, kc, a, ic, pc, apack);
        for (int jr = 0; jr < nc; jr += NR) {
          const int nr = std::min(NR, nc - jr);
          const T* bp = bpack + static_cast<std::ptrdiff_t>(jr) * kc;
          for (int ir = 0; ir < mc; ir += MR) {
            const int mr = std::min(MR, mc - ir);
            const T* ap = apack + static_cast<std::ptrdiff_t>(ir) * kc;
            T* cblk = &c(ic + ir, jc + jr);
            if (mr == MR && nr == NR) {
              microkernel<T>(kc, ap, bp, cblk, c.ld);
            } else {
              // Edge micro-tile: run full-width into a scratch tile, write
              // back only the live mr x nr corner (same summation order as
              // the aligned path: zero-init accumulate, then one add to C).
              for (int i = 0; i < MR * NR; ++i) ctmp[i] = T(0);
              microkernel<T>(kc, ap, bp, ctmp, MR);
              for (int j = 0; j < nr; ++j)
                for (int i = 0; i < mr; ++i)
                  cblk[i + static_cast<std::ptrdiff_t>(j) * c.ld] +=
                      ctmp[i + j * MR];
            }
          }
        }
      }
    }
  }
}

template <typename T>
void gemm(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
          ConstMatrixView<T> b, T beta, MatrixView<T> c, Workspace* ws,
          int dispatch_n) {
  // Audited-task footprint report (no-op without an installed listener).
  note_read(a);
  note_read(b);
  note_write(c);
  const int k = transa == Trans::No ? a.cols : a.rows;
  obs::KernelScope prof(obs::KernelClass::Gemm,
                        obs::gemm_model_flops(c.rows, c.cols, k));
  if (gemm_wants_blocked(c.rows, dispatch_n, k)) {
    gemm_blocked(transa, transb, alpha, a, b, beta, c, ws);
  } else {
    gemm_unblocked(transa, transb, alpha, a, b, beta, c);
  }
  // Fault site: poison one output element with a quiet NaN — downstream
  // layers must detect the non-finite result, never cache it, and recover.
  if (fault::should_fire(fault::site::kGemmNan) && c.rows > 0 && c.cols > 0)
    c(0, 0) = std::numeric_limits<T>::quiet_NaN();
}

template <typename T>
std::size_t gemm_pack_scratch_bytes(int m, int n, int k) {
  if (m <= 0 || n <= 0 || k <= 0) return 0;
  constexpr int MR = MicroTile<T>::MR;
  constexpr int NR = MicroTile<T>::NR;
  const GemmBlocking& bl = gemm_blocking();
  // Mirror of gemm_blocked's apack/bpack sizing; each alloc() rounds up to a
  // cache line independently, so account for both round-ups.
  const int mc_cap =
      std::min((m + MR - 1) / MR * MR, (bl.mc + MR - 1) / MR * MR);
  const int nc_cap =
      std::min((n + NR - 1) / NR * NR, (bl.nc + NR - 1) / NR * NR);
  const int kc_cap = std::min(k, bl.kc);
  const std::size_t a_bytes =
      static_cast<std::size_t>(mc_cap) * kc_cap * sizeof(T);
  const std::size_t b_bytes =
      static_cast<std::size_t>(kc_cap) * nc_cap * sizeof(T);
  return align_up(a_bytes, kCacheLineBytes) + align_up(b_bytes, kCacheLineBytes);
}

#define LUQR_INST(T)                                                          \
  template std::size_t gemm_pack_scratch_bytes<T>(int, int, int);             \
  template void gemm<T>(Trans, Trans, T, ConstMatrixView<T>,                  \
                        ConstMatrixView<T>, T, MatrixView<T>, Workspace*,     \
                        int);                                                 \
  template void gemm_blocked<T>(Trans, Trans, T, ConstMatrixView<T>,          \
                                ConstMatrixView<T>, T, MatrixView<T>,         \
                                Workspace*);                                  \
  template void gemm_unblocked<T>(Trans, Trans, T, ConstMatrixView<T>,        \
                                  ConstMatrixView<T>, T, MatrixView<T>);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern
