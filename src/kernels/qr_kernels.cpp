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
  constexpr int jb = kPanelJB;
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
      // triangles. trmm's dot loops on the growing T1 (up to 96 at nb = 128)
      // dominated the whole factorization (measured >50% of the blocked
      // kernel at nb = 128). Two copies + packed GEMMs are far cheaper.
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

bool apply_wants_packed(int m, int n, int k) {
  return gemm_wants_blocked(m, n, k);
}

namespace {

// Elements that keep the next packed operand on a cache-line boundary.
template <typename T>
std::size_t line_elems(std::size_t count) {
  return align_up(count * sizeof(T), kCacheLineBytes) / sizeof(T);
}

// Bands of V^T and V per elimination kind (op(A) coordinates), and whether
// V's diagonal is GEQRT's implicit unit.
struct VBands {
  Band vt, v;
  bool unit;
};

VBands v_bands(QrKind kind) {
  switch (kind) {
    case QrKind::Geqrt: return {Band::Upper, Band::Lower, true};
    case QrKind::Ts: return {Band::Dense, Band::Dense, false};
    case QrKind::Tt: return {Band::Lower, Band::Upper, false};
  }
  throw Error("unknown reflector kind");
}

// op(T) of the upper-triangular T.
Band t_band(Trans trans) { return trans == Trans::No ? Band::Upper : Band::Lower; }

}  // namespace

template <typename T>
std::size_t PackedReflector<T>::size_for(QrKind kind, Trans trans, int m, int k) {
  const VBands b = v_bands(kind);
  return line_elems<T>(packed_a_elems<T>(k, m, b.vt)) +
         line_elems<T>(packed_a_elems<T>(m, k, b.v)) +
         line_elems<T>(packed_a_elems<T>(k, k, t_band(trans)));
}

template <typename T>
void PackedReflector<T>::pack(QrKind kind, Trans trans, ConstMatrixView<T> v,
                              ConstMatrixView<T> t, T* dst) {
  const int m = v.rows, k = v.cols;
  LUQR_REQUIRE(t.rows >= k && t.cols >= k &&
                   (kind != QrKind::Geqrt || m >= k) &&
                   (kind != QrKind::Tt || m == k),
               "reflector shape mismatch");
  const VBands b = v_bands(kind);
  kind_ = kind;
  trans_ = trans;
  data_ = dst;
  vt_ = pack_a_operand(Trans::Yes, v, b.vt, b.unit, dst);
  dst += line_elems<T>(packed_a_elems<T>(k, m, b.vt));
  v_ = pack_a_operand(Trans::No, v, b.v, b.unit, dst);
  dst += line_elems<T>(packed_a_elems<T>(m, k, b.v));
  t_ = pack_a_operand(trans, t.block(0, 0, k, k), t_band(trans), false, dst);
}

template <typename T>
PackedReflector<T>::PackedReflector(QrKind kind, Trans trans,
                                    ConstMatrixView<T> v, ConstMatrixView<T> t)
    : size_(size_for(kind, trans, v.rows, v.cols)), owned_(size_) {
  pack(kind, trans, v, t, owned_.data());
}

template <typename T>
PackedReflector<T>::PackedReflector(QrKind kind, Trans trans,
                                    ConstMatrixView<T> v, ConstMatrixView<T> t,
                                    Workspace& ws)
    : size_(size_for(kind, trans, v.rows, v.cols)) {
  pack(kind, trans, v, t, ws.alloc<T>(size_));
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
  if (apply_wants_packed(m, dn, k)) {
    unmqr(PackedReflector<T>(QrKind::Geqrt, trans, v, t, ws), c, &ws);
    return;
  }

  // Small tiles: trapezoidal loops, no value-based short-circuits (a NaN in
  // W must reach every row of C it mathematically touches).
  // W = V^T C with V unit lower trapezoidal (implicit unit diagonal).
  MatrixView<T> w(ws.alloc<T>(static_cast<std::size_t>(k) * n), k, n, k);
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

template <typename T>
void unmqr(const PackedReflector<T>& q, MatrixView<T> c, Workspace* wsp) {
  LUQR_REQUIRE(!q.empty() && q.kind() == QrKind::Geqrt && c.rows == q.rows(),
               "unmqr shape mismatch");
  note_access(q.data(), q.size() * sizeof(T), /*write=*/false);
  note_write(c);
  const int m = c.rows, n = c.cols, k = q.cols();
  if (m == 0 || n == 0 || k == 0) return;
  obs::KernelScope prof(obs::KernelClass::Unmqr,
                        obs::unmqr_model_flops(m, n, k));
  Workspace& ws = workspace_or_tls(wsp);
  Workspace::Frame frame(ws);
  MatrixView<T> w(ws.alloc<T>(static_cast<std::size_t>(k) * n), k, n, k);
  MatrixView<T> w2(ws.alloc<T>(static_cast<std::size_t>(k) * n), k, n, k);
  // W = V^T C; W2 = op(T) W; C <- C - V W2.
  gemm_packed_a(q.vt(), T(1), Trans::No, ConstMatrixView<T>(c), T(0), w, &ws);
  gemm_packed_a(q.t(), T(1), Trans::No, ConstMatrixView<T>(w), T(0), w2, &ws);
  gemm_packed_a(q.v(), T(-1), Trans::No, ConstMatrixView<T>(w2), T(1), c, &ws);
}

#define LUQR_INST(T)                                                          \
  template void geqrt<T>(MatrixView<T>, MatrixView<T>, Workspace*);           \
  template void geqrt_unblocked<T>(MatrixView<T>, MatrixView<T>, Workspace*); \
  template void geqrt_blocked<T>(MatrixView<T>, MatrixView<T>, Workspace*);   \
  template void unmqr<T>(Trans, ConstMatrixView<T>, ConstMatrixView<T>,       \
                         MatrixView<T>, Workspace*, int);                     \
  template void unmqr<T>(const PackedReflector<T>&, MatrixView<T>,            \
                         Workspace*);                                         \
  template class PackedReflector<T>;
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern
