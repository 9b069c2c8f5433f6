#include "kernels/pack.hpp"

#include <algorithm>

#include "kernels/microkernel.hpp"

namespace luqr::kern {

bool gemm_wants_blocked(int m, int n, int k) {
  return static_cast<long long>(m) * n * k >= kGemmSmallMNK;
}

bool panel_wants_blocked(int m, int n) {
  // Blocking pays once there is more than one block step; m only has to be
  // large enough for the panel/GEMM split to exist at all.
  return n >= kPanelSmallN && n > kPanelJB && m > kPanelJB;
}

bool trsm_wants_blocked(int dim) {
  return dim >= kTrsmSmallM && dim > kTrsmKB;
}

template <typename T, int MR>
void pack_a_panel(Trans trans, int mc, int kc, ConstMatrixView<T> a, int i0,
                  int p0, T* dst) {
  for (int ir = 0; ir < mc; ir += MR) {
    const int mr = std::min(MR, mc - ir);
    if (trans == Trans::No) {
      // Panel rows are a column segment of A: contiguous reads.
      for (int l = 0; l < kc; ++l) {
        const T* col = &a(i0 + ir, p0 + l);
        T* d = dst + static_cast<std::ptrdiff_t>(l) * MR;
        for (int i = 0; i < mr; ++i) d[i] = col[i];
        for (int i = mr; i < MR; ++i) d[i] = T(0);
      }
    } else {
      // op(A) = A^T: panel row i is a column of A, read contiguously over l.
      for (int i = 0; i < mr; ++i) {
        const T* col = &a(p0, i0 + ir + i);
        T* d = dst + i;
        for (int l = 0; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * MR] = col[l];
      }
      for (int i = mr; i < MR; ++i) {
        T* d = dst + i;
        for (int l = 0; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * MR] = T(0);
      }
    }
    dst += static_cast<std::ptrdiff_t>(MR) * kc;
  }
}

template <typename T, int NR>
void pack_b_panel(Trans trans, T alpha, int kc, int nc, ConstMatrixView<T> b,
                  int p0, int j0, T* dst) {
  for (int jr = 0; jr < nc; jr += NR) {
    const int nr = std::min(NR, nc - jr);
    if (trans == Trans::No) {
      // Panel column j is a column segment of B: contiguous reads over l.
      for (int j = 0; j < nr; ++j) {
        const T* col = &b(p0, j0 + jr + j);
        T* d = dst + j;
        for (int l = 0; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * NR] = alpha * col[l];
      }
      for (int j = nr; j < NR; ++j) {
        T* d = dst + j;
        for (int l = 0; l < kc; ++l) d[static_cast<std::ptrdiff_t>(l) * NR] = T(0);
      }
    } else {
      // op(B) = B^T: panel row l is a column of B, contiguous over j.
      for (int l = 0; l < kc; ++l) {
        const T* col = &b(j0 + jr, p0 + l);
        T* d = dst + static_cast<std::ptrdiff_t>(l) * NR;
        for (int j = 0; j < nr; ++j) d[j] = alpha * col[j];
        for (int j = nr; j < NR; ++j) d[j] = T(0);
      }
    }
    dst += static_cast<std::ptrdiff_t>(NR) * kc;
  }
}

template <typename T>
std::size_t packed_a_elems(int rows, int depth, Band band) {
  constexpr int MR = MicroTile<T>::MR;
  std::size_t elems = 0;
  for (int i0 = 0; i0 < rows; i0 += MR) {
    int lo, hi;
    band_range(band, i0, std::min(MR, rows - i0), depth, lo, hi);
    elems += static_cast<std::size_t>(hi - lo) * MR;
  }
  return elems;
}

template <typename T>
PackedA<T> pack_a_operand(Trans trans, ConstMatrixView<T> a, Band band,
                          bool unit_diag, T* dst) {
  constexpr int MR = MicroTile<T>::MR;
  PackedA<T> out;
  out.rows = trans == Trans::No ? a.rows : a.cols;
  out.depth = trans == Trans::No ? a.cols : a.rows;
  out.band = band;
  out.data = dst;
  for (int i0 = 0; i0 < out.rows; i0 += MR) {
    const int mr = std::min(MR, out.rows - i0);
    int lo, hi;
    band_range(band, i0, mr, out.depth, lo, hi);
    for (int l = lo; l < hi; ++l) {
      T* d = dst + static_cast<std::ptrdiff_t>(l - lo) * MR;
      for (int i = 0; i < MR; ++i) {
        const int r = i0 + i;
        const bool live = i < mr && (band == Band::Dense ||
                                     (band == Band::Lower ? l <= r : l >= r));
        d[i] = !live                      ? T(0)
               : unit_diag && l == r      ? T(1)
               : trans == Trans::No       ? a(r, l)
                                          : a(l, r);
      }
    }
    dst += static_cast<std::ptrdiff_t>(hi - lo) * MR;
  }
  return out;
}

#define LUQR_INST(T)                                                        \
  template std::size_t packed_a_elems<T>(int, int, Band);                   \
  template PackedA<T> pack_a_operand<T>(Trans, ConstMatrixView<T>, Band,    \
                                        bool, T*);                          \
  template void pack_a_panel<T, MicroTile<T>::MR>(Trans, int, int,          \
                                                  ConstMatrixView<T>, int,  \
                                                  int, T*);                 \
  template void pack_b_panel<T, MicroTile<T>::NR>(Trans, T, int, int,       \
                                                  ConstMatrixView<T>, int,  \
                                                  int, T*);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern
