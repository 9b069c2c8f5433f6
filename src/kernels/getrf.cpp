#include <algorithm>
#include <cmath>
#include <utility>

#include "fault/fault.hpp"
#include "kernels/access.hpp"
#include "kernels/lapack.hpp"
#include "kernels/pack.hpp"
#include "obs/kprof.hpp"

namespace luqr::kern {

namespace {

template <typename T>
void swap_rows(const MatrixView<T>& a, int r1, int r2) {
  if (r1 == r2) return;
  for (int j = 0; j < a.cols; ++j) std::swap(a(r1, j), a(r2, j));
}

// Shared right-looking elimination once the pivot row for column j is in
// place. Scales the multipliers and applies the rank-1 update column by
// column (cache-friendly in column-major storage).
template <typename T>
void eliminate_column(const MatrixView<T>& a, int j) {
  const int m = a.rows, n = a.cols;
  const T pivot = a(j, j);
  T* colj = &a(0, j);
  for (int i = j + 1; i < m; ++i) colj[i] /= pivot;
  for (int jj = j + 1; jj < n; ++jj) {
    const T ajj = a(j, jj);
    if (ajj == T(0)) continue;
    T* col = &a(0, jj);
    for (int i = j + 1; i < m; ++i) col[i] -= colj[i] * ajj;
  }
}

// The seed's unblocked right-looking factorization, with the pivot search
// for column j over {j} + [max(lo, j+1), m). lo == 0 is full partial
// pivoting; lo == m turns the search off entirely.
template <typename T>
int getrf_unblocked_impl(MatrixView<T> a, int lo, std::vector<int>& piv) {
  const int m = a.rows, n = a.cols;
  const int k = std::min(m, n);
  piv.assign(static_cast<std::size_t>(k), 0);
  int info = 0;
  for (int j = 0; j < k; ++j) {
    int imax = j;
    T vmax = std::abs(a(j, j));
    for (int i = std::max(lo, j + 1); i < m; ++i) {
      const T v = std::abs(a(i, j));
      if (v > vmax) {
        vmax = v;
        imax = i;
      }
    }
    piv[static_cast<std::size_t>(j)] = imax;
    swap_rows(a, j, imax);
    if (a(j, j) == T(0)) {
      if (info == 0) info = j + 1;
      continue;
    }
    eliminate_column(a, j);
  }
  return info;
}

// Blocked right-looking factorization: factor a jb-wide panel with the
// unblocked loops, replay its interchanges across the rest of the row block,
// solve the U12 strip against the panel's unit-lower factor, and fold the
// whole trailing update into one GEMM per block step — which is where the
// packed micro-kernel takes over. The pivot *choices* are identical to the
// unblocked algorithm (the panel sees exactly the same updated column values
// up to GEMM reassociation); the restricted search bound translates to the
// panel frame unchanged.
template <typename T>
int getrf_blocked_impl(MatrixView<T> a, int lo, std::vector<int>& piv,
                       Workspace* ws) {
  const int m = a.rows, n = a.cols;
  const int k = std::min(m, n);
  piv.assign(static_cast<std::size_t>(k), 0);
  int info = 0;
  constexpr int jb = kPanelJB;
  std::vector<int> piv_loc;
  for (int j0 = 0; j0 < k; j0 += jb) {
    const int bb = std::min(jb, k - j0);
    MatrixView<T> panel = a.block(j0, j0, m - j0, bb);
    const int pinfo = getrf_unblocked_impl(panel, std::max(lo - j0, 0), piv_loc);
    if (pinfo != 0 && info == 0) info = j0 + pinfo;
    for (int jj = 0; jj < bb; ++jj)
      piv[static_cast<std::size_t>(j0 + jj)] =
          piv_loc[static_cast<std::size_t>(jj)] + j0;
    // Replay the panel's interchanges on the columns left and right of it.
    if (j0 > 0) laswp(a.block(j0, 0, m - j0, j0), piv_loc, /*forward=*/true);
    const int ncols = n - j0 - bb;
    if (ncols > 0) {
      laswp(a.block(j0, j0 + bb, m - j0, ncols), piv_loc, /*forward=*/true);
      // U12 = L11^{-1} A12, then one Schur-complement GEMM.
      trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1),
           ConstMatrixView<T>(a.block(j0, j0, bb, bb)),
           a.block(j0, j0 + bb, bb, ncols), ws);
      const int mrem = m - j0 - bb;
      if (mrem > 0) {
        gemm(Trans::No, Trans::No, T(-1),
             ConstMatrixView<T>(a.block(j0 + bb, j0, mrem, bb)),
             ConstMatrixView<T>(a.block(j0, j0 + bb, bb, ncols)), T(1),
             a.block(j0 + bb, j0 + bb, mrem, ncols), ws);
      }
    }
  }
  return info;
}

}  // namespace

template <typename T>
int getrf(MatrixView<T> a, std::vector<int>& piv, Workspace* ws) {
  // Audited-task footprint report (no-op without an installed listener).
  note_write(a);
  // Fault site: report a singular panel without factoring — the caller
  // (factor_panel backs tiles up first) sees a genuine zero-pivot result
  // and takes its normal singularity path (QR fallback).
  if (fault::should_fire(fault::site::kGetrfSingular)) {
    piv.resize(static_cast<std::size_t>(std::min(a.rows, a.cols)));
    for (std::size_t j = 0; j < piv.size(); ++j) piv[j] = static_cast<int>(j);
    return 1;
  }
  obs::KernelScope prof(obs::KernelClass::Getrf,
                        obs::getrf_model_flops(a.rows, a.cols));
  if (panel_wants_blocked(a.rows, a.cols))
    return getrf_blocked_impl(a, /*lo=*/0, piv, ws);
  return getrf_unblocked_impl(a, /*lo=*/0, piv);
}

template <typename T>
int getrf_unblocked(MatrixView<T> a, std::vector<int>& piv) {
  return getrf_unblocked_impl(a, /*lo=*/0, piv);
}

template <typename T>
int getrf_blocked(MatrixView<T> a, std::vector<int>& piv, Workspace* ws) {
  return getrf_blocked_impl(a, /*lo=*/0, piv, ws);
}

template <typename T>
int getrf_nopiv(MatrixView<T> a) {
  note_write(a);
  obs::KernelScope prof(obs::KernelClass::Getrf,
                        obs::getrf_model_flops(a.rows, a.cols));
  const int k = std::min(a.rows, a.cols);
  int info = 0;
  for (int j = 0; j < k; ++j) {
    if (a(j, j) == T(0)) {
      if (info == 0) info = j + 1;
      continue;
    }
    eliminate_column(a, j);
  }
  return info;
}

template <typename T>
int getrf_restricted(MatrixView<T> a, int lo, std::vector<int>& piv,
                     Workspace* ws) {
  note_write(a);
  obs::KernelScope prof(obs::KernelClass::Getrf,
                        obs::getrf_model_flops(a.rows, a.cols));
  const int m = a.rows;
  LUQR_REQUIRE(lo >= 0 && lo <= m, "getrf_restricted: bad row bound");
  if (panel_wants_blocked(m, a.cols)) return getrf_blocked_impl(a, lo, piv, ws);
  return getrf_unblocked_impl(a, lo, piv);
}

template <typename T>
void laswp(MatrixView<T> a, const std::vector<int>& piv, bool forward) {
  note_write(a);
  obs::KernelScope prof(obs::KernelClass::Laswp, 0.0);
  const int k = static_cast<int>(piv.size());
  if (forward) {
    for (int j = 0; j < k; ++j) swap_rows(a, j, piv[static_cast<std::size_t>(j)]);
  } else {
    for (int j = k - 1; j >= 0; --j) swap_rows(a, j, piv[static_cast<std::size_t>(j)]);
  }
}

template <typename T>
void gessm(ConstMatrixView<T> lu, const std::vector<int>& piv, MatrixView<T> a) {
  note_read(lu);
  note_write(a);
  LUQR_REQUIRE(lu.rows == a.rows, "gessm dimension mismatch");
  obs::KernelScope prof(obs::KernelClass::Gessm,
                        obs::trsm_model_flops(true, a.rows, a.cols));
  laswp(a, piv, /*forward=*/true);
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1), lu, a);
}

#define LUQR_INST(T)                                                          \
  template int getrf<T>(MatrixView<T>, std::vector<int>&, Workspace*);        \
  template int getrf_unblocked<T>(MatrixView<T>, std::vector<int>&);          \
  template int getrf_blocked<T>(MatrixView<T>, std::vector<int>&,             \
                                Workspace*);                                  \
  template int getrf_nopiv<T>(MatrixView<T>);                                 \
  template int getrf_restricted<T>(MatrixView<T>, int, std::vector<int>&,     \
                                   Workspace*);                               \
  template void laswp<T>(MatrixView<T>, const std::vector<int>&, bool);       \
  template void gessm<T>(ConstMatrixView<T>, const std::vector<int>&,         \
                         MatrixView<T>);
LUQR_INST(double)
LUQR_INST(float)
#undef LUQR_INST

}  // namespace luqr::kern
