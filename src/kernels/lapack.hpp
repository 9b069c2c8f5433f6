// LAPACK/PLASMA-style tile factorization kernels, built from scratch.
//
// These are the exact kernels of the paper's Table I plus the incremental
// pivoting kernels used by the LU IncPiv baseline:
//
//   LU step (var A1):   GETRF, TRSM (eliminate), LASWP+TRSM (apply), GEMM
//   QR step (HQR):      GEQRT, UNMQR, TSQRT, TSMQR, TTQRT, TTMQR
//   LU IncPiv baseline: GETRF, GESSM, TSTRF, SSSSM
//
// Householder storage follows LAPACK's compact WY convention: a factored
// tile stores V below the diagonal (unit diagonal implicit) and R above; a
// separate upper-triangular T factor per tile gives Q = I - V T V^T with the
// "forward, columnwise" ordering.
//
// Definitions live in getrf.cpp / qr_kernels.cpp / ts_kernels.cpp /
// tt_kernels.cpp / incpiv_kernels.cpp, instantiated for float and double.
//
// Kernels that need scratch (the compact-WY applies and the panel
// factorizations' work vectors) take an optional Workspace*; nullptr means
// the calling thread's arena (each engine worker owns one). The apply
// kernels (TSMQR/TTMQR/UNMQR) route their W = V^T C / C -= V W products
// through the packed blocked GEMM above the gemm dispatch threshold.
//
// Each apply kernel also takes a dispatch width (0: C's own width). The
// kernel picks its densified-V/packed-GEMM branch or its loop branch — and
// its inner GEMMs their paths — as if C were that many columns wide. Every
// branch works column by column, so an apply to a W-wide C dispatched at
// width nb is bitwise equal to W/nb applies to nb-wide slices of it: the
// solve replays Q^T at the exact RHS width this way. Factor-path callers
// leave it at 0.
#pragma once

#include <vector>

#include "kernels/blas.hpp"
#include "kernels/matrix_view.hpp"
#include "kernels/workspace.hpp"

namespace luqr::kern {

// ---------------------------------------------------------------------------
// LU kernels
// ---------------------------------------------------------------------------

/// LU factorization with partial pivoting of an m x n view (m >= n allowed,
/// used both for single tiles and for stacked panel buffers):
///   P * A = L * U, L unit lower trapezoidal, U upper triangular.
/// piv[j] = row index (0-based, >= j) swapped with row j at step j.
/// Returns 0 on success or (j+1) of the first exactly-zero pivot (the
/// factorization keeps going with the zero pivot column skipped, matching
/// LAPACK's info semantics).
///
/// Above the panel dispatch threshold (panel_wants_blocked in
/// kernels/pack.hpp) the factorization is blocked right-looking: jb-wide
/// unblocked panels, one TRSM + one packed GEMM per block step. The blocking
/// is fixed at config time (LUQR_PANEL_JB / LUQR_PANEL_SMALL_N) and
/// thread-independent, so serial and parallel drivers stay bitwise equal.
template <typename T>
int getrf(MatrixView<T> a, std::vector<int>& piv, Workspace* ws = nullptr);

/// The seed's unblocked right-looking loops, unconditionally (small-panel
/// path; also the bench's baseline for the blocked panel's speedup).
template <typename T>
int getrf_unblocked(MatrixView<T> a, std::vector<int>& piv);

/// The blocked right-looking path, unconditionally (exposed for parity tests
/// and the panel bench).
template <typename T>
int getrf_blocked(MatrixView<T> a, std::vector<int>& piv,
                  Workspace* ws = nullptr);

/// LU factorization *without* any pivoting. Returns 0 or (j+1) of the first
/// zero pivot. Used by tests and the pure NoPiv ablation.
template <typename T>
int getrf_nopiv(MatrixView<T> a);

/// LU factorization with pivot search restricted to a caller-chosen row set:
/// at column j the pivot is chosen among row j and rows [lo, a.rows).
/// This is the pairwise/TSTRF search pattern generalized; piv as in getrf.
/// Dispatches blocked/unblocked exactly like getrf (the restricted bound
/// translates into each panel frame unchanged).
template <typename T>
int getrf_restricted(MatrixView<T> a, int lo, std::vector<int>& piv,
                     Workspace* ws = nullptr);

/// Apply the row interchanges recorded by getrf to another matrix:
/// forward (the order they were produced) or backward (inverse permutation).
template <typename T>
void laswp(MatrixView<T> a, const std::vector<int>& piv, bool forward = true);

// ---------------------------------------------------------------------------
// QR kernels (tile, TS and TT flavours)
// ---------------------------------------------------------------------------

/// GEQRT: QR factorization of an m x n tile (m >= n). On exit A holds R in
/// its upper triangle and the Householder vectors V below the diagonal
/// (implicit unit diagonal); t (n x n) holds the upper-triangular block
/// reflector factor with Q = I - V T V^T (forward columnwise convention).
///
/// Above the panel dispatch threshold the factorization is blocked: jb-wide
/// unblocked panels, the trailing columns updated through the compact-WY
/// apply (packed GEMMs), and the T factor accumulated block-by-block via
/// T12 = -T1 (V1^T V2) T2 — the same T the unblocked loops produce, in
/// GEMM-reassociated arithmetic.
template <typename T>
void geqrt(MatrixView<T> a, MatrixView<T> t, Workspace* ws = nullptr);

/// The seed's unblocked reflector-at-a-time loops, unconditionally (also the
/// bench's baseline for the blocked GEQRT's speedup).
template <typename T>
void geqrt_unblocked(MatrixView<T> a, MatrixView<T> t, Workspace* ws = nullptr);

/// The blocked GEQRT path, unconditionally (exposed for parity tests and the
/// panel bench).
template <typename T>
void geqrt_blocked(MatrixView<T> a, MatrixView<T> t, Workspace* ws = nullptr);

/// UNMQR: apply Q or Q^T from a GEQRT factorization to C (m x n), from the
/// left: C <- op(Q) C, with V m x k, T k x k.
template <typename T>
void unmqr(Trans trans, ConstMatrixView<T> v, ConstMatrixView<T> t, MatrixView<T> c,
           Workspace* ws = nullptr, int dispatch_n = 0);

/// TSQRT (triangle on top of square): QR factorization of the stacked tile
///   [ R ]   (nb x nb, upper triangular, updated in place)
///   [ A ]   (m x nb, full; on exit holds the square part of V)
/// t (nb x nb) receives the block reflector factor. The stacked reflectors
/// are [ I ; V ].
template <typename T>
void tsqrt(MatrixView<T> r, MatrixView<T> a, MatrixView<T> t, Workspace* ws = nullptr);

/// TSMQR: apply op(Q) from a TSQRT factorization to the stacked pair
///   [ C1 ]  (nb x n, the row of the eliminator)
///   [ C2 ]  (m x n, the row of the eliminated tile)
/// with V (m x nb) and T (nb x nb) from tsqrt.
template <typename T>
void tsmqr(Trans trans, ConstMatrixView<T> v, ConstMatrixView<T> t,
           MatrixView<T> c1, MatrixView<T> c2, Workspace* ws = nullptr,
           int dispatch_n = 0);

/// TTQRT (triangle on top of triangle): QR factorization of the stacked tile
///   [ R1 ]  (nb x nb upper triangular, updated in place)
///   [ R2 ]  (nb x nb upper triangular; on exit holds V, upper triangular)
/// t (nb x nb) receives the block reflector factor.
template <typename T>
void ttqrt(MatrixView<T> r1, MatrixView<T> r2, MatrixView<T> t,
           Workspace* ws = nullptr);

/// TTMQR: apply op(Q) from a TTQRT factorization to the stacked pair
/// [C1; C2] (each nb x n) with upper-triangular V.
template <typename T>
void ttmqr(Trans trans, ConstMatrixView<T> v, ConstMatrixView<T> t,
           MatrixView<T> c1, MatrixView<T> c2, Workspace* ws = nullptr,
           int dispatch_n = 0);

// ---------------------------------------------------------------------------
// Incremental (pairwise) pivoting kernels — the LU IncPiv baseline
// ---------------------------------------------------------------------------

/// GESSM: apply the interchanges and unit-lower factor of a getrf'd diagonal
/// tile to a tile in the same row: A <- L^{-1} P A. (This is the SWPTRSM of
/// the paper's variant A1 as well.)
template <typename T>
void gessm(ConstMatrixView<T> lu, const std::vector<int>& piv, MatrixView<T> a);

/// TSTRF: LU factorization with pairwise pivoting of the stacked tile
///   [ U ]  (nb x nb upper triangular, in/out: the current diagonal factor)
///   [ A ]  (nb x nb full, in/out: receives the L2 multipliers)
/// Pivoting at column j chooses between row j of U and any row of A. A swap
/// can pull multipliers into the top block; those land in l1 (strictly
/// lower, unit diagonal implicit), mirroring PLASMA's extra L tile.
/// piv[j] is the selected stacked row (j, or nb + i for a row of A).
/// Returns info like getrf.
template <typename T>
int tstrf(MatrixView<T> u, MatrixView<T> a, MatrixView<T> l1, std::vector<int>& piv);

/// SSSSM: apply a TSTRF elimination to the trailing pair of tiles
/// [A1 (nb x n); A2 (nb x n)]: stacked row interchanges, then
/// A1 <- L1^{-1} A1, A2 <- A2 - L2 * A1.
template <typename T>
void ssssm(ConstMatrixView<T> l1, ConstMatrixView<T> l2, const std::vector<int>& piv,
           MatrixView<T> a1, MatrixView<T> a2);

}  // namespace luqr::kern
