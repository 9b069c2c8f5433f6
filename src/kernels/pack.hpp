// Panel packing and cache-blocking configuration for the packed GEMM.
//
// The blocked GEMM (kernels/gemm.cpp) walks C in NC-wide column blocks, the
// shared dimension in KC-deep slices, and A in MC-tall row blocks — the
// classic {NC, KC, MC} loop nest that keeps a KC x NC slice of B resident in
// L2/L3, an MC x KC slice of A in L2, and streams MR x NR micro-tiles of C
// through registers. Before the micro-kernel runs, both slices are packed
// into contiguous panels:
//
//   Ap: MR-row panels, element (i, l) of a panel at dst[l*MR + i]
//   Bp: NR-column panels, element (l, j) of a panel at dst[l*NR + j]
//
// Packing absorbs the transpose variants (all four of gemm_nn/tn/nt/tt read
// through the same packed layout) and folds alpha into Bp, so the inner
// kernel is a single alpha-free code path. Short panels are zero-padded to
// MR/NR, which is numerically inert (the padding rows/cols are never written
// back).
//
// Blocking parameters are compile-time constants, independent of thread
// count and of the environment: KC and the panel/TRSM block sizes fix the
// summation order, so a tile's kernels perform bit-identical arithmetic in
// every process, whether the serial driver or any engine worker runs them.
#pragma once

#include <cstddef>

#include "kernels/blas.hpp"
#include "kernels/matrix_view.hpp"

namespace luqr::kern {

/// GEMM cache blocking: A row-block height (MC), shared-dimension depth
/// (KC), B/C column-block width (NC), and the m*n*k below which gemm()
/// keeps the simple loops.
inline constexpr int kGemmMC = 256;
inline constexpr int kGemmKC = 256;
inline constexpr int kGemmNC = 2048;
inline constexpr long kGemmSmallMNK = 8192;

/// Dispatch predicate of gemm(): true when an (m x n x k) product is big
/// enough for the packed path to win over the simple loops.
bool gemm_wants_blocked(int m, int n, int k);

/// Blocked panel factorizations (GETRF and GEQRT): the inner unblocked
/// panel width, and the column count below which the kernels keep the
/// seed's unblocked loops.
inline constexpr int kPanelJB = 32;
inline constexpr int kPanelSmallN = 64;

/// Dispatch predicate of getrf()/geqrt(): true when an m x n panel is big
/// enough for the blocked algorithm to win over the unblocked loops.
bool panel_wants_blocked(int m, int n);

/// Blocked TRSM: the diagonal block size, and the triangle dimension below
/// which the seed's unblocked loops are kept.
inline constexpr int kTrsmKB = 64;
inline constexpr int kTrsmSmallM = 128;

/// Dispatch predicate of trsm(). Depends on the triangle dimension only —
/// never on the RHS width — so a Left-side solve picks the same kernel for
/// one column or for many. Together with the blocked path's fixed inner GEMM
/// this keeps Left TRSM exactly a per-column operation at any width, the
/// invariance the wide-RHS solve path (core/factorization.cpp) relies on.
bool trsm_wants_blocked(int dim);

/// Workspace bytes one gemm_blocked(m, n, k) call allocates for its packed
/// A/B panels. The batched backend (core/batch) reserves a chunk's
/// high-water estimate up front via Workspace::reserve so every matrix in
/// the chunk reuses the same pack scratch without growing the arena.
template <typename T>
std::size_t gemm_pack_scratch_bytes(int m, int n, int k);

/// Pack the [i0, i0+mc) x [p0, p0+kc) block of op(A) into MR-row panels at
/// dst (size >= round_up(mc, MR) * kc). op(A)(i, l) is a(i, l) or a(l, i).
template <typename T, int MR>
void pack_a_panel(Trans trans, int mc, int kc, ConstMatrixView<T> a, int i0,
                  int p0, T* dst);

/// Pack the [p0, p0+kc) x [j0, j0+nc) block of op(B), scaled by alpha, into
/// NR-column panels at dst (size >= kc * round_up(nc, NR)).
template <typename T, int NR>
void pack_b_panel(Trans trans, T alpha, int kc, int nc, ConstMatrixView<T> b,
                  int p0, int j0, T* dst);

}  // namespace luqr::kern
