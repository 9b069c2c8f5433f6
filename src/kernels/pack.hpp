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
#include "kernels/workspace.hpp"

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

/// Packed-A operands: a GEMM A-operand packed once and applied to many B's.
///
/// The block reflector of a QR elimination is the A-operand of every apply
/// of that elimination (W = V^T C, W2 = op(T) W, C -= V W2), so it is packed
/// once (see kern::PackedReflector in kernels/lapack.hpp). Each operand
/// records its zero structure as a band: row i of op(A) may be nonzero only
/// in columns [lo(i), hi(i)). An MR-row micro-panel stores just the union of
/// its rows' ranges, element (i, l) at data[off + (l - lo) * MR + i], with
/// explicit zeros where a row's own range is narrower, so triangles take
/// about half the storage and half the micro-kernel flops.
enum class Band {
  Dense,  ///< every column
  Lower,  ///< columns l <= i (lower triangle or trapezoid)
  Upper,  ///< columns l >= i (upper triangle or trapezoid)
};

/// Columns [lo, hi) a band leaves live in the micro-panel of rows
/// [i0, i0 + mr) of an operand with `depth` columns.
inline void band_range(Band band, int i0, int mr, int depth, int& lo, int& hi) {
  lo = 0;
  hi = depth;
  if (band == Band::Lower) hi = i0 + mr < depth ? i0 + mr : depth;
  if (band == Band::Upper) lo = i0 < depth ? i0 : depth;
}

/// op(A) (rows x depth) packed by pack_a_operand.
template <typename T>
struct PackedA {
  int rows = 0;   ///< rows of op(A), the GEMM's m
  int depth = 0;  ///< columns of op(A), the GEMM's shared dimension k
  Band band = Band::Dense;
  const T* data = nullptr;
};

/// Elements a packed operand of this shape stores.
template <typename T>
std::size_t packed_a_elems(int rows, int depth, Band band);

/// Pack op(A) of `a` (op(A)(i, l) is a(i, l) or a(l, i)) into dst, which
/// holds packed_a_elems(...) elements on a 64-byte boundary. Entries outside
/// the band are written as zero without reading `a`, so the storage there
/// may hold anything (R above a GEQRT's V, older reflectors below a TT V).
/// With `unit_diag` the diagonal reads as one (GEQRT's implicit unit).
template <typename T>
PackedA<T> pack_a_operand(Trans trans, ConstMatrixView<T> a, Band band,
                          bool unit_diag, T* dst);

/// C <- alpha * A * op(B) + beta * C with A packed: gemm_blocked's loop nest
/// and KC blocking, with each micro-panel's shared range trimmed to its
/// band. The trim skips only structural zeros, so for finite operands the
/// result is bitwise gemm_blocked's on the dense op(A) (the skipped terms
/// add exact zeros to each partial sum); a NaN or Inf in B still reaches
/// every element of C whose row reads it inside the band. Column by column
/// at any width of C, like gemm_blocked. Shares gemm()'s footprint report,
/// kernel profile class and NaN fault site.
template <typename T>
void gemm_packed_a(const PackedA<T>& a, T alpha, Trans transb,
                   ConstMatrixView<T> b, T beta, MatrixView<T> c,
                   Workspace* ws = nullptr);

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
