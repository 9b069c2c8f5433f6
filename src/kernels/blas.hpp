// Level-3 BLAS-style tile kernels (GEMM, TRSM) built from scratch.
//
// These are the workhorses of the LU step: the trailing update of variant A1
// is GEMM(alpha=-1, beta=1) and the panel eliminations are TRSMs. They follow
// the BLAS calling conventions (side/uplo/trans/diag enums, alpha/beta
// scaling) so the tiled algorithms read like their PLASMA counterparts.
//
// GEMM has two code paths: a packed, cache-blocked, register-tiled kernel
// (kernels/microkernel.hpp + kernels/pack.hpp) for products above a size
// threshold, and the seed's simple loops for small/edge tiles. gemm()
// dispatches on size (see pack.hpp for the blocking/threshold knobs); both
// paths are exposed directly for the parity tests and the kernel bench.
//
// Definitions live in gemm.cpp / trsm.cpp with explicit instantiations for
// float and double.
#pragma once

#include "kernels/matrix_view.hpp"
#include "kernels/workspace.hpp"

namespace luqr::kern {

enum class Trans { No, Yes };
enum class Side { Left, Right };
enum class Uplo { Lower, Upper };
enum class Diag { NonUnit, Unit };

/// C <- alpha * op(A) * op(B) + beta * C.
/// op(A) is (m x k), op(B) is (k x n), C is (m x n).
/// Packing scratch comes from `ws` (the calling thread's arena when null).
///
/// The blocked/unblocked choice is made as if C were `dispatch_n` columns
/// wide. Both paths compute each column of C independently (the packed
/// kernel's per-element sums depend only on KC), so a W-wide call
/// dispatched at width nb performs exactly the arithmetic of W/nb separate
/// nb-wide calls — the invariance the exact-width solve
/// (core/factorization.cpp) builds on.
template <typename T>
void gemm(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
          ConstMatrixView<T> b, T beta, MatrixView<T> c, Workspace* ws,
          int dispatch_n);

/// Same, dispatched on C's own width.
template <typename T>
void gemm(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
          ConstMatrixView<T> b, T beta, MatrixView<T> c,
          Workspace* ws = nullptr) {
  gemm(transa, transb, alpha, a, b, beta, c, ws, c.cols);
}

/// The packed cache-blocked path, unconditionally (exposed so tests can
/// exercise it at sizes the dispatcher would route to the simple loops).
template <typename T>
void gemm_blocked(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                  ConstMatrixView<T> b, T beta, MatrixView<T> c,
                  Workspace* ws = nullptr);

/// The simple axpy/dot loops, unconditionally (the small-tile path; also
/// the bench's baseline for the blocked kernel's speedup).
template <typename T>
void gemm_unblocked(Trans transa, Trans transb, T alpha, ConstMatrixView<T> a,
                    ConstMatrixView<T> b, T beta, MatrixView<T> c);

/// Triangular solve with multiple right-hand sides:
///   side == Left : solve op(A) * X = alpha * B, X overwrites B
///   side == Right: solve X * op(A) = alpha * B, X overwrites B
/// A is triangular (uplo selects the referenced triangle; diag == Unit means
/// an implicit unit diagonal — those entries are never read, so no redundant
/// divides and no sensitivity to whatever is stored there).
///
/// Like gemm, trsm() dispatches on size between a blocked path (unblocked
/// diagonal-block solves + packed GEMM updates) and the seed's simple loops
/// — but on the *triangle* dimension only, never the RHS width, so Left
/// solves stay exactly per-column operations at any width (see
/// trsm_wants_blocked in kernels/pack.hpp). Packing scratch comes from `ws`
/// (the calling thread's arena when null).
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          ConstMatrixView<T> a, MatrixView<T> b, Workspace* ws = nullptr);

/// The blocked TRSM path, unconditionally (exposed for parity tests and the
/// panel bench).
template <typename T>
void trsm_blocked(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                  ConstMatrixView<T> a, MatrixView<T> b,
                  Workspace* ws = nullptr);

/// The seed's simple substitution loops, unconditionally (small-triangle
/// path; also the bench's baseline for the blocked TRSM's speedup).
template <typename T>
void trsm_unblocked(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                    ConstMatrixView<T> a, MatrixView<T> b);

/// B <- alpha * op(A) * B (side == Left) or alpha * B * op(A) (side == Right)
/// with A triangular. Used by the norm estimators and tests.
template <typename T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
          ConstMatrixView<T> a, MatrixView<T> b);

}  // namespace luqr::kern
