// Transformation log: everything needed to replay a hybrid factorization's
// row transformations on a fresh right-hand side (paper §II-D-1: "all
// needed information about the transformations is stored in place of A, so
// one can apply the transformations on b during a second pass").
//
// The in-place factored matrix already holds the L blocks and Householder
// vectors; the log adds what is *not* in the tiles: the pivot sequences,
// the block reflectors, and the order of the QR eliminations.
//
// Templated on the working scalar (float for the reduced-precision path,
// double for the default); the unsuffixed names are the double aliases.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "kernels/dense.hpp"
#include "kernels/lapack.hpp"

namespace luqr::core {

/// Kind of one orthogonal operation of a QR elimination step.
using QrKind = kern::QrKind;

/// The block reflector of one orthogonal operation, in the form its applies
/// read. On tiles whose applies take the packed branch
/// (kern::apply_wants_packed at width nb) it is a kern::PackedReflector for
/// Q^T, built once by the task that factors it; otherwise copies of V and T
/// for the loop branch. Either way an apply reads only this, never V's
/// tile, so the factor's update tasks and every replay of a retained
/// factorization depend on the reflector alone.
template <typename T>
struct ReflectorT {
  QrKind kind = QrKind::Geqrt;
  kern::PackedReflector<T> packed;  ///< Q^T's operands (packed branch)
  Matrix<T> v;  ///< V (loop branch only)
  Matrix<T> t;  ///< T (loop branch only)

  /// Record the reflector (V, T) of a `kind` elimination, V m x k on k-wide
  /// tiles.
  void set(QrKind k, kern::ConstMatrixView<T> vv, kern::ConstMatrixView<T> tt);

  /// Q^T applied to C1 (Geqrt; `c2` unused) or to the stacked [C1; C2] (Ts,
  /// Tt), dispatched as for a tile-wide C.
  void apply_qt(kern::MatrixView<T> c1, kern::MatrixView<T> c2,
                kern::Workspace* ws = nullptr) const;

  /// Bytes this reflector holds.
  std::size_t bytes() const;
};

/// One orthogonal operation of a QR elimination step, in execution order.
template <typename T>
struct QrOpT {
  using Kind = QrKind;
  QrKind kind = QrKind::Geqrt;
  int killer = 0;  ///< for Geqrt: the factored row (killed unused)
  int killed = 0;
  std::shared_ptr<ReflectorT<T>> reflector;
};

/// Replay record for one elimination step.
template <typename T>
struct StepLogT {
  bool lu = true;
  // LU-step data (variant-dependent; unused fields stay empty):
  std::vector<int> domain_rows;  ///< A1: stacked domain rows (k first)
  std::vector<int> piv;          ///< A1/B1: pivot sequence of the factor stage
  std::shared_ptr<ReflectorT<T>> diag_t;  ///< A2/B2: diagonal GEQRT reflector
  // QR-step data:
  std::vector<QrOpT<T>> qr_ops;  ///< ordered orthogonal operations
};

template <typename T>
using TransformLogT = std::vector<StepLogT<T>>;

using Reflector = ReflectorT<double>;
using QrOp = QrOpT<double>;
using StepLog = StepLogT<double>;
using TransformLog = TransformLogT<double>;

}  // namespace luqr::core
