// Tiled matrix storage.
//
// The paper's algorithms operate on an n x n grid of nb x nb tiles
// (N = n * nb). TileMatrix stores each tile contiguously (column-major
// inside the tile), which is what makes every kernel of Table I a dense
// operation on one to three contiguous blocks — the storage layout of
// PLASMA/DPLASMA.
//
// Rectangular tile grids are supported so the right-hand side b can ride
// along as extra tile column(s) (paper §II-D-1: factor the augmented matrix
// Ã = (A, b)). General N (not a multiple of nb) is handled by embedding the
// dense matrix into the top-left corner of a padded tiled matrix with an
// identity tail (§II-D-2's "clean-up" in library form).
//
// Dense <-> tile translation runs one tile column at a time (load_column /
// store_column): each call moves that column's nb dense columns in
// contiguous runs of up to nb elements, with no per-element tile-index
// arithmetic. from_dense and to_dense are loops over those helpers, and the
// step graph's convert stage (core/step_graph.hpp) runs one load_column per
// tile column as a task of the factorization itself.
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "fault/fault.hpp"
#include "kernels/access.hpp"
#include "kernels/dense.hpp"
#include "kernels/matrix_view.hpp"

namespace luqr {

/// Owning tiled matrix: mt x nt tiles of nb x nb scalars. Storage is
/// 64-byte aligned and the per-tile stride is padded up to a whole number
/// of cache lines, so every tile starts on a cache-line/SIMD boundary
/// regardless of nb.
template <typename T>
class TileMatrix {
 public:
  TileMatrix() = default;
  TileMatrix(int mt, int nt, int nb)
      : mt_(mt), nt_(nt), nb_(nb), tile_stride_(padded_tile_stride(nb)),
        data_(checked_elems(mt, nt, nb), T(0)) {
    LUQR_REQUIRE(mt >= 0 && nt >= 0 && nb > 0, "bad tile grid shape");
  }

  /// An mt x nt grid whose tile elements are left unset, for a producer
  /// that writes every tile before anything reads it (the step graph's
  /// convert stage, see DenseSource::tiles). The padding between tiles is
  /// zeroed, so copies of the grid read only set values.
  static TileMatrix for_overwrite(int mt, int nt, int nb);

  int mt() const { return mt_; }   ///< tile rows
  int nt() const { return nt_; }   ///< tile cols
  int nb() const { return nb_; }   ///< tile order
  int rows() const { return mt_ * nb_; }
  int cols() const { return nt_ * nb_; }

  /// Mutable view of tile (i, j). Acquisition reports a write to the
  /// thread's access listener when one is installed (the runtime auditor);
  /// without one the hook is a single thread-local pointer test. Read-only
  /// uses inside audited tasks must go through the const overload
  /// (std::as_const) or they count as writes.
  kern::MatrixView<T> tile(int i, int j) {
    T* p = tile_ptr(i, j);
    kern::note_access(p, tile_bytes(), /*write=*/true);
    return kern::MatrixView<T>(p, nb_, nb_, nb_);
  }
  /// Read-only view of tile (i, j); acquisition reports a read.
  kern::ConstMatrixView<T> tile(int i, int j) const {
    const T* p = tile_ptr(i, j);
    kern::note_access(p, tile_bytes(), /*write=*/false);
    return kern::ConstMatrixView<T>(p, nb_, nb_, nb_);
  }
  /// Tile (i, j)'s identity for dependency declaration and audit
  /// registration: the same address tile().data yields, but with *no* access
  /// report — drivers build Dep lists (often from inside other audited
  /// tasks) without touching the data.
  const void* tile_key(int i, int j) const { return tile_ptr(i, j); }

  /// Global element access (i, j in scalar coordinates).
  T& at(int i, int j) {
    return *(tile_ptr(i / nb_, j / nb_) + (j % nb_) * nb_ + (i % nb_));
  }
  T at(int i, int j) const {
    return *(tile_ptr(i / nb_, j / nb_) + (j % nb_) * nb_ + (i % nb_));
  }

  /// Embed a dense matrix into a tiled one. Rows/cols are padded up to a
  /// multiple of nb; the padding block is the identity (so factorizations
  /// of the padded matrix reproduce the original, and padded solves return
  /// zeros in the tail).
  static TileMatrix from_dense(const Matrix<T>& dense, int nb);

  /// Extract the top-left rows x cols corner back to dense storage.
  Matrix<T> to_dense(int rows, int cols) const;
  Matrix<T> to_dense() const { return to_dense(rows(), cols()); }

  /// Write every element of tile column `tj` from `src`, the dense columns
  /// it holds: src.rows <= rows() and src.cols <= nb (fewer at a right
  /// edge). Elements outside `src` become zero, except that with
  /// `identity_pad` each diagonal element outside `src` becomes one (the
  /// padding from_dense documents). A wider source scalar S narrows to T.
  template <typename S>
  void load_column(int tj, kern::ConstMatrixView<S> src, bool identity_pad);

  /// Copy the leading dst.rows x dst.cols elements of tile column `tj`
  /// into `dst` (dst.rows <= rows(), dst.cols <= nb).
  void store_column(int tj, kern::MatrixView<T> dst) const;

  /// Bytes of tile storage this matrix holds (telemetry / cache budgeting).
  std::size_t allocated_bytes() const { return data_.size() * sizeof(T); }

  /// Backup-Panel (the paper's dataflow, Figure 1): copy tiles
  /// (rows[0], j), (rows[1], j), ... in that order into the contiguous
  /// buffer `out` of rows.size() * nb * nb elements.
  void backup_column(int j, const std::vector<int>& rows, T* out) const;

  /// Restore tiles saved by backup_column (the QR branch of Propagate).
  void restore_column(int j, const std::vector<int>& rows, const T* saved);

 private:
  /// Elements between consecutive tiles: nb*nb rounded up so each tile
  /// begins a whole number of cache lines after the (aligned) base.
  static std::size_t padded_tile_stride(int nb) {
    constexpr std::size_t elems_per_line = kCacheLineBytes / sizeof(T);
    return align_up(static_cast<std::size_t>(nb) * nb, elems_per_line);
  }

  /// Storage element count, gated by the tile-allocation fault site (the
  /// injected std::bad_alloc leaves the object unconstructed, exactly like
  /// a real allocation failure in the vector below).
  static std::size_t checked_elems(int mt, int nt, int nb) {
    fault::maybe_alloc_fail(fault::site::kTileAlloc);
    return static_cast<std::size_t>(mt) * nt * padded_tile_stride(nb);
  }

  /// Bytes one tile's elements span (the audit footprint of a tile view).
  std::size_t tile_bytes() const {
    return static_cast<std::size_t>(nb_) * static_cast<std::size_t>(nb_) * sizeof(T);
  }

  T* tile_ptr(int i, int j) {
    LUQR_REQUIRE(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile index out of range");
    return data_.data() + (static_cast<std::size_t>(j) * mt_ + i) * tile_stride_;
  }
  const T* tile_ptr(int i, int j) const {
    LUQR_REQUIRE(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile index out of range");
    return data_.data() + (static_cast<std::size_t>(j) * mt_ + i) * tile_stride_;
  }

  int mt_ = 0, nt_ = 0, nb_ = 1;
  std::size_t tile_stride_ = 0;
  std::vector<T, AlignedAllocator<T>> data_;
};

}  // namespace luqr
