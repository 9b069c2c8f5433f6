// Owning column-major dense matrix, the boundary type of the public API
// (users hand the solver a Matrix<double>, the tiled core converts it).
#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "kernels/matrix_view.hpp"

namespace luqr {

/// std::allocator whose construct(p) default-initializes, so resize(n)
/// leaves scalar storage unset (Matrix::for_overwrite). Allocation itself
/// is std::allocator's: a Matrix is allocated and freed on every call of
/// the public API, and plain malloc keeps that path as cheap as it was.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}  // NOLINT: converting

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Owning column-major matrix.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, T value = T(0))
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), value) {}

  /// A rows x cols matrix whose elements are left unset, for a producer
  /// that writes every one of them before anything reads the matrix.
  static Matrix for_overwrite(int rows, int cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(checked_size(rows, cols));
    return m;
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  T& operator()(int i, int j) { return data_[static_cast<std::size_t>(j) * rows_ + i]; }
  const T& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }

  kern::MatrixView<T> view() {
    return kern::MatrixView<T>(data_.data(), rows_, cols_, rows_);
  }
  kern::ConstMatrixView<T> view() const {
    return kern::ConstMatrixView<T>(data_.data(), rows_, cols_, rows_);
  }
  kern::ConstMatrixView<T> cview() const { return view(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Identity matrix of order n.
  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = T(1);
    return m;
  }

 private:
  static std::size_t checked_size(int rows, int cols) {
    LUQR_REQUIRE(rows >= 0 && cols >= 0, "negative matrix dimension");
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<T, DefaultInitAllocator<T>> data_;
};

}  // namespace luqr
