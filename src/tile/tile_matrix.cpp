#include "tile/tile_matrix.hpp"

#include <algorithm>

namespace luqr {

template <typename T>
TileMatrix<T> TileMatrix<T>::for_overwrite(int mt, int nt, int nb) {
  LUQR_REQUIRE(mt >= 0 && nt >= 0 && nb > 0, "bad tile grid shape");
  TileMatrix out;
  out.mt_ = mt;
  out.nt_ = nt;
  out.nb_ = nb;
  out.tile_stride_ = padded_tile_stride(nb);
  out.data_.resize(checked_elems(mt, nt, nb));
  const std::size_t used = static_cast<std::size_t>(nb) * nb;
  if (out.tile_stride_ > used)
    for (std::size_t t = 0; t < static_cast<std::size_t>(mt) * nt; ++t) {
      T* tile = out.data_.data() + t * out.tile_stride_;
      std::fill(tile + used, tile + out.tile_stride_, T(0));
    }
  return out;
}

template <typename T>
TileMatrix<T> TileMatrix<T>::from_dense(const Matrix<T>& dense, int nb) {
  const int mt = (dense.rows() + nb - 1) / nb;
  const int nt = (dense.cols() + nb - 1) / nb;
  TileMatrix out = for_overwrite(mt, nt, nb);  // every column is loaded below
  const auto src = dense.cview();
  for (int tj = 0; tj < nt; ++tj) {
    const int c0 = tj * nb;
    out.load_column(tj, src.block(0, c0, src.rows, std::min(nb, src.cols - c0)),
                    /*identity_pad=*/true);
  }
  return out;
}

template <typename T>
Matrix<T> TileMatrix<T>::to_dense(int rows, int cols) const {
  LUQR_REQUIRE(rows <= this->rows() && cols <= this->cols(), "to_dense overflow");
  Matrix<T> out(rows, cols);
  const auto dst = out.view();
  for (int c0 = 0; c0 < cols; c0 += nb_)
    store_column(c0 / nb_, dst.block(0, c0, rows, std::min(nb_, cols - c0)));
  return out;
}

template <typename T>
template <typename S>
void TileMatrix<T>::load_column(int tj, kern::ConstMatrixView<S> src,
                                bool identity_pad) {
  LUQR_REQUIRE(src.rows <= rows() && src.cols <= nb_,
               "load_column: source larger than the tile column");
  for (int ti = 0; ti < mt_; ++ti) {
    const auto tile = this->tile(ti, tj);
    const int r0 = ti * nb_;
    const int live = std::clamp(src.rows - r0, 0, nb_);  // rows from src
    for (int c = 0; c < nb_; ++c) {
      T* dst = &tile(0, c);
      int r = 0;
      if (c < src.cols && live > 0) {
        const S* s = &src(r0, c);
        for (; r < live; ++r) dst[r] = static_cast<T>(s[r]);
      }
      std::fill(dst + r, dst + nb_, T(0));
    }
    // Diagonal elements outside the source: global row r0 + c meets global
    // column tj * nb + c only on the diagonal tile.
    if (!identity_pad || ti != tj) continue;
    for (int c = 0; c < nb_; ++c)
      if (c >= src.cols || r0 + c >= src.rows) tile(c, c) = T(1);
  }
}

template <typename T>
void TileMatrix<T>::store_column(int tj, kern::MatrixView<T> dst) const {
  LUQR_REQUIRE(dst.rows <= rows() && dst.cols <= nb_,
               "store_column: destination larger than the tile column");
  for (int r0 = 0; r0 < dst.rows; r0 += nb_) {
    const auto tile = this->tile(r0 / nb_, tj);
    const int len = std::min(nb_, dst.rows - r0);
    for (int c = 0; c < dst.cols; ++c) {
      const T* s = &tile(0, c);
      std::copy(s, s + len, &dst(r0, c));
    }
  }
}

template <typename T>
void TileMatrix<T>::backup_column(int j, const std::vector<int>& rows,
                                  T* out) const {
  const std::size_t elems = static_cast<std::size_t>(nb_) * nb_;
  for (int i : rows) {
    const T* p = tile(i, j).data;
    out = std::copy(p, p + elems, out);
  }
}

template <typename T>
void TileMatrix<T>::restore_column(int j, const std::vector<int>& rows,
                                   const T* saved) {
  const std::size_t elems = static_cast<std::size_t>(nb_) * nb_;
  for (int i : rows) {
    std::copy(saved, saved + elems, tile(i, j).data);
    saved += elems;
  }
}

template class TileMatrix<double>;
template class TileMatrix<float>;
template void TileMatrix<double>::load_column(int, kern::ConstMatrixView<double>,
                                              bool);
template void TileMatrix<float>::load_column(int, kern::ConstMatrixView<float>,
                                             bool);
template void TileMatrix<float>::load_column(int, kern::ConstMatrixView<double>,
                                             bool);

}  // namespace luqr
