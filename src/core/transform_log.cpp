#include "core/transform_log.hpp"

namespace luqr::core {

using kern::ConstMatrixView;
using kern::Trans;

namespace {

template <typename T>
Matrix<T> copy_of(ConstMatrixView<T> src) {
  auto out = Matrix<T>::for_overwrite(src.rows, src.cols);
  kern::copy(src, out.view());
  return out;
}

}  // namespace

template <typename T>
void ReflectorT<T>::set(QrKind k, ConstMatrixView<T> vv, ConstMatrixView<T> tt) {
  kind = k;
  const int nb = vv.cols;
  const ConstMatrixView<T> t_block = tt.block(0, 0, nb, nb);
  if (kern::apply_wants_packed(vv.rows, nb, nb)) {
    packed = kern::PackedReflector<T>(k, Trans::Yes, vv, t_block);
  } else {
    v = copy_of(vv);
    t = copy_of(t_block);
  }
}

template <typename T>
void ReflectorT<T>::apply_qt(kern::MatrixView<T> c1, kern::MatrixView<T> c2,
                             kern::Workspace* ws) const {
  if (!packed.empty()) {
    switch (kind) {
      case QrKind::Geqrt: kern::unmqr(packed, c1, ws); return;
      case QrKind::Ts: kern::tsmqr(packed, c1, c2, ws); return;
      case QrKind::Tt: kern::ttmqr(packed, c1, c2, ws); return;
    }
  }
  const int nb = v.cols();
  switch (kind) {
    case QrKind::Geqrt:
      kern::unmqr(Trans::Yes, v.cview(), t.cview(), c1, ws, nb);
      return;
    case QrKind::Ts:
      kern::tsmqr(Trans::Yes, v.cview(), t.cview(), c1, c2, ws, nb);
      return;
    case QrKind::Tt:
      kern::ttmqr(Trans::Yes, v.cview(), t.cview(), c1, c2, ws, nb);
      return;
  }
}

template <typename T>
std::size_t ReflectorT<T>::bytes() const {
  return sizeof(*this) +
         (packed.size() + static_cast<std::size_t>(v.rows()) * v.cols() +
          static_cast<std::size_t>(t.rows()) * t.cols()) *
             sizeof(T);
}

template struct ReflectorT<double>;
template struct ReflectorT<float>;

}  // namespace luqr::core
