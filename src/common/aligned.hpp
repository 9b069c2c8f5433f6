// 64-byte-aligned allocation.
//
// Tiles and kernel workspace buffers start on cache-line (and AVX-512
// vector) boundaries so the packed-GEMM micro-kernel can use full-width
// aligned loads on packed panels and tiles never straddle a line at their
// origin.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace luqr {

/// Cache-line / widest-SIMD alignment used throughout the kernel layer.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Round `n` up to a multiple of `align` (a power of two).
inline constexpr std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

/// Minimal std::allocator replacement returning 64-byte-aligned storage
/// (C++17 aligned operator new). Drop-in for std::vector, with one
/// difference: a vector sized without a fill value (vector(n), resize(n))
/// default-initializes its elements, so scalar storage is left unset for a
/// producer that overwrites all of it (TileMatrix::for_overwrite). Pass a
/// value to get zeros.
template <typename T, std::size_t Align = kCacheLineBytes>
struct AlignedAllocator {
  using value_type = T;
  // Explicit rebind: the default one cannot re-instantiate through the
  // non-type Align parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) {}  // NOLINT: converting

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Align>&) const { return false; }
};

}  // namespace luqr
