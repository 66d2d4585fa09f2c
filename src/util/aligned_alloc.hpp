#pragma once
/// \file aligned_alloc.hpp
/// \brief STL-compatible allocator with cache-line / SIMD-friendly alignment.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

namespace dmtk {

/// Default alignment for numeric buffers: one x86 cache line, which also
/// satisfies AVX-512 load alignment.
inline constexpr std::size_t kDefaultAlignment = 64;

/// Minimal aligned allocator. Used by Matrix/Tensor storage so BLAS kernels
/// may assume aligned, non-overlapping buffers.
template <typename T, std::size_t Alignment = kDefaultAlignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert((Alignment & (Alignment - 1)) == 0 &&
                    Alignment >= sizeof(void*),
                "Alignment must be a power of two of at least a pointer");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  /// One plain malloc block, over-sized by Alignment and aligned inside,
  /// with the block's address stored just below the returned pointer.
  /// Aligned operator new would go through glibc's memalign, which splits
  /// small fragments off both ends of a large block and caches them; a
  /// long-lived object later placed in such a fragment pins the hole a
  /// freed tensor leaves, and a resident server's heap then grows by a
  /// whole tensor when the next one no longer fits.
  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    if (n > (std::numeric_limits<std::size_t>::max() - kSlack) / sizeof(T))
      throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    void* raw = std::malloc(bytes + kSlack);
    if (raw == nullptr) throw std::bad_alloc();
    // First Alignment boundary at least one pointer past the block start;
    // the offset is below kSlack, so the buffer fits behind it.
    const auto addr = std::bit_cast<std::uintptr_t>(raw);
    const std::uintptr_t offset =
        ((addr + sizeof raw + Alignment - 1) & ~(Alignment - 1)) - addr;
    char* p = static_cast<char*>(raw) + offset;
    std::memcpy(p - sizeof raw, &raw, sizeof raw);
    return static_cast<T*>(static_cast<void*>(p));
  }

  void deallocate(T* p, std::size_t) noexcept {
    if (p == nullptr) return;
    void* raw = nullptr;
    std::memcpy(&raw, static_cast<char*>(static_cast<void*>(p)) - sizeof raw,
                sizeof raw);
    std::free(raw);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }

 private:
  /// Room for the stored block address plus the worst-case alignment pad.
  static constexpr std::size_t kSlack = Alignment + sizeof(void*);
};

}  // namespace dmtk
