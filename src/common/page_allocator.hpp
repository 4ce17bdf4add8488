// Page-backed allocator for large, short-lived buffers.
//
// The good trace (gate::GoodTrace) is the largest allocation a
// fault-simulation run makes: one bit per net per cycle, megabytes per
// run. Taken from the general heap, every release leaves a hole that
// the heap keeps resident and that the next, differently sized trace
// may not fit, so resident memory creeps up cell after cell. Giving the
// buffer its own anonymous mapping returns its pages to the system the
// moment it is released, and leaves the heap's own tuning alone.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <new>

// AddressSanitizer bounds-checks heap blocks, not anonymous mappings, so
// sanitized builds keep these buffers on the heap.
#if defined(__SANITIZE_ADDRESS__)
#define FDBIST_PAGE_ALLOCATOR_ON_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FDBIST_PAGE_ALLOCATOR_ON_HEAP 1
#endif
#endif

namespace fdbist::common {

template <class T> struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <class U> PageAllocator(const PageAllocator<U>&) noexcept {}

#ifdef FDBIST_PAGE_ALLOCATOR_ON_HEAP
  T* allocate(std::size_t n) { return std::allocator<T>{}.allocate(n); }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
  }
#else
  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (p != nullptr) ::munmap(p, n * sizeof(T));
  }
#endif

  template <class U> bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

} // namespace fdbist::common
