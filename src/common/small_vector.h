// Vector with inline room for its first N elements: it takes no heap block
// until it holds N + 1 of them. The layout is LLVM's SmallVector: the data
// pointer, the size and the capacity, then the inline buffer the pointer
// starts on. The per-transaction lists on the hot path (a transaction's
// participants, a KV transaction's per-partition key lists, a
// single-partition commit record's round inputs) fit inline, so building,
// moving and copying them allocates nothing.
#ifndef PARTDB_COMMON_SMALL_VECTOR_H_
#define PARTDB_COMMON_SMALL_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace partdb {

template <typename T, size_t N>
class SmallVector {
  static_assert(N >= 1, "use std::vector for a list with no inline room");

 public:
  using value_type = T;
  using size_type = size_t;
  using reference = T&;
  using const_reference = const T&;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() : data_(Inline()) {}
  SmallVector(std::initializer_list<T> init) : data_(Inline()) {
    reserve(init.size());
    std::uninitialized_copy(init.begin(), init.end(), data_);
    size_ = static_cast<uint32_t>(init.size());
  }
  SmallVector(const SmallVector& o) : data_(Inline()) { CopyFrom(o); }
  SmallVector(SmallVector&& o) noexcept : data_(Inline()) { MoveFrom(o); }
  ~SmallVector() {
    std::destroy_n(data_, size_);
    FreeHeap();
  }

  SmallVector& operator=(const SmallVector& o) {
    if (this != &o) {
      clear();
      CopyFrom(o);
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& o) noexcept {
    if (this != &o) {
      clear();
      if (!o.IsInline()) FreeHeap();
      MoveFrom(o);
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  /// True while the elements live in the inline buffer.
  bool IsInline() const { return data_ == Inline(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](size_t i) {
    PARTDB_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    PARTDB_DCHECK(i < size_);
    return data_[i];
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      // Build the element first: `args` may refer into this vector.
      T v(std::forward<Args>(args)...);
      Grow(size_ + 1);
      return *::new (static_cast<void*>(data_ + size_++)) T(std::move(v));
    }
    return *::new (static_cast<void*>(data_ + size_++)) T(std::forward<Args>(args)...);
  }

  /// Destroys the elements and keeps the storage (inline or heap).
  void clear() {
    std::destroy_n(data_, size_);
    size_ = 0;
  }
  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }
  /// Shrinks to, or value-initializes up to, `n` elements.
  void resize(size_t n) {
    if (n < size_) {
      std::destroy_n(data_ + n, size_ - n);
    } else {
      reserve(n);
      std::uninitialized_value_construct_n(data_ + size_, n - size_);
    }
    size_ = static_cast<uint32_t>(n);
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  /// Equal to a std::vector holding the same elements.
  friend bool operator==(const SmallVector& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* Inline() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* Inline() const { return std::launder(reinterpret_cast<const T*>(inline_)); }

  /// Moves the elements to a heap block of at least `min_capacity`.
  void Grow(size_t min_capacity) {
    PARTDB_CHECK(min_capacity <= UINT32_MAX);
    const size_t cap = std::min<size_t>(std::max<size_t>(2 * size_t{capacity_}, min_capacity),
                                        UINT32_MAX);
    T* heap = std::allocator<T>().allocate(cap);
    std::uninitialized_move_n(data_, size_, heap);
    std::destroy_n(data_, size_);
    FreeHeap();
    data_ = heap;
    capacity_ = static_cast<uint32_t>(cap);
  }
  void FreeHeap() {
    if (IsInline()) return;
    std::allocator<T>().deallocate(data_, capacity_);
    data_ = Inline();
    capacity_ = N;
  }
  /// Copies `o`'s elements into this empty vector.
  void CopyFrom(const SmallVector& o) {
    reserve(o.size_);
    std::uninitialized_copy_n(o.data_, o.size_, data_);
    size_ = o.size_;
  }
  /// Takes `o`'s elements into this empty vector, which is inline when `o`
  /// is spilled, and leaves `o` empty: a spilled `o` hands over its heap
  /// block, an inline one moves element by element.
  void MoveFrom(SmallVector& o) {
    if (!o.IsInline()) {
      data_ = o.data_;
      size_ = o.size_;
      capacity_ = o.capacity_;
      o.data_ = o.Inline();
      o.size_ = 0;
      o.capacity_ = N;
      return;
    }
    reserve(o.size_);
    std::uninitialized_move_n(o.data_, o.size_, data_);
    size_ = o.size_;
    o.clear();
  }

  T* data_;
  uint32_t size_ = 0;
  uint32_t capacity_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace partdb

#endif  // PARTDB_COMMON_SMALL_VECTOR_H_
