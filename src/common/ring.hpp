// RingFifo — a growable circular FIFO, the queue behind the per-link
// delivery FIFO and the server's dispatch and FCFS queues.
//
// Why not std::deque: a deque allocates and frees fixed-size chunks as
// the queue's window slides through memory, so a FIFO that never holds
// more than a few dozen entries still costs an allocator round-trip
// every few hundred push/pop pairs. A ring reuses one power-of-two slot
// array for the life of the queue and grows (doubling, elements moved)
// only when it is full — at steady state push and pop never allocate.
//
// Elements live in raw storage and are destroyed when popped, so a queued
// frame handle releases its buffer at pop time, exactly as with a deque.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "common/check.hpp"

namespace netclone {

template <typename T>
class RingFifo {
 public:
  RingFifo() = default;
  RingFifo(const RingFifo&) = delete;
  RingFifo& operator=(const RingFifo&) = delete;
  ~RingFifo() {
    clear();
    if (slots_ != nullptr) {
      std::allocator<T>{}.deallocate(slots_, capacity_);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots currently allocated (zero or a power of two); test hook.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The i-th element from the front (0 = oldest).
  [[nodiscard]] T& operator[](std::size_t i) { return *slot(i); }
  [[nodiscard]] const T& operator[](std::size_t i) const { return *slot(i); }

  [[nodiscard]] T& front() {
    NETCLONE_CHECK(size_ > 0, "front() of an empty ring");
    return *slot(0);
  }

  void push_back(T value) {
    if (size_ == capacity_) {
      grow();
    }
    ::new (static_cast<void*>(slot(size_))) T(std::move(value));
    ++size_;
  }

  /// Destroys the oldest element.
  void pop_front() {
    NETCLONE_CHECK(size_ > 0, "pop_front() of an empty ring");
    std::destroy_at(slot(0));
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Removes the i-th element, shifting the younger ones forward one
  /// place so FIFO order is kept (the rare mid-queue removal: a cancel).
  void erase_at(std::size_t i) {
    NETCLONE_CHECK(i < size_, "ring erase index out of range");
    for (std::size_t k = i; k + 1 < size_; ++k) {
      *slot(k) = std::move(*slot(k + 1));
    }
    std::destroy_at(slot(size_ - 1));
    --size_;
  }

  /// Destroys every element; the slot array is kept for reuse.
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
    head_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  [[nodiscard]] T* slot(std::size_t i) const {
    return slots_ + ((head_ + i) & (capacity_ - 1));
  }

  void grow() {
    const std::size_t bigger = capacity_ == 0 ? kMinCapacity : capacity_ * 2;
    T* fresh = std::allocator<T>{}.allocate(bigger);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = slot(i);
      ::new (static_cast<void*>(fresh + i)) T(std::move(*from));
      std::destroy_at(from);
    }
    if (slots_ != nullptr) {
      std::allocator<T>{}.deallocate(slots_, capacity_);
    }
    slots_ = fresh;
    capacity_ = bigger;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace netclone
