// Bounded, overwrite-oldest ring buffer.
//
// The history buffer behind the bounded memories of the recent past that
// hold objects: the explainer's decision log, the fault injector's log, the
// telemetry RingBufferSink and the serve layer's slow-request ring. (The
// knowledge base keeps its slots in per-key blocks behind 16-byte headers,
// and time awareness its pending predictions in one flat vector: at a
// camera fleet's scale a 40-byte Ring per key or per forecaster is too
// much.) Storage grows lazily (push_back) up to the capacity; after
// that each push overwrites the oldest slot in place, so a warm ring never
// allocates.
// Reads are oldest first: index 0 is the oldest retained item, size()-1
// the newest. A capacity of 0 stores nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sa::sim {

template <typename T>
class Ring {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const Ring* ring, std::size_t i) : ring_(ring), i_(i) {}
    reference operator*() const { return (*ring_)[i_]; }
    pointer operator->() const { return &(*ring_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const Ring* ring_ = nullptr;
    std::size_t i_ = 0;
  };

  explicit Ring(std::size_t capacity = 0) : cap_(capacity) {}

  /// Appends `v` as the newest item; once full, overwrites the oldest.
  template <typename U = T>
  void push(U&& v) {
    if (buf_.size() < cap_) {
      buf_.push_back(std::forward<U>(v));
    } else if (cap_ != 0) {
      buf_[head_] = std::forward<U>(v);
      if (++head_ == cap_) head_ = 0;
    }
  }

  /// Makes room for a new newest item and returns it for the caller to
  /// fill: a value-initialised item below capacity, else the oldest item
  /// as it stands, so whatever storage it owns can be reused. Requires
  /// capacity() > 0.
  T& push_slot() {
    if (buf_.size() < cap_) return buf_.emplace_back();
    T& slot = buf_[head_];
    if (++head_ == cap_) head_ = 0;
    return slot;
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] bool empty() const noexcept { return buf_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// i-th oldest retained item, unchecked: requires i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const {
    std::size_t j = head_ + i;
    if (j >= buf_.size()) j -= buf_.size();
    return buf_[j];
  }
  /// i-th oldest retained item; throws std::out_of_range if i >= size().
  [[nodiscard]] const T& at(std::size_t i) const {
    if (i >= buf_.size()) throw std::out_of_range("sim::Ring::at");
    return (*this)[i];
  }
  /// Oldest and newest retained items; both require !empty().
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] const T& back() const {
    return buf_[head_ == 0 ? buf_.size() - 1 : head_ - 1];
  }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, buf_.size()}; }

  /// Changes the capacity, keeping the newest min(cap, size()) items in
  /// order.
  void set_capacity(std::size_t cap) {
    std::rotate(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                buf_.end());
    head_ = 0;
    if (buf_.size() > cap) {
      buf_.erase(buf_.begin(),
                 buf_.end() - static_cast<std::ptrdiff_t>(cap));
    }
    cap_ = cap;
  }
  void clear() noexcept {
    buf_.clear();
    head_ = 0;
  }
  /// Pre-allocates storage for `n` items (a ring reserved to its capacity
  /// never allocates on push).
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  std::size_t cap_;
  std::vector<T> buf_;
  std::size_t head_ = 0;  ///< slot of the oldest item once the ring is full
};

}  // namespace sa::sim
