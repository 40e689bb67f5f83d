// Published-snapshot cell: single-writer, many-reader handoff of an
// immutable value.
//
// The serving seam (sa::serve) must let server threads read simulation
// state without ever making the sim thread wait on them: the sim thread
// *publishes* an immutable, heap-allocated snapshot at a point of its own
// choosing (an engine-step boundary), and readers grab a shared_ptr to
// whichever snapshot is current. serve::SimBridge keeps exactly one cell,
// holding its whole published frame, so a reader sees every value of one
// publish and never a mix of two. Publication swaps one pointer under a
// tiny spinlock — the same technique libstdc++ uses inside
// std::atomic<shared_ptr>, spelled out here with acquire/release ordering
// ThreadSanitizer can verify. Critical sections are a pointer swap
// (writer) or a refcount increment (reader); nobody ever holds the lock
// across I/O, allocation of the snapshot, or rendering. A reader that
// obtained a snapshot keeps it alive for as long as it needs (shared_ptr
// ownership) even if the writer has since published newer ones or been
// destroyed.
#pragma once

#include <atomic>
#include <memory>
#include <utility>

namespace sa::sim {

/// One cell of the single-writer / many-reader snapshot protocol.
/// `publish()` is writer-only (the sim thread); `read()` is safe from any
/// thread and returns nullptr before the first publication.
template <class T>
class SnapshotCell {
 public:
  /// Installs a new current snapshot. The previous snapshot's refcount
  /// drop (and possible destruction) happens outside the critical section.
  void publish(std::shared_ptr<const T> snapshot) noexcept {
    lock();
    cell_.swap(snapshot);
    unlock();
  }
  /// Convenience: construct-and-publish (construction outside the lock).
  template <class... Args>
  void emplace(Args&&... args) {
    publish(std::make_shared<const T>(std::forward<Args>(args)...));
  }
  /// The current snapshot (nullptr before the first publish()).
  [[nodiscard]] std::shared_ptr<const T> read() const noexcept {
    lock();
    std::shared_ptr<const T> current = cell_;
    unlock();
    return current;
  }

 private:
  void lock() const noexcept {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      // Contention is rare and the critical section is a few instructions;
      // spin-read until the holder clears.
      while (flag_.test(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() const noexcept { flag_.clear(std::memory_order_release); }

  mutable std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  std::shared_ptr<const T> cell_;
};

}  // namespace sa::sim
