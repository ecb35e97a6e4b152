#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/message.hpp"

namespace apv::comm {

/// Multi-producer single-consumer mailbox for one PE.
///
/// The fast path is a bounded ring of per-slot sequence numbers (Vyukov's
/// scheme): producers claim a slot with one CAS on the enqueue cursor and
/// publish it with a release store, the consumer drains in slot order with
/// no lock at all. Per-producer FIFO holds because a producer's messages
/// occupy ring positions in program order and the consumer cannot skip an
/// unpublished slot.
///
/// When the ring is full, producers fall back to a mutex-guarded overflow
/// deque. Two rules keep per-producer FIFO intact across the boundary:
///  - once the overflow is nonempty, *every* producer routes to the
///    overflow (checked before touching the ring), so nothing enqueued
///    after an overflowed message can pass it through the ring;
///  - the consumer takes overflow messages only after the ring is fully
///    drained, so everything enqueued before the overflow began is out
///    first. The overflow then empties in one swap and traffic returns to
///    the ring — the slow path is self-correcting, not sticky.
class Mailbox {
 public:
  struct Config {
    std::size_t slots = 1024;  ///< ring capacity; rounded up to a power of 2
  };

  Mailbox();
  explicit Mailbox(const Config& config);

  /// Thread-safe; callable from any producer.
  void push(Message&& msg);

  /// Single consumer only. Moves up to `max` messages into `out` (appended;
  /// an overflow takeover may exceed `max` — the batch is whatever came out
  /// in one pass). Returns the number appended.
  std::size_t pop_batch(std::vector<Message>& out, std::size_t max);

  std::size_t size_approx() const noexcept;
  bool empty() const noexcept { return size_approx() == 0; }

  // --- instrumentation ----------------------------------------------------
  std::uint64_t ring_pushes() const noexcept {
    return ring_pushes_.load(std::memory_order_relaxed);
  }
  std::uint64_t overflow_pushes() const noexcept {
    return overflow_pushes_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    Message msg;
  };

  void push_overflow(Message&& msg);

  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;

  alignas(64) std::atomic<std::uint64_t> head_{0};  // producers' claim cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // consumer cursor
  alignas(64) std::atomic<bool> overflow_nonempty_{false};
  std::atomic<std::size_t> overflow_count_{0};
  mutable std::mutex overflow_mutex_;
  std::deque<Message> overflow_;

  std::atomic<std::uint64_t> ring_pushes_{0};
  std::atomic<std::uint64_t> overflow_pushes_{0};
};

}  // namespace apv::comm
