#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace apv::comm {

/// Counters for the payload buffer pool (process-wide, all clusters).
struct PoolStats {
  std::uint64_t hits = 0;          ///< acquires served from a freelist
  std::uint64_t misses = 0;        ///< acquires that had to allocate (every
                                   ///< one above the largest size class too)
  std::uint64_t adopted = 0;       ///< buffers wrapped around an existing vector
  std::uint64_t returns = 0;       ///< chunks recycled into a freelist
  std::uint64_t drops = 0;         ///< chunks freed because a freelist was full
  std::uint64_t bytes_copied = 0;  ///< intermediate payload->payload copy bytes
                                   ///< (zero on every fast path; nonzero means
                                   ///< a slow-path duplication happened)
};

/// Ref-counted message payload buffer, recycled through a freelist of
/// size-class chunks. This replaces `std::vector<std::byte>` as the wire
/// payload type: a sender acquires a buffer, fills it exactly once, and
/// ownership moves (or is shared by refcount) all the way to the receiver —
/// intra-PE delivery and migration hand over the very bytes the sender
/// produced, with no intermediate memcpy.
///
/// Three backing shapes, one handle type:
///  - pooled: a size-class chunk from the freelist (the hot p2p path);
///  - adopted: wraps a `std::vector<std::byte>` moved in from elsewhere
///    (migration images packed by Isomalloc) — zero-copy in, and
///    `take_vector()` is zero-copy out while the handle is unique;
///  - view: a sub-range of another payload sharing its refcount
///    (aggregation envelopes are unbundled into views, not copies).
///
/// Thread-safety: the refcount is atomic, so handles may be released from
/// any thread; the *bytes* follow the usual message discipline (the producer
/// writes before publishing, consumers only read).
class Payload {
 public:
  /// Opaque shared backing block (defined in payload.cpp; public so the
  /// pool's freelist plumbing can name it).
  struct Chunk;

  Payload() = default;
  ~Payload() { release(); }
  Payload(const Payload& other) noexcept;
  Payload& operator=(const Payload& other) noexcept;
  Payload(Payload&& other) noexcept;
  Payload& operator=(Payload&& other) noexcept;

  /// A writable buffer of exactly `n` bytes (uninitialized), from the pool
  /// when a size-class chunk is free, freshly allocated otherwise.
  static Payload acquire(std::size_t n);

  /// acquire(n) filled with the `n` bytes at `data`: the one copy a
  /// message's bytes make on their way from a user buffer to the receiver.
  static Payload copy_of(const void* data, std::size_t n);

  /// Wraps an existing byte vector without copying (migration images).
  static Payload adopt(std::vector<std::byte>&& bytes);

  /// A sub-range [off, off+len) of `parent`, sharing its chunk refcount.
  static Payload view(const Payload& parent, std::size_t off, std::size_t len);

  std::byte* data() noexcept { return data_; }
  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Shrinks the logical size (whole-buffer handles; aggregation trims its
  /// envelope to the filled prefix before sending).
  void resize_down(std::size_t n);

  /// Drops this handle's reference (the handle becomes empty).
  void clear() noexcept { release(); }

  /// True if no other handle shares the chunk.
  bool unique() const noexcept;

  /// Extracts the bytes as a vector: zero-copy when this is the only handle
  /// on an adopted vector (the migration arrival path); otherwise copies
  /// and charges PoolStats::bytes_copied. The handle is empty afterwards.
  std::vector<std::byte> take_vector();

 private:
  /// A vector-backed handle over `bytes` (nonempty), uncounted.
  static Payload wrap(std::vector<std::byte>&& bytes);
  void release() noexcept;

  Chunk* chunk_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Process-wide pool controls (the pool itself is internal to payload.cpp).
namespace pool {
PoolStats stats() noexcept;
void reset_stats() noexcept;
}  // namespace pool

}  // namespace apv::comm
