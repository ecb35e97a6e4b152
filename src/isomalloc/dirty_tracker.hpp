#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "isomalloc/arena.hpp"

namespace apv::iso {

/// One contiguous byte range of a slot, relative to the slot base.
/// dirty_regions() returns maximal runs of dirty pages, already clamped to
/// the caller's prefix limit, ready to serialize as a delta image.
struct DirtyRegion {
  std::size_t offset;
  std::size_t len;
};

/// Page-granular write tracking for isomalloc slots, the sensor behind
/// incremental (delta) checkpoints.
///
/// Arming a slot clears its dirty bitmap and write-protects the whole slot
/// (`mprotect(PROT_READ)`); the first store to each page takes a SIGSEGV
/// that a scoped handler resolves by marking the page dirty and restoring
/// PROT_READ|PROT_WRITE for just that page — one fault per page per epoch,
/// amortized away entirely for pages the application never touches. At the
/// next checkpoint the runtime reads `dirty_regions`, packs only those
/// pages as a delta against the previous epoch, then re-arms.
///
/// The handler is installed process-wide on the first armed slot and the
/// previous disposition is restored when the last slot disarms; faults
/// outside any armed slot re-raise under the saved handler so unrelated
/// crashes stay loud. Handler code is async-signal-safe: it only reads
/// pre-allocated registry state, does atomic bitmap stores, and calls
/// mprotect (not in POSIX's safe list, but a bare syscall on Linux and the
/// established practice for userspace write barriers).
///
/// Threads that may fault while executing *inside* an armed slot (every PE
/// loop thread: ULT stacks live in-slot) must have called
/// util::ensure_sigaltstack() — the kernel cannot push a signal frame onto
/// the very stack the barrier made read-only. arm() installs one for the
/// calling thread as a convenience.
///
/// The hot allocation path avoids the barrier entirely: the tracker
/// registers a SlotHeap write-notify hook (see set_heap_write_notify) and
/// pre-dirties pages the allocator is about to touch, so metadata-heavy
/// workloads do not pay a fault per alloc. Missed notifications are safe —
/// they just degrade to one extra fault.
class DirtyTracker {
 public:
  explicit DirtyTracker(IsoArena& arena);
  ~DirtyTracker();

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  /// Starts (or restarts) an epoch for `slot`: clears its bitmap and
  /// write-protects the slot. Installs the SIGSEGV barrier if this is the
  /// first armed slot in the process.
  void arm(SlotId slot);

  /// Stops tracking `slot` and restores PROT_READ|PROT_WRITE over it. Must
  /// be called before any bulk rewrite of the slot (unpack, release)
  /// — those writes belong to the runtime, not the application, and would
  /// otherwise fault-storm through the barrier. Idempotent.
  void disarm(SlotId slot);

  bool armed(SlotId slot) const noexcept;

  /// Marks the pages covering [addr, addr+len) dirty and write-enables them
  /// without taking a fault. No-op if the address is outside an armed slot.
  /// This is the allocator-assisted fast path.
  void pre_dirty(const void* addr, std::size_t len) noexcept;

  /// Maximal runs of dirty pages in [0, limit_bytes), clamped to the limit.
  /// `limit_bytes` is the pack prefix (touched bytes) — dirty pages beyond
  /// it hold no live data, and an unpack releases them (they read zero).
  std::vector<DirtyRegion> dirty_regions(SlotId slot,
                                         std::size_t limit_bytes) const;

  /// Number of dirty pages in [0, limit_bytes).
  std::size_t dirty_page_count(SlotId slot, std::size_t limit_bytes) const;

  /// Write-barrier faults taken since construction (all slots).
  std::uint64_t faults() const noexcept;
  /// Pages dirtied via pre_dirty (allocator notifications) since
  /// construction.
  std::uint64_t pre_dirtied() const noexcept;

  static std::size_t page_size() noexcept;

 private:
  struct SlotState {
    std::atomic<bool> armed{false};
    // Fixed-size bitmap word array, allocated on first arm and kept until
    // tracker destruction so the signal handler can read it lock-free.
    std::atomic<std::atomic<std::uint64_t>*> words{nullptr};
  };

  // Called from the SIGSEGV handler (via the signal glue). Returns true if
  // `addr` fell inside an armed slot of this tracker's arena and was
  // resolved.
  bool handle_fault(void* addr) noexcept;
  friend struct DirtyTrackerSignalGlue;

  std::atomic<std::uint64_t>* words_for(SlotId slot) const noexcept;
  bool mark_and_unprotect(SlotId slot, std::size_t first_page,
                          std::size_t page_count, bool from_fault) noexcept;

  IsoArena& arena_;
  std::byte* arena_base_;
  std::size_t arena_span_;
  std::size_t page_size_;
  std::size_t pages_per_slot_;
  std::size_t words_per_slot_;
  std::unique_ptr<SlotState[]> slots_;
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> pre_dirtied_{0};
};

}  // namespace apv::iso
