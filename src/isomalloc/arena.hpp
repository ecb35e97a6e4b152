#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace apv::iso {

/// Index of a slot within the arena. Each virtual rank owns exactly one
/// slot for its migratable state (ULT stack, rank heap, privatized data
/// segment under PIEglobals, and its code window or code copy).
using SlotId = std::uint32_t;

inline constexpr SlotId kInvalidSlot = ~SlotId{0};

/// Isomalloc-style virtual address arena.
///
/// One large region is reserved up front (PROT_NONE) and partitioned into
/// fixed-size slots. Real Isomalloc coordinates so that slot N occupies the
/// *same* virtual address range in every OS process of the job; a migrated
/// rank's memory is recreated at identical addresses on the destination, so
/// every pointer into its stack and heap stays valid with no serialization
/// code. This runtime hosts all "nodes" in one process, so that invariant
/// holds trivially — but all machinery (commit/decommit, pack/unpack,
/// address-stability checks) is real and exercised.
class IsoArena {
 public:
  struct Config {
    std::size_t slot_size = std::size_t{64} << 20;  ///< bytes per slot
    std::size_t max_slots = 256;                    ///< reserved slot count
  };

  explicit IsoArena(const Config& config);
  ~IsoArena();

  IsoArena(const IsoArena&) = delete;
  IsoArena& operator=(const IsoArena&) = delete;

  /// Claims a free slot, commits it read-write, and returns its id.
  /// Throws OutOfMemory when all slots are taken.
  SlotId acquire_slot();

  /// Returns a slot to the free pool; its pages are discarded and
  /// re-protected so stale pointers fault loudly. A mapped tail gets the
  /// anonymous reservation back, so the next tenant never inherits it.
  void release_slot(SlotId slot);

  /// Returns the slot's bytes from `offset` to its end to what a fresh
  /// mapping holds: zeroes the rest of the page containing `offset`, then
  /// drops every whole page after it (MADV_DONTNEED), so those bytes read
  /// zero and hold no physical memory. Pages of a mapped tail lose only
  /// their private copies and read the file's bytes again.
  void discard_from(SlotId slot, std::size_t offset) const;

  /// Maps the first `len` bytes (a page multiple) of `fd` read-only and
  /// copy-on-write over the top `len` bytes of the slot, replacing what
  /// was there or the tail mapped before, and returns the tail's address.
  /// A tail that `fd` already backs stays as it is. The slot's extent ends
  /// below the tail. `fd` must stay open while it backs a tail.
  void* map_tail(SlotId slot, int fd, std::size_t len);

  /// Bytes of the slot below its mapped tail (the whole slot when none is
  /// mapped): the most a slot heap or a packed image of the slot covers.
  std::size_t slot_extent(SlotId slot) const;

  /// Low address of the given slot's range.
  void* slot_base(SlotId slot) const;

  std::size_t slot_size() const noexcept { return config_.slot_size; }
  std::size_t max_slots() const noexcept { return config_.max_slots; }
  std::size_t slots_in_use() const;

  /// True if `addr` lies inside the given slot.
  bool contains(SlotId slot, const void* addr) const;

  /// Slot owning `addr`, or kInvalidSlot if the address is outside the
  /// arena. Used by debugging facilities such as pieglobals_find.
  SlotId slot_of(const void* addr) const;

 private:
  Config config_;
  std::byte* base_ = nullptr;
  std::size_t reserved_bytes_ = 0;
  mutable std::mutex mutex_;
  std::vector<bool> in_use_;
  std::size_t used_count_ = 0;
  // Each slot's mapped tail. Written by map_tail and release_slot, read by
  // pack: all act for the slot's current owner, one at a time.
  struct Tail {
    std::size_t len = 0;  // 0: no tail
    int fd = -1;
  };
  std::vector<Tail> tails_;
};

}  // namespace apv::iso
