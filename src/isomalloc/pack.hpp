#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isomalloc/arena.hpp"
#include "isomalloc/dirty_tracker.hpp"
#include "util/bytes.hpp"

namespace apv::iso {

/// How much of a slot a migration message carries.
enum class PackMode {
  /// The slot's whole extent (everything below a mapped tail), committed
  /// or not. Simple and always correct; cost is proportional to slot size
  /// regardless of actual usage.
  FullSlot,
  /// Only the "touched" prefix [0, SlotHeap::high_water()). This is the
  /// paper's future-work optimization of migrating only the regions that
  /// can differ; requires the slot to be SlotHeap-formatted at its base.
  Touched,
};

const char* pack_mode_name(PackMode mode) noexcept;

/// Serializes a slot's memory into `out`. The byte stream is
/// self-describing (magic, slot size, region list) and is validated on
/// unpack. The slot remains intact after packing. No mode carries a mapped
/// tail (IsoArena::map_tail): it is the destination's to map.
void pack_slot(const IsoArena& arena, SlotId slot, PackMode mode,
               util::ByteBuffer& out);

/// Serializes only the given dirty regions (from DirtyTracker) as a delta
/// against `base_epoch`. The stream is self-describing: a distinct magic,
/// the base epoch, and an explicit {offset, len} region list, so unpack
/// can verify it is applied on top of the right materialized state.
void pack_slot_delta(const IsoArena& arena, SlotId slot,
                     const std::vector<DirtyRegion>& regions,
                     std::uint64_t base_epoch, util::ByteBuffer& out);

/// Restores a slot's memory from a stream produced by pack_slot or
/// pack_slot_delta (dispatches on the magic). For a full image, the bytes
/// past the packed prefix are released (IsoArena::discard_from): they read
/// zero, as in the fresh address space a real migration lands in, and hold
/// no physical memory. For a delta, the slot must already hold the
/// materialized predecessor image; only the listed regions are overwritten.
/// Chains therefore apply as: full base, then each delta in epoch order.
void unpack_slot(const IsoArena& arena, SlotId slot, util::ByteReader& in);

/// Compatibility overload reading from a ByteBuffer's cursor.
void unpack_slot(const IsoArena& arena, SlotId slot, util::ByteBuffer& in);

/// True if the stream holds a delta image; if so and `base_epoch` is
/// non-null, writes the delta's base epoch. Does not consume the reader.
bool packed_image_is_delta(const util::ByteReader& in,
                           std::uint64_t* base_epoch = nullptr) noexcept;

/// Number of payload bytes pack_slot would produce (excluding framing).
std::size_t packed_payload_size(const IsoArena& arena, SlotId slot,
                                PackMode mode);

}  // namespace apv::iso
