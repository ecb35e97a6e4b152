#include "isomalloc/pack.hpp"

#include <algorithm>
#include <cstring>

#include "isomalloc/slot_heap.hpp"
#include "util/error.hpp"

namespace apv::iso {

using util::ErrorCode;
using util::require;

namespace {
constexpr std::uint64_t kPackMagic = 0x41505650'41434b31ULL;   // "APVPACK1"
constexpr std::uint64_t kDeltaMagic = 0x41505650'41434b32ULL;  // "APVPACK2"

std::size_t touched_bytes(const IsoArena& arena, SlotId slot) {
  // Touched mode requires a SlotHeap at the slot base; SlotHeap::at
  // validates the magic and throws CorruptImage otherwise. The trailing
  // free block's header and in-band free-list links sit immediately at the
  // high-water offset and are live heap metadata, so the carried prefix
  // must cover them.
  SlotHeap* heap = SlotHeap::at(arena.slot_base(slot));
  return std::min(arena.slot_extent(slot),
                  heap->high_water() + SlotHeap::kCarrySlackBytes);
}

struct DeltaHeader {
  std::uint64_t slot_size;
  std::uint64_t base_epoch;
  std::uint64_t page_size;
  std::uint64_t region_count;
};

DeltaHeader read_delta_header(util::ByteReader& in) {
  require(in.remaining() >= 5 * sizeof(std::uint64_t), ErrorCode::CorruptImage,
          "unpack delta: truncated stream");
  const auto magic = in.get<std::uint64_t>();
  require(magic == kDeltaMagic, ErrorCode::CorruptImage,
          "unpack delta: bad magic");
  DeltaHeader h;
  h.slot_size = in.get<std::uint64_t>();
  h.base_epoch = in.get<std::uint64_t>();
  h.page_size = in.get<std::uint64_t>();
  h.region_count = in.get<std::uint64_t>();
  return h;
}
}  // namespace

const char* pack_mode_name(PackMode mode) noexcept {
  switch (mode) {
    case PackMode::FullSlot: return "full";
    case PackMode::Touched: return "touched";
  }
  return "?";
}

std::size_t packed_payload_size(const IsoArena& arena, SlotId slot,
                                PackMode mode) {
  return mode == PackMode::FullSlot ? arena.slot_extent(slot)
                                    : touched_bytes(arena, slot);
}

void pack_slot(const IsoArena& arena, SlotId slot, PackMode mode,
               util::ByteBuffer& out) {
  const std::size_t len = packed_payload_size(arena, slot, mode);
  out.put<std::uint64_t>(kPackMagic);
  out.put<std::uint64_t>(arena.slot_size());
  out.put<std::uint64_t>(len);
  // Raw copy: the prefix legitimately includes ASan-quarantined freed heap
  // blocks (their bytes are live allocator state on the wire).
  out.put_bytes_raw(arena.slot_base(slot), len);
}

void pack_slot_delta(const IsoArena& arena, SlotId slot,
                     const std::vector<DirtyRegion>& regions,
                     std::uint64_t base_epoch, util::ByteBuffer& out) {
  out.put<std::uint64_t>(kDeltaMagic);
  out.put<std::uint64_t>(arena.slot_size());
  out.put<std::uint64_t>(base_epoch);
  out.put<std::uint64_t>(DirtyTracker::page_size());
  out.put<std::uint64_t>(regions.size());
  const auto* base = static_cast<const std::byte*>(arena.slot_base(slot));
  for (const DirtyRegion& r : regions) {
    require(r.offset + r.len <= arena.slot_extent(slot),
            ErrorCode::InvalidArgument, "pack_slot_delta: region exceeds slot");
    out.put<std::uint64_t>(r.offset);
    out.put<std::uint64_t>(r.len);
    // Dirtied pages can span quarantined freed blocks; copy past the shadow.
    out.put_bytes_raw(base + r.offset, r.len);
  }
}

bool packed_image_is_delta(const util::ByteReader& in,
                           std::uint64_t* base_epoch) noexcept {
  if (in.remaining() < 3 * sizeof(std::uint64_t)) return false;
  std::uint64_t magic;
  std::memcpy(&magic, in.cursor(), sizeof magic);
  if (magic != kDeltaMagic) return false;
  if (base_epoch != nullptr) {
    std::memcpy(base_epoch, in.cursor() + 2 * sizeof(std::uint64_t),
                sizeof *base_epoch);
  }
  return true;
}

void unpack_slot(const IsoArena& arena, SlotId slot, util::ByteReader& in) {
  require(in.remaining() >= 3 * sizeof(std::uint64_t), ErrorCode::CorruptImage,
          "unpack_slot: truncated stream");
  std::uint64_t magic;
  std::memcpy(&magic, in.cursor(), sizeof magic);
  char* base = static_cast<char*>(arena.slot_base(slot));

  if (magic == kDeltaMagic) {
    // Delta: the slot must already hold the materialized predecessor; only
    // the listed regions change. The base image's unpack already released
    // everything its prefix did not carry.
    const DeltaHeader h = read_delta_header(in);
    require(h.slot_size == arena.slot_size(), ErrorCode::CorruptImage,
            "unpack delta: slot size mismatch");
    for (std::uint64_t i = 0; i < h.region_count; ++i) {
      require(in.remaining() >= 2 * sizeof(std::uint64_t),
              ErrorCode::CorruptImage, "unpack delta: truncated region");
      const auto offset = in.get<std::uint64_t>();
      const auto len = in.get<std::uint64_t>();
      require(offset + len <= arena.slot_extent(slot),
              ErrorCode::CorruptImage, "unpack delta: region exceeds slot");
      require(in.remaining() >= len, ErrorCode::CorruptImage,
              "unpack delta: truncated region payload");
      in.get_bytes_raw(base + offset, len);
    }
    // The raw writes may have rewritten heap metadata (source-side frees);
    // rebuild the ASan free-block quarantine from the updated block chain.
    SlotHeap::asan_reconcile_if_present(base, arena.slot_size());
    return;
  }

  in.skip(sizeof magic);
  require(magic == kPackMagic, ErrorCode::CorruptImage,
          "unpack_slot: bad magic");
  const auto slot_size = in.get<std::uint64_t>();
  require(slot_size == arena.slot_size(), ErrorCode::CorruptImage,
          "unpack_slot: slot size mismatch between source and destination");
  const auto len = in.get<std::uint64_t>();
  require(len <= arena.slot_extent(slot), ErrorCode::CorruptImage,
          "unpack_slot: region exceeds slot");
  require(in.remaining() >= len, ErrorCode::CorruptImage,
          "unpack_slot: truncated payload");
  in.get_bytes_raw(base, len);
  // A real migration lands in a fresh address space, so nothing outside the
  // packed bytes survives: release the rest of the slot, which then reads
  // zero and holds no pages (a mapped tail reads its file again).
  arena.discard_from(slot, len);
  // The shadow no longer matches the rewritten heap: clear it across the
  // slot and re-quarantine the free blocks the image carried.
  SlotHeap::asan_reconcile_if_present(base, arena.slot_size());
}

void unpack_slot(const IsoArena& arena, SlotId slot, util::ByteBuffer& in) {
  util::ByteReader reader(in);
  unpack_slot(arena, slot, reader);
}

}  // namespace apv::iso
