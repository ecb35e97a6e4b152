// Unit and property tests for the Isomalloc substrate: the VA arena, the
// in-slot heap (randomized alloc/free against a shadow model with full
// structural validation), and slot pack/unpack.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "isomalloc/arena.hpp"
#include "isomalloc/dirty_tracker.hpp"
#include "isomalloc/pack.hpp"
#include "isomalloc/slot_heap.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace apv;
using util::ApvError;

namespace {
iso::IsoArena::Config small_arena() {
  return {.slot_size = std::size_t{1} << 20, .max_slots = 8};
}
}  // namespace

TEST(Arena, AcquireReleaseCycle) {
  iso::IsoArena arena(small_arena());
  EXPECT_EQ(arena.slots_in_use(), 0u);
  const iso::SlotId a = arena.acquire_slot();
  const iso::SlotId b = arena.acquire_slot();
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.slots_in_use(), 2u);
  arena.release_slot(a);
  EXPECT_EQ(arena.slots_in_use(), 1u);
  const iso::SlotId c = arena.acquire_slot();
  EXPECT_EQ(c, a);  // slots recycle lowest-first
  arena.release_slot(b);
  arena.release_slot(c);
}

TEST(Arena, SlotsAreDisjointAndWritable) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId a = arena.acquire_slot();
  const iso::SlotId b = arena.acquire_slot();
  auto* pa = static_cast<char*>(arena.slot_base(a));
  auto* pb = static_cast<char*>(arena.slot_base(b));
  EXPECT_EQ(pa + arena.slot_size(), pb);
  std::memset(pa, 0x11, arena.slot_size());
  std::memset(pb, 0x22, arena.slot_size());
  EXPECT_EQ(static_cast<unsigned char>(pa[arena.slot_size() - 1]), 0x11u);
  EXPECT_EQ(static_cast<unsigned char>(pb[0]), 0x22u);
}

TEST(Arena, ContainsAndSlotOf) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId a = arena.acquire_slot();
  char* p = static_cast<char*>(arena.slot_base(a));
  EXPECT_TRUE(arena.contains(a, p));
  EXPECT_TRUE(arena.contains(a, p + arena.slot_size() - 1));
  EXPECT_FALSE(arena.contains(a, p + arena.slot_size()));
  EXPECT_EQ(arena.slot_of(p + 100), a);
  int on_stack;
  EXPECT_EQ(arena.slot_of(&on_stack), iso::kInvalidSlot);
}

TEST(Arena, ExhaustionThrows) {
  iso::IsoArena arena({.slot_size = 64 << 10, .max_slots = 2});
  arena.acquire_slot();
  arena.acquire_slot();
  EXPECT_THROW(arena.acquire_slot(), ApvError);
}

TEST(Arena, BadConfigRejected) {
  EXPECT_THROW(iso::IsoArena({.slot_size = 1024, .max_slots = 4}), ApvError);
  EXPECT_THROW(iso::IsoArena({.slot_size = 1 << 20, .max_slots = 0}),
               ApvError);
  // Slots must start on page boundaries to be committed and released.
  EXPECT_THROW(iso::IsoArena({.slot_size = (1 << 20) + 512, .max_slots = 2}),
               ApvError);
}

TEST(Arena, DoubleReleaseThrows) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId a = arena.acquire_slot();
  arena.release_slot(a);
  EXPECT_THROW(arena.release_slot(a), ApvError);
}

// ---------------------------------------------------------------------------
// SlotHeap

class SlotHeapTest : public ::testing::Test {
 protected:
  SlotHeapTest() : arena_(small_arena()) {
    slot_ = arena_.acquire_slot();
    heap_ = iso::SlotHeap::format(arena_.slot_base(slot_),
                                  arena_.slot_size());
  }
  iso::IsoArena arena_;
  iso::SlotId slot_;
  iso::SlotHeap* heap_;
};

TEST_F(SlotHeapTest, FormatProducesValidEmptyHeap) {
  EXPECT_TRUE(heap_->check_integrity());
  EXPECT_EQ(heap_->bytes_in_use(), 0u);
  EXPECT_EQ(heap_->block_count(), 0u);
  EXPECT_GT(heap_->capacity(), arena_.slot_size() - 4096);
}

TEST_F(SlotHeapTest, AtValidatesMagic) {
  EXPECT_EQ(iso::SlotHeap::at(arena_.slot_base(slot_)), heap_);
  std::vector<char> junk(8192, 0x5A);
  EXPECT_THROW(iso::SlotHeap::at(junk.data()), ApvError);
}

TEST_F(SlotHeapTest, AllocationsAreDisjointAndAligned) {
  void* a = heap_->alloc(100);
  void* b = heap_->alloc(200);
  void* c = heap_->alloc(1);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  for (void* p : {a, b, c})
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
  std::memset(a, 1, 100);
  std::memset(b, 2, 200);
  std::memset(c, 3, 1);
  EXPECT_EQ(static_cast<char*>(a)[99], 1);
  EXPECT_EQ(static_cast<char*>(b)[0], 2);
  EXPECT_TRUE(heap_->check_integrity());
}

TEST_F(SlotHeapTest, LargeAlignmentHonoured) {
  for (std::size_t align : {32u, 64u, 256u, 4096u}) {
    void* p = heap_->alloc(64, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
    EXPECT_TRUE(heap_->check_integrity());
    heap_->free(p);
  }
  EXPECT_EQ(heap_->bytes_in_use(), 0u);
}

TEST_F(SlotHeapTest, BadAlignmentRejected) {
  EXPECT_THROW(heap_->alloc(8, 24), ApvError);    // not a power of two
  EXPECT_THROW(heap_->alloc(8, 8192), ApvError);  // beyond the cap
}

TEST_F(SlotHeapTest, ExhaustionThrowsAndTryAllocReturnsNull) {
  EXPECT_EQ(heap_->try_alloc(arena_.slot_size() * 2), nullptr);
  EXPECT_THROW(heap_->alloc(arena_.slot_size() * 2), ApvError);
  // The heap remains usable afterwards.
  void* p = heap_->alloc(64);
  EXPECT_NE(p, nullptr);
  heap_->free(p);
}

TEST_F(SlotHeapTest, FreeCoalescesToFullCapacity) {
  std::vector<void*> ps;
  for (int i = 0; i < 64; ++i) ps.push_back(heap_->alloc(1000));
  // Free in a scrambled order to exercise both coalesce directions.
  for (int i = 0; i < 64; i += 2) heap_->free(ps[i]);
  for (int i = 1; i < 64; i += 2) heap_->free(ps[i]);
  EXPECT_TRUE(heap_->check_integrity());
  EXPECT_EQ(heap_->bytes_in_use(), 0u);
  // A single allocation of nearly full capacity must now succeed again.
  void* big = heap_->try_alloc(heap_->capacity() - 256);
  EXPECT_NE(big, nullptr);
}

TEST_F(SlotHeapTest, DoubleFreeDetected) {
  void* p = heap_->alloc(64);
  heap_->free(p);
  EXPECT_THROW(heap_->free(p), ApvError);
}

TEST_F(SlotHeapTest, HighWaterGrowsMonotonically) {
  const std::size_t w0 = heap_->high_water();
  void* a = heap_->alloc(10000);
  const std::size_t w1 = heap_->high_water();
  EXPECT_GT(w1, w0);
  heap_->free(a);
  EXPECT_EQ(heap_->high_water(), w1);  // never shrinks
}

TEST_F(SlotHeapTest, ForEachAllocationVisitsLiveBlocks) {
  void* a = heap_->alloc(100);
  void* b = heap_->alloc(200);
  heap_->free(a);
  int count = 0;
  std::size_t seen_bytes = 0;
  heap_->for_each_allocation([&](void* p, std::size_t size) {
    ++count;
    seen_bytes += size;
    EXPECT_TRUE(arena_.contains(slot_, p));
  });
  EXPECT_EQ(count, 1);
  EXPECT_GE(seen_bytes, 200u);
  heap_->free(b);
}

// Randomized differential test against a shadow model. Each live block is
// filled with a seed-derived pattern and re-verified before free, so any
// overlap or metadata corruption shows up as a pattern mismatch; heap
// structural invariants are validated throughout.
class SlotHeapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlotHeapFuzz, RandomAllocFreeKeepsIntegrity) {
  iso::IsoArena arena({.slot_size = std::size_t{2} << 20, .max_slots = 2});
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap* heap =
      iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  util::SplitMix64 rng(GetParam());

  struct Shadow {
    std::size_t size;
    unsigned char pattern;
  };
  std::map<void*, Shadow> live;
  for (int step = 0; step < 3000; ++step) {
    const bool do_alloc = live.empty() || rng.next_below(100) < 60;
    if (do_alloc) {
      const std::size_t size = 1 + rng.next_below(3000);
      const std::size_t align = std::size_t{16}
                                << rng.next_below(4);  // 16..128
      void* p = heap->try_alloc(size, align);
      if (p == nullptr) continue;  // full is fine
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
      const auto pattern =
          static_cast<unsigned char>(rng.next() & 0xff);
      std::memset(p, pattern, size);
      ASSERT_EQ(live.count(p), 0u);
      live[p] = {size, pattern};
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next_below(live.size())));
      const auto* bytes = static_cast<unsigned char*>(it->first);
      for (std::size_t i = 0; i < it->second.size; ++i) {
        ASSERT_EQ(bytes[i], it->second.pattern) << "corruption at " << i;
      }
      heap->free(it->first);
      live.erase(it);
    }
    if (step % 250 == 0) {
      ASSERT_TRUE(heap->check_integrity());
    }
  }
  ASSERT_TRUE(heap->check_integrity());
  for (auto& [p, shadow] : live) {
    const auto* bytes = static_cast<unsigned char*>(p);
    for (std::size_t i = 0; i < shadow.size; ++i)
      ASSERT_EQ(bytes[i], shadow.pattern);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlotHeapFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// ---------------------------------------------------------------------------
// Pack / unpack

TEST(Pack, RoundTripPreservesHeapBytes) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap* heap =
      iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  char* a = static_cast<char*>(heap->alloc(5000));
  std::memset(a, 0x42, 5000);
  char* b = static_cast<char*>(heap->alloc(100));
  std::memcpy(b, "payload", 8);

  for (iso::PackMode mode : {iso::PackMode::Touched, iso::PackMode::FullSlot}) {
    util::ByteBuffer buf;
    iso::pack_slot(arena, slot, mode, buf);
    buf.rewind();
    iso::unpack_slot(arena, slot, buf);
    EXPECT_TRUE(iso::SlotHeap::at(arena.slot_base(slot))->check_integrity());
    EXPECT_EQ(a[4999], 0x42) << iso::pack_mode_name(mode);
    EXPECT_STREQ(b, "payload");
  }
}

TEST(Pack, TouchedIsSmallerThanFull) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap* heap =
      iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  heap->alloc(1000);
  EXPECT_LT(iso::packed_payload_size(arena, slot, iso::PackMode::Touched),
            iso::packed_payload_size(arena, slot, iso::PackMode::FullSlot));
  EXPECT_EQ(iso::packed_payload_size(arena, slot, iso::PackMode::FullSlot),
            arena.slot_size());
}

TEST(Pack, UnpackClearsBeyondCarriedPrefix) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap* heap =
      iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  heap->alloc(256);
  util::ByteBuffer buf;
  iso::pack_slot(arena, slot, iso::PackMode::Touched, buf);
  // Scribble past the high-water mark, then unpack: the scribble must read
  // zero, as fresh memory does (a real migration would never have carried
  // it). The raw helpers bypass ASan: that region is free
  // heap, quarantined under -DAPV_SANITIZE=address, and the scribble is
  // deliberate test machinery, not a rank access.
  char* past = static_cast<char*>(arena.slot_base(slot)) +
               heap->high_water() + 64;
  const char scribble = 77;
  util::raw_memcpy(past, &scribble, 1);
  buf.rewind();
  iso::unpack_slot(arena, slot, buf);
  unsigned char got = 0xFF;
  util::raw_memcpy(&got, past, 1);
  EXPECT_EQ(got, 0u);
}

// The bytes a full image did not carry go back to the kernel on unpack: a
// rank restored to an image older than its heap's growth keeps none of the
// pages it grew into.
TEST(Pack, UnpackReleasesPagesPastCarriedPrefix) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap* heap =
      iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  heap->alloc(256);
  util::ByteBuffer buf;
  iso::pack_slot(arena, slot, iso::PackMode::Touched, buf);
  const std::size_t carried =
      iso::packed_payload_size(arena, slot, iso::PackMode::Touched);

  // Grow past the image's high-water mark and write every grown page.
  constexpr std::size_t kGrow = 256 << 10;
  auto* grown = static_cast<unsigned char*>(heap->alloc(kGrow));
  ASSERT_NE(grown, nullptr);
  std::memset(grown, 0x5A, kGrow);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  auto* base = static_cast<unsigned char*>(arena.slot_base(slot));
  unsigned char* first = base + (carried + page - 1) / page * page;
  const std::size_t pages =
      static_cast<std::size_t>(grown + kGrow - first) / page;
  ASSERT_GT(pages, 0u);
  const auto resident_pages = [&] {
    std::vector<unsigned char> vec(pages);
    EXPECT_EQ(mincore(first, pages * page, vec.data()), 0);
    return std::count_if(vec.begin(), vec.end(),
                         [](unsigned char v) { return (v & 1) != 0; });
  };
  ASSERT_EQ(resident_pages(), static_cast<std::ptrdiff_t>(pages));

  buf.rewind();
  iso::unpack_slot(arena, slot, buf);
  EXPECT_EQ(resident_pages(), 0);
  // Everything past the carried prefix reads zero: the rest of its last
  // page, and the released pages. Raw reads: the unpacked heap's trailing
  // free block is quarantined under -DAPV_SANITIZE=address.
  std::vector<unsigned char> got(
      static_cast<std::size_t>(first + pages * page - (base + carried)));
  util::raw_memcpy(got.data(), base + carried, got.size());
  EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                          [](unsigned char v) { return v == 0; }));
}

TEST(Pack, CorruptStreamRejected) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  util::ByteBuffer buf;
  buf.put<std::uint64_t>(0x1234);  // wrong magic
  buf.put<std::uint64_t>(arena.slot_size());
  buf.put<std::uint64_t>(0);
  buf.rewind();
  EXPECT_THROW(iso::unpack_slot(arena, slot, buf), ApvError);
}

TEST(Pack, SlotSizeMismatchRejected) {
  iso::IsoArena small(small_arena());
  iso::IsoArena big({.slot_size = std::size_t{2} << 20, .max_slots = 2});
  const iso::SlotId s1 = small.acquire_slot();
  const iso::SlotId s2 = big.acquire_slot();
  iso::SlotHeap::format(small.slot_base(s1), small.slot_size());
  iso::SlotHeap::format(big.slot_base(s2), big.slot_size());
  util::ByteBuffer buf;
  iso::pack_slot(small, s1, iso::PackMode::Touched, buf);
  buf.rewind();
  EXPECT_THROW(iso::unpack_slot(big, s2, buf), ApvError);
}

TEST(Pack, CarrySlackCoversTrailingFreeBlockExactly) {
  // The pack prefix is high_water + kCarrySlackBytes: the slack must cover
  // the trailing free block's header and in-band free-list links, or an
  // unpacked heap would alloc through a torn free list.
  iso::IsoArena arena(small_arena());
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap* heap =
      iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  heap->alloc(4096);
  EXPECT_EQ(iso::packed_payload_size(arena, slot, iso::PackMode::Touched),
            std::min(arena.slot_size(),
                     heap->high_water() + iso::SlotHeap::kCarrySlackBytes));
  util::ByteBuffer buf;
  iso::pack_slot(arena, slot, iso::PackMode::Touched, buf);
  buf.rewind();
  iso::unpack_slot(arena, slot, buf);
  iso::SlotHeap* back = iso::SlotHeap::at(arena.slot_base(slot));
  EXPECT_TRUE(back->check_integrity());
  // The free list survived the cut: carving from the trailing free block
  // still works after the round trip.
  EXPECT_NE(back->alloc(4096), nullptr);
  EXPECT_TRUE(back->check_integrity());
}

TEST(Pack, MappedTailStaysOutOfEveryImage) {
  // A file mapped over the slot's top (PIEglobals' code window) is the
  // destination's to map: neither pack mode carries it, an unpack only
  // drops private copies of its pages, and release gives the slot back
  // whole.
  iso::IsoArena arena(small_arena());
  const iso::SlotId slot = arena.acquire_slot();
  const iso::SlotId other = arena.acquire_slot();
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t tail_len = 2 * page;
  const int fd = memfd_create("tail", MFD_CLOEXEC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(ftruncate(fd, static_cast<off_t>(tail_len)), 0);
  const std::vector<char> file(tail_len, 'c');
  ASSERT_EQ(pwrite(fd, file.data(), tail_len, 0),
            static_cast<ssize_t>(tail_len));
  auto* tail = static_cast<char*>(arena.map_tail(slot, fd, tail_len));
  const std::size_t extent = arena.slot_size() - tail_len;
  EXPECT_EQ(tail, static_cast<char*>(arena.slot_base(slot)) + extent);
  EXPECT_EQ(arena.slot_extent(slot), extent);
  EXPECT_EQ(arena.slot_extent(other), arena.slot_size());

  // A heap filled to its end still packs no byte of the tail, although
  // its carry slack reaches past the extent.
  iso::SlotHeap* heap = iso::SlotHeap::format(arena.slot_base(slot), extent);
  for (const std::size_t size : {4096, 256, 16}) {
    while (heap->try_alloc(size) != nullptr) {
    }
  }
  ASSERT_GT(heap->high_water() + iso::SlotHeap::kCarrySlackBytes, extent);
  EXPECT_EQ(iso::packed_payload_size(arena, slot, iso::PackMode::Touched),
            extent);
  EXPECT_EQ(iso::packed_payload_size(arena, slot, iso::PackMode::FullSlot),
            extent);

  // A private write into the tail is gone after an unpack in place; the
  // file's bytes show through again.
  ASSERT_EQ(mprotect(tail, page, PROT_READ | PROT_WRITE), 0);
  tail[0] = 'x';
  util::ByteBuffer buf;
  iso::pack_slot(arena, slot, iso::PackMode::FullSlot, buf);
  buf.rewind();
  iso::unpack_slot(arena, slot, buf);
  EXPECT_EQ(tail[0], 'c');
  EXPECT_EQ(tail[tail_len - 1], 'c');

  // Mapping the same file again leaves the tail as it is (a rank moving
  // within its process); another file replaces it.
  tail[0] = 'y';
  EXPECT_EQ(arena.map_tail(slot, fd, tail_len), tail);
  EXPECT_EQ(tail[0], 'y');
  const int fd2 = memfd_create("tail2", MFD_CLOEXEC);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(ftruncate(fd2, static_cast<off_t>(tail_len)), 0);
  ASSERT_EQ(pwrite(fd2, "d", 1, 0), 1);
  EXPECT_EQ(arena.map_tail(slot, fd2, tail_len), tail);
  EXPECT_EQ(tail[0], 'd');

  // An image reaching into the tail is refused.
  util::ByteBuffer whole;
  iso::pack_slot(arena, other, iso::PackMode::FullSlot, whole);
  whole.rewind();
  EXPECT_THROW(iso::unpack_slot(arena, slot, whole), ApvError);

  arena.release_slot(slot);
  EXPECT_EQ(arena.slot_extent(slot), arena.slot_size());
  close(fd);
  close(fd2);
  arena.release_slot(other);
}

// ---------------------------------------------------------------------------
// Dirty tracking (mprotect write barrier)

TEST(DirtyTracker, WritesAreTrackedAtPageGranularity) {
  iso::IsoArena arena(small_arena());
  iso::DirtyTracker tracker(arena);
  const iso::SlotId slot = arena.acquire_slot();
  auto* base = static_cast<unsigned char*>(arena.slot_base(slot));
  const std::size_t page = iso::DirtyTracker::page_size();

  tracker.arm(slot);
  EXPECT_TRUE(tracker.armed(slot));
  EXPECT_EQ(tracker.dirty_page_count(slot, arena.slot_size()), 0u);

  const std::uint64_t faults0 = tracker.faults();
  base[0] = 1;                    // page 0: one fault
  base[3 * page + 17] = 2;        // page 3: one fault
  base[3 * page + page - 1] = 3;  // page 3 again: already unprotected
  EXPECT_EQ(tracker.faults(), faults0 + 2);
  EXPECT_EQ(tracker.dirty_page_count(slot, arena.slot_size()), 2u);

  const auto regions = tracker.dirty_regions(slot, arena.slot_size());
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].offset, 0u);
  EXPECT_EQ(regions[0].len, page);
  EXPECT_EQ(regions[1].offset, 3 * page);
  EXPECT_EQ(regions[1].len, page);

  tracker.disarm(slot);
  EXPECT_FALSE(tracker.armed(slot));
  base[5 * page] = 4;  // disarmed: ordinary write, no tracking
  EXPECT_EQ(tracker.faults(), faults0 + 2);
}

TEST(DirtyTracker, AdjacentPagesCoalesceAndLimitClamps) {
  iso::IsoArena arena(small_arena());
  iso::DirtyTracker tracker(arena);
  const iso::SlotId slot = arena.acquire_slot();
  auto* base = static_cast<unsigned char*>(arena.slot_base(slot));
  const std::size_t page = iso::DirtyTracker::page_size();

  tracker.arm(slot);
  base[1 * page] = 1;
  base[2 * page] = 2;
  base[3 * page] = 3;
  const auto runs = tracker.dirty_regions(slot, arena.slot_size());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, page);
  EXPECT_EQ(runs[0].len, 3 * page);

  // A prefix limit mid-page clamps the final region and drops pages beyond.
  const auto clamped = tracker.dirty_regions(slot, 2 * page + page / 2);
  ASSERT_EQ(clamped.size(), 1u);
  EXPECT_EQ(clamped[0].offset, page);
  EXPECT_EQ(clamped[0].len, page + page / 2);
  EXPECT_EQ(tracker.dirty_page_count(slot, 2 * page + page / 2), 2u);
  tracker.disarm(slot);
}

TEST(DirtyTracker, RearmClearsBitmapAndPreDirtySkipsTheFault) {
  iso::IsoArena arena(small_arena());
  iso::DirtyTracker tracker(arena);
  const iso::SlotId slot = arena.acquire_slot();
  auto* base = static_cast<unsigned char*>(arena.slot_base(slot));
  const std::size_t page = iso::DirtyTracker::page_size();

  tracker.arm(slot);
  base[0] = 1;
  EXPECT_EQ(tracker.dirty_page_count(slot, arena.slot_size()), 1u);

  tracker.arm(slot);  // new epoch: bitmap resets, slot re-protects
  EXPECT_EQ(tracker.dirty_page_count(slot, arena.slot_size()), 0u);

  // Pre-dirtying marks and write-enables without a fault.
  const std::uint64_t faults0 = tracker.faults();
  const std::uint64_t pre0 = tracker.pre_dirtied();
  tracker.pre_dirty(base + 2 * page, page);
  EXPECT_EQ(tracker.pre_dirtied(), pre0 + 1);
  base[2 * page + 5] = 9;  // no fault: the page is already writable
  EXPECT_EQ(tracker.faults(), faults0);
  EXPECT_EQ(tracker.dirty_page_count(slot, arena.slot_size()), 1u);

  // Pre-dirty outside any armed slot is a no-op.
  int on_stack = 0;
  tracker.pre_dirty(&on_stack, sizeof on_stack);
  EXPECT_EQ(tracker.pre_dirtied(), pre0 + 1);
  tracker.disarm(slot);
}

TEST(DirtyTracker, AllocatorNotificationsPreDirtyHeapMetadata) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap* heap =
      iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  heap->alloc(512);

  // The tracker's constructor installed the SlotHeap write-notify hook:
  // allocator metadata writes pre-dirty their pages instead of faulting.
  iso::DirtyTracker tracker(arena);
  tracker.arm(slot);
  const std::uint64_t pre0 = tracker.pre_dirtied();
  void* p = heap->alloc(512);
  EXPECT_NE(p, nullptr);
  EXPECT_GT(tracker.pre_dirtied(), pre0);
  EXPECT_GT(tracker.dirty_page_count(slot, arena.slot_size()), 0u);
  tracker.disarm(slot);
  EXPECT_TRUE(heap->check_integrity());
}

// ---------------------------------------------------------------------------
// Delta pack / unpack

namespace {

// Fills `buf[0, n)` with a deterministic per-test pattern.
void fill_pattern(unsigned char* buf, std::size_t n, unsigned seed) {
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<unsigned char>(i * 31 + seed);
  }
}

}  // namespace

TEST(Pack, DeltaChainRestoresBitIdenticalBytes) {
  iso::IsoArena arena(small_arena());
  iso::DirtyTracker tracker(arena);
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap* heap =
      iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  constexpr std::size_t kBytes = 64 << 10;
  auto* a = static_cast<unsigned char*>(heap->alloc(kBytes));
  fill_pattern(a, kBytes, 1);

  util::ByteBuffer base;
  iso::pack_slot(arena, slot, iso::PackMode::Touched, base);

  // New epoch: mutate a small subset of the allocation under the barrier.
  tracker.arm(slot);
  fill_pattern(a, 4096, 2);
  a[kBytes - 1] = 0x5A;
  const std::size_t prefix =
      iso::packed_payload_size(arena, slot, iso::PackMode::Touched);
  const auto regions = tracker.dirty_regions(slot, prefix);
  ASSERT_FALSE(regions.empty());
  util::ByteBuffer delta;
  iso::pack_slot_delta(arena, slot, regions, /*base_epoch=*/1, delta);
  tracker.disarm(slot);
  EXPECT_LT(delta.size(), base.size());

  std::uint64_t base_epoch = 0;
  EXPECT_TRUE(iso::packed_image_is_delta(util::ByteReader(delta),
                                         &base_epoch));
  EXPECT_EQ(base_epoch, 1u);
  EXPECT_FALSE(iso::packed_image_is_delta(util::ByteReader(base)));

  // Snapshot the live prefix, wreck the slot, then materialize the chain.
  // Raw helpers throughout: the prefix spans quarantined free-block
  // interiors, and the wreck-and-verify is test machinery, not rank code.
  std::vector<unsigned char> expect(prefix);
  util::raw_memcpy(expect.data(), arena.slot_base(slot), prefix);
  util::raw_memset(arena.slot_base(slot), 0xEE, arena.slot_size());
  base.rewind();
  iso::unpack_slot(arena, slot, base);
  delta.rewind();
  iso::unpack_slot(arena, slot, delta);

  std::vector<unsigned char> got(prefix);
  util::raw_memcpy(got.data(), arena.slot_base(slot), prefix);
  EXPECT_EQ(std::memcmp(expect.data(), got.data(), prefix), 0);
  EXPECT_TRUE(iso::SlotHeap::at(arena.slot_base(slot))->check_integrity());
  // Bytes the chain never carried read zero, not the wrecked 0xEE.
  const auto* past =
      static_cast<unsigned char*>(arena.slot_base(slot)) + prefix + 64;
  unsigned char past_byte = 0xFF;
  util::raw_memcpy(&past_byte, past, 1);
  EXPECT_EQ(past_byte, 0u);
}

TEST(Pack, DeltaRegionBeyondSlotRejected) {
  iso::IsoArena arena(small_arena());
  const iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  util::ByteBuffer buf;
  const std::vector<iso::DirtyRegion> bogus = {
      {arena.slot_size() - 16, 4096}};
  EXPECT_THROW(iso::pack_slot_delta(arena, slot, bogus, 1, buf), ApvError);
}
