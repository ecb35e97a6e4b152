#include "isomalloc/arena.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/sanitizers.hpp"

namespace apv::iso {

using util::ApvError;
using util::ErrorCode;
using util::require;

namespace {
std::size_t page_bytes() noexcept {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}
}  // namespace

IsoArena::IsoArena(const Config& config) : config_(config) {
  require(config.slot_size >= (std::size_t{64} << 10),
          ErrorCode::InvalidArgument, "slot_size must be >= 64 KiB");
  require(config.max_slots >= 1, ErrorCode::InvalidArgument,
          "max_slots must be >= 1");
  require(config.slot_size % page_bytes() == 0, ErrorCode::InvalidArgument,
          "slot_size must be a multiple of the page size");
  reserved_bytes_ = config.slot_size * config.max_slots;
  void* p = mmap(nullptr, reserved_bytes_, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    throw ApvError(ErrorCode::OutOfMemory,
                   std::string("mmap reserve failed: ") + std::strerror(errno));
  }
  base_ = static_cast<std::byte*>(p);
  in_use_.assign(config.max_slots, false);
  tails_.assign(config.max_slots, Tail{});
  APV_DEBUG("iso", "arena reserved %zu MiB at %p (%zu slots x %zu MiB)",
            reserved_bytes_ >> 20, p, config.max_slots,
            config.slot_size >> 20);
}

IsoArena::~IsoArena() {
  if (base_ != nullptr) {
    // Shadow must be cleared before the VA goes back to the kernel: released
    // slots (and quarantined heap interiors) left user poison behind, and a
    // later mmap — a thread stack, another arena — can land in this hole.
    // ASan does not scrub shadow on munmap, so stale poison would fire on
    // the innocent new tenant.
    APV_ASAN_UNPOISON(base_, reserved_bytes_);
    munmap(base_, reserved_bytes_);
  }
}

SlotId IsoArena::acquire_slot() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < in_use_.size(); ++i) {
    if (!in_use_[i]) {
      std::byte* slot = base_ + i * config_.slot_size;
      if (mprotect(slot, config_.slot_size, PROT_READ | PROT_WRITE) != 0) {
        throw ApvError(ErrorCode::OutOfMemory,
                       std::string("mprotect commit failed: ") +
                           std::strerror(errno));
      }
      // Clear any shadow state left by a previous tenant (its heap's freed
      // blocks stayed quarantined past release); the new tenant formats or
      // unpacks from scratch.
      APV_ASAN_UNPOISON(slot, config_.slot_size);
      in_use_[i] = true;
      ++used_count_;
      return static_cast<SlotId>(i);
    }
  }
  throw ApvError(ErrorCode::OutOfMemory, "isomalloc arena: no free slots");
}

void IsoArena::release_slot(SlotId slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(slot < in_use_.size() && in_use_[slot], ErrorCode::InvalidArgument,
          "release of slot not in use");
  std::byte* p = base_ + static_cast<std::size_t>(slot) * config_.slot_size;
  if (const std::size_t tail = tails_[slot].len; tail != 0) {
    // The anonymous reservation goes back over the mapped tail, so the
    // next tenant of the slot never inherits the file mapping.
    if (mmap(p + config_.slot_size - tail, tail, PROT_NONE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1,
             0) == MAP_FAILED) {
      throw ApvError(ErrorCode::Internal,
                     std::string("mmap re-reserve failed: ") +
                         std::strerror(errno));
    }
    tails_[slot] = Tail{};
  }
  // Drop the physical pages and make stale accesses fault. Under ASan the
  // shadow poison fires first, turning the raw SIGSEGV into a readable
  // use-after-poison report with the offending stack.
  APV_ASAN_POISON(p, config_.slot_size);
  discard_from(slot, 0);
  mprotect(p, config_.slot_size, PROT_NONE);
  in_use_[slot] = false;
  --used_count_;
}

void IsoArena::discard_from(SlotId slot, std::size_t offset) const {
  require(offset <= config_.slot_size, ErrorCode::InvalidArgument,
          "discard offset beyond slot");
  std::byte* base = static_cast<std::byte*>(slot_base(slot));
  const std::size_t page = page_bytes();
  const std::size_t whole = (offset + page - 1) / page * page;
  // Raw: the partial page can hold quarantined free-block bytes under ASan.
  util::raw_memset(base + offset, 0, whole - offset);
  if (whole < config_.slot_size &&
      madvise(base + whole, config_.slot_size - whole, MADV_DONTNEED) != 0) {
    throw ApvError(ErrorCode::Internal,
                   std::string("madvise discard failed: ") +
                       std::strerror(errno));
  }
}

void* IsoArena::map_tail(SlotId slot, int fd, std::size_t len) {
  require(len > 0 && len < config_.slot_size && len % page_bytes() == 0,
          ErrorCode::InvalidArgument,
          "map_tail: length must be a page multiple below the slot size");
  std::byte* at =
      static_cast<std::byte*>(slot_base(slot)) + config_.slot_size - len;
  Tail& tail = tails_[slot];
  require(tail.len == 0 || tail.len == len, ErrorCode::InvalidArgument,
          "map_tail: slot already has a tail of another length");
  if (tail.fd == fd) return at;
  if (mmap(at, len, PROT_READ, MAP_PRIVATE | MAP_FIXED, fd, 0) == MAP_FAILED) {
    throw ApvError(ErrorCode::OutOfMemory,
                   std::string("mmap tail failed: ") + std::strerror(errno));
  }
  tail = {len, fd};
  return at;
}

std::size_t IsoArena::slot_extent(SlotId slot) const {
  require(slot < config_.max_slots, ErrorCode::InvalidArgument,
          "slot id out of range");
  return config_.slot_size - tails_[slot].len;
}

void* IsoArena::slot_base(SlotId slot) const {
  require(slot < config_.max_slots, ErrorCode::InvalidArgument,
          "slot id out of range");
  return base_ + static_cast<std::size_t>(slot) * config_.slot_size;
}

std::size_t IsoArena::slots_in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_count_;
}

bool IsoArena::contains(SlotId slot, const void* addr) const {
  const auto* p = static_cast<const std::byte*>(addr);
  const std::byte* lo =
      base_ + static_cast<std::size_t>(slot) * config_.slot_size;
  return p >= lo && p < lo + config_.slot_size;
}

SlotId IsoArena::slot_of(const void* addr) const {
  const auto* p = static_cast<const std::byte*>(addr);
  if (p < base_ || p >= base_ + reserved_bytes_) return kInvalidSlot;
  return static_cast<SlotId>(static_cast<std::size_t>(p - base_) /
                             config_.slot_size);
}

}  // namespace apv::iso
