// PIEglobals (paper §3.3): the production-worthy method. dlopen the PIE
// once per process, locate its segments via dl_iterate_phdr, give each rank
// its own code and data through Isomalloc, fix up pointers into the
// original segments, replicate constructor heap allocations, and combine
// with TLSglobals for TLS variables. Migration works because every
// privatized byte lives in the rank's Isomalloc slot: the data and
// constructor copies in its heap, the code either copied into the heap or
// mapped from the process's code descriptor at the top of the slot.

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/access.hpp"
#include "core/methods.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace apv::core {

using util::ApvError;
using util::ErrorCode;
using util::require;

namespace {

// Old-range -> new-base translation used by the fix-up pass.
class RemapTable {
 public:
  void add(const void* old_lo, std::size_t len, void* new_lo) {
    ranges_.push_back({reinterpret_cast<std::uintptr_t>(old_lo),
                       reinterpret_cast<std::uintptr_t>(old_lo) + len,
                       reinterpret_cast<std::uintptr_t>(new_lo)});
  }

  // If `value` points into a registered old range, rewrites it to the
  // corresponding new address and returns true.
  bool remap(std::uintptr_t& value) const noexcept {
    for (const Range& r : ranges_) {
      if (value >= r.old_lo && value < r.old_hi) {
        value = r.new_lo + (value - r.old_lo);
        return true;
      }
    }
    return false;
  }

 private:
  struct Range {
    std::uintptr_t old_lo, old_hi, new_lo;
  };
  std::vector<Range> ranges_;
};

// The paper's pointer scan: walk a region word by word and rewrite
// anything that "looks like" a pointer into the original segments.
// Vulnerable to false positives (an integer that happens to equal an old
// address gets rewritten) — exactly the weakness §3.3 admits and plans to
// replace; the Exact mode below is that replacement.
std::size_t fixup_scan_region(std::byte* region, std::size_t len,
                              const RemapTable& remap,
                              std::size_t& words_scanned) {
  std::size_t rewrites = 0;
  auto* words = reinterpret_cast<std::uintptr_t*>(region);
  const std::size_t n = len / sizeof(std::uintptr_t);
  for (std::size_t i = 0; i < n; ++i) {
    ++words_scanned;
    std::uintptr_t v = words[i];
    if (remap.remap(v)) {
      words[i] = v;
      ++rewrites;
    }
  }
  return rewrites;
}

[[noreturn]] void throw_errno(const char* what) {
  throw ApvError(ErrorCode::Internal,
                 std::string(what) + ": " + std::strerror(errno));
}

// One sealed memfd holding `len` bytes of code, padded with zeroes to
// `file_bytes` so that every page of a window maps inside the file.
int code_descriptor(const std::byte* code, std::size_t len,
                    std::size_t file_bytes) {
  const int fd = memfd_create("apv-pie-code", MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (fd < 0) throw_errno("PIEglobals: memfd_create");
  try {
    if (ftruncate(fd, static_cast<off_t>(file_bytes)) != 0)
      throw_errno("PIEglobals: code descriptor ftruncate");
    for (std::size_t off = 0; off < len;) {
      const ssize_t n =
          pwrite(fd, code + off, len - off, static_cast<off_t>(off));
      if (n <= 0) throw_errno("PIEglobals: code descriptor write");
      off += static_cast<std::size_t>(n);
    }
    // Written once: from here the bytes and the size are fixed.
    if (fcntl(fd, F_ADD_SEALS,
              F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE | F_SEAL_SEAL) != 0)
      throw_errno("PIEglobals: code descriptor seal");
  } catch (...) {
    close(fd);
    throw;
  }
  return fd;
}

}  // namespace

PieGlobalsMethod::~PieGlobalsMethod() {
  if (code_fd_ >= 0) close(code_fd_);
}

void PieGlobalsMethod::init_process(ProcessEnv& env) {
  env_ = &env;
  require(env.image->is_pie(), ErrorCode::NotSupported,
          "PIEglobals requires the program built as a PIE "
          "(-pieglobals toolchain option)");
  fixup_mode_ = env.options.get_string("pie.fixup") == "exact"
                    ? PieFixupMode::Exact
                    : PieFixupMode::Scan;

  // dl_iterate_phdr before and after dlopen to locate the new binary's
  // segments (§3.3). Opened once per OS process — not once per rank — to
  // avoid the dlopen/pthread interactions the paper hit in SMP mode.
  const auto before = env.loader->iterate_phdr();
  img::ImageInstance& prim = env.loader->load_primary(*env.image);
  const auto after = env.loader->iterate_phdr();
  const img::PhdrInfo* fresh = nullptr;
  for (const img::PhdrInfo& info : after) {
    bool seen = false;
    for (const img::PhdrInfo& old : before) {
      if (old.instance == info.instance) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      fresh = &info;
      break;
    }
  }
  if (fresh == nullptr) {
    // Already loaded before us (e.g. another method ran first in tests);
    // fall back to the registry's view of the primary.
    require(env.loader->primary_loaded(*env.image), ErrorCode::BadState,
            "PIEglobals: cannot locate the program's segments");
    primary_ = env.loader->registry().primary_of(*env.image);
  } else {
    primary_ = fresh->instance;
  }
  require(primary_ != nullptr, ErrorCode::Internal,
          "PIEglobals: primary instance not found");
  (void)prim;

  if (env.options.get_bool("pie.share_code")) {
    // The code goes into one descriptor, once; every rank of this process
    // maps it at the top of its own slot (init_rank, on_rank_arrived).
    const std::size_t code_size = env.image->code_size();
    const std::size_t window = util::align_up(
        code_size, static_cast<std::size_t>(sysconf(_SC_PAGESIZE)));
    require(window < env.arena->slot_size(), ErrorCode::InvalidArgument,
            "PIEglobals: the code segment does not fit in an isomalloc slot");
    code_fd_ = code_descriptor(primary_->code_base(), code_size, window);
    window_bytes_ = window;
  }
}

void PieGlobalsMethod::init_rank(RankContext& rc) {
  const img::ProgramImage& image = *env_->image;
  const std::size_t code_size = image.code_size();
  const std::size_t data_size = image.data_size();

  // 1. Give the rank its own segments in its Isomalloc slot. The data
  //    segment is copied into the slot heap. The code is mapped from the
  //    process's descriptor into the window above the heap (pie.share_code,
  //    the paper's future work: map code from a single descriptor), or
  //    copied into the heap like the data.
  std::byte* code;
  if (code_fd_ >= 0) {
    code = static_cast<std::byte*>(
        env_->arena->map_tail(rc.slot, code_fd_, window_bytes_));
  } else {
    code = static_cast<std::byte*>(rc.heap->alloc(code_size, 4096));
    std::memcpy(code, primary_->code_base(), code_size);
  }
  auto* data = static_cast<std::byte*>(rc.heap->alloc(data_size, 4096));
  std::memcpy(data, primary_->data_base(), data_size);

  RemapTable remap;
  remap.add(primary_->code_base(), code_size, code);
  remap.add(primary_->data_base(), data_size, data);

  // 2. Replicate constructor-time heap allocations into the slot heap and
  //    extend the remap table so pointers to them get rewritten too.
  std::vector<img::CtorAlloc> clones;
  clones.reserve(primary_->ctor_allocs().size());
  for (const img::CtorAlloc& a : primary_->ctor_allocs()) {
    void* clone = rc.heap->alloc(a.size, 16);
    std::memcpy(clone, a.ptr, a.size);
    remap.add(a.ptr, a.size, clone);
    clones.push_back({clone, a.size});
  }

  // 3. Fix up pointers into the original segments/allocations.
  if (fixup_mode_ == PieFixupMode::Scan) {
    // Scan the copied data segment (covers the GOT, global pointers, and
    // constructor-written function pointers) and every cloned allocation.
    stats_.data_rewrites += fixup_scan_region(data, data_size, remap,
                                              stats_.words_scanned);
    for (const img::CtorAlloc& c : clones) {
      stats_.heap_rewrites += fixup_scan_region(
          static_cast<std::byte*>(c.ptr), c.size, remap,
          stats_.words_scanned);
    }
  } else {
    // Exact relocation: rebuild the GOT from image layout, then apply the
    // recorded constructor pointer stores. No false positives.
    auto* got = reinterpret_cast<std::uintptr_t*>(data);
    const auto& entries = image.got();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const img::GotEntry& e = entries[i];
      if (e.kind == img::GotEntry::Kind::Func) {
        got[i] = reinterpret_cast<std::uintptr_t>(code) +
                 image.func(e.id).code_offset;
      } else {
        got[i] = reinterpret_cast<std::uintptr_t>(data) +
                 image.var(e.id).offset;
      }
      ++stats_.got_rewrites;
    }
    for (const img::PtrSlot& slot : primary_->ptr_slots()) {
      std::uintptr_t* loc;
      if (slot.where == img::PtrSlot::Where::Data) {
        loc = reinterpret_cast<std::uintptr_t*>(data + slot.offset);
        ++stats_.data_rewrites;
      } else {
        require(slot.alloc_index < clones.size(), ErrorCode::Internal,
                "ptr slot refers to unknown ctor allocation");
        loc = reinterpret_cast<std::uintptr_t*>(
            static_cast<std::byte*>(clones[slot.alloc_index].ptr) +
            slot.offset);
        ++stats_.heap_rewrites;
      }
      remap.remap(*loc);
    }
  }

  // 4. Adopt an instance over the copies and register it so function
  //    pointers and pieglobals_find can resolve addresses inside it.
  rc.pie_instance =
      img::ImageInstance::adopt(image, img::InstanceOrigin::PieCopy, code,
                                data);
  rc.pie_instance->set_ctor_allocs(std::move(clones));
  env_->loader->registry().add(rc.pie_instance.get());
  rc.instance = rc.pie_instance.get();
  rc.data_base = data;
  rc.got = rc.pie_instance->got();

  // 5. Per-rank TLS block in the slot: "PIEglobals implies TLSglobals".
  rc.tls_block = static_cast<std::byte*>(
      rc.heap->alloc(image.tls_size(), 16));
  image.materialize_tls(rc.tls_block);

  APV_DEBUG("pieglobals",
            "rank %d privatized: code %zu KiB data %zu KiB, %zu ctor allocs",
            rc.world_rank, code_size >> 10, data_size >> 10,
            rc.pie_instance->ctor_allocs().size());
}

void PieGlobalsMethod::on_switch_in(RankContext* rc) noexcept {
  // The TLSglobals component's segment-pointer swap; the PIE segments
  // themselves need no per-switch work.
  if (rc != nullptr) tl_tls_base = rc->tls_block;
}

void PieGlobalsMethod::on_rank_departed(RankContext& rc) {
  // The instance's address ranges leave this process's view.
  if (rc.pie_instance) {
    env_->loader->registry().remove(rc.pie_instance.get());
  }
}

void PieGlobalsMethod::on_rank_arrived(RankContext& rc) {
  // Segments arrived in the slot at identical virtual addresses (the
  // Isomalloc invariant). No image carried the code window: it is mapped
  // from this process's own descriptor, at the same address (a rank moving
  // within the process already maps it). Register the segments with this
  // process so function pointers and pieglobals_find resolve here too.
  if (code_fd_ >= 0) env_->arena->map_tail(rc.slot, code_fd_, window_bytes_);
  env_->loader->registry().add(rc.pie_instance.get());
}

void PieGlobalsMethod::destroy_rank(RankContext& rc) {
  if (rc.pie_instance) {
    env_->loader->registry().remove(rc.pie_instance.get());
    rc.pie_instance.reset();
  }
  rc.instance = nullptr;
  rc.tls_block = nullptr;
}

const void* pieglobals_find(const img::InstanceRegistry& registry,
                            const void* privatized_addr) {
  const img::ImageInstance* inst = registry.find(privatized_addr);
  if (inst == nullptr) return nullptr;
  const img::ImageInstance* primary = registry.primary_of(inst->image());
  if (primary == nullptr) return nullptr;
  const auto* p = static_cast<const std::byte*>(privatized_addr);
  if (inst->contains_code(p))
    return primary->code_base() + (p - inst->code_base());
  return primary->data_base() + (p - inst->data_base());
}

}  // namespace apv::core
