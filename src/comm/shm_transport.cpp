// transport.backend=shm: PEs block-partitioned over real OS processes on one
// host, envelopes crossing the boundary through a POSIX shared-memory
// segment (see shm_layout.hpp for the map and the offset-addressing rules).
//
// Data path: descriptors travel bounded lock-free SPSC rings — exactly one
// per directed PE pair that crosses a process boundary, produced only by the
// source PE's own loop thread (non-PE producers go through a mutex-guarded
// per-(process, dst) proxy ring so the pair rings stay single-producer).
// Payload bytes never ride a ring: the sender copies user bytes into a
// ref-counted arena block (the one permitted copy), the receiver wraps the
// mapped block with Payload::wrap_external — aggregation unbundling then
// produces refcounted views into shared memory, zero further copies.
//
// Fault path: every process heartbeats its ShmProcSlot; pollers declare a
// peer dead when its pid vanishes or its beat goes stale past
// transport.hb_timeout_ms, publish all its PEs into the shared failed-flag
// array, and fire the Cluster's failure callback (fail_pe → dead-letter
// divert). The rank-location table lives in the segment too, so re-homing
// decisions made by a recovery leader in one process are visible to all.

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/shm_layout.hpp"
#include "comm/transport.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/sanitizers.hpp"

namespace apv::comm {

using util::ErrorCode;
using util::require;

namespace {

// Descriptors per SPSC ring; a power of two, so cursor arithmetic never
// divides.
constexpr std::uint32_t kRingSlots = 1024;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::uint64_t pack_free(std::uint64_t tag, std::uint64_t off) {
  return (tag << shm::kFreelistOffBits) |
         ((off >> 6) & shm::kFreelistOffMask);
}
inline std::uint64_t free_off(std::uint64_t v) {
  return (v & shm::kFreelistOffMask) << 6;
}
inline std::uint64_t free_tag(std::uint64_t v) {
  return v >> shm::kFreelistOffBits;
}

class ShmTransport final : public Transport {
 public:
  ShmTransport(const util::Options& opt, const TransportConfig& cfg);
  ~ShmTransport() override;

  const char* name() const noexcept override { return "shm"; }
  int num_procs() const noexcept override { return procs_; }
  int my_proc() const noexcept override { return my_proc_; }
  int proc_of(PeId pe) const noexcept override { return pe / pes_per_proc_; }
  bool is_local(PeId pe) const noexcept override {
    return proc_of(pe) == my_proc_;
  }

  bool send_remote(Message& msg, bool from_owner_thread) override;
  std::size_t poll(PeId pe, const Sink& sink) override;
  Payload acquire_payload(std::size_t n) override;

  void set_failure_callback(FailureCallback cb) override {
    on_failure_ = std::move(cb);
  }
  void publish_pe_failed(PeId pe) override;

  bool has_shared_locations() const noexcept override {
    return view_.base != nullptr;
  }
  void publish_location(RankId rank, PeId pe) override;
  PeId shared_location(RankId rank) const override;
  int max_shared_ranks() const noexcept override { return max_ranks_; }

  void stop() noexcept override;

  util::Counters counters() const override;

 private:
  struct Layout {
    std::uint64_t proc_slots_off = 0;
    std::uint64_t failed_off = 0;
    std::uint64_t locations_off = 0;
    std::uint64_t pair_dir_off = 0;
    std::uint64_t proxy_dir_off = 0;
    std::uint64_t arena_off = 0;
    std::uint64_t total = 0;
  };
  Layout compute_layout() const;
  std::uint64_t ring_bytes() const {
    return sizeof(shm::ShmRing) +
           std::uint64_t{kRingSlots} * sizeof(shm::ShmMsgDesc);
  }
  void create_segment(const Layout& lay);
  void attach_segment(const Layout& lay);
  void rendezvous();

  shm::ShmProcSlot* proc_slot(int p) const {
    return view_.at<shm::ShmProcSlot>(hdr_->proc_slots_off +
                                      static_cast<std::uint64_t>(p) *
                                          sizeof(shm::ShmProcSlot));
  }
  std::atomic<std::uint32_t>* failed_flag(PeId pe) const {
    return view_.at<std::atomic<std::uint32_t>>(
        hdr_->failed_off + static_cast<std::uint64_t>(pe) * 4);
  }
  std::atomic<std::int32_t>* location_cell(RankId r) const {
    return view_.at<std::atomic<std::int32_t>>(
        hdr_->locations_off + static_cast<std::uint64_t>(r) * 4);
  }
  shm::ShmRing* ring_at(std::uint64_t off) const {
    return off == 0 ? nullptr : view_.at<shm::ShmRing>(off);
  }
  shm::ShmRing* pair_ring(PeId src, PeId dst) const {
    const auto* dir = view_.at<std::uint64_t>(hdr_->pair_dir_off);
    return ring_at(dir[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(num_pes_) +
                       static_cast<std::size_t>(dst)]);
  }
  shm::ShmRing* proxy_ring(int proc, PeId dst) const {
    const auto* dir = view_.at<std::uint64_t>(hdr_->proxy_dir_off);
    return ring_at(dir[static_cast<std::size_t>(proc) *
                           static_cast<std::size_t>(num_pes_) +
                       static_cast<std::size_t>(dst)]);
  }
  shm::ShmMsgDesc* ring_slot(shm::ShmRing* r, std::uint64_t i) const {
    auto* slots = reinterpret_cast<shm::ShmMsgDesc*>(
        reinterpret_cast<std::byte*>(r) + sizeof(shm::ShmRing));
    return &slots[i % kRingSlots];
  }
  bool ring_push(shm::ShmRing* r, const shm::ShmMsgDesc& d) {
    const std::uint64_t tail = r->tail.load(std::memory_order_relaxed);
    if (tail - r->head.load(std::memory_order_acquire) >= kRingSlots)
      return false;
    *ring_slot(r, tail) = d;
    r->tail.store(tail + 1, std::memory_order_release);
    return true;
  }
  bool ring_pop(shm::ShmRing* r, shm::ShmMsgDesc* d) {
    const std::uint64_t head = r->head.load(std::memory_order_relaxed);
    if (head == r->tail.load(std::memory_order_acquire)) return false;
    *d = *ring_slot(r, head);
    r->head.store(head + 1, std::memory_order_release);
    return true;
  }

  shm::ShmArenaHeader* arena() const {
    return view_.at<shm::ShmArenaHeader>(hdr_->arena_off);
  }
  std::uint64_t arena_data_base() const {
    return hdr_->arena_off + sizeof(shm::ShmArenaHeader);
  }
  /// Returns the segment-relative DATA offset of a block with refs=1, or 0.
  std::uint64_t arena_alloc(std::size_t n);
  void arena_unref(std::uint64_t data_off);
  shm::ShmBlockHeader* block_header(std::uint64_t data_off) const {
    return view_.at<shm::ShmBlockHeader>(data_off -
                                         sizeof(shm::ShmBlockHeader));
  }
  static void release_block(void* ctx, std::byte* data, std::size_t n);

  bool proc_usable(int p) const {
    return proc_slot(p)->state.load(std::memory_order_acquire) ==
           shm::ShmProcSlot::kRunning;
  }
  void declare_dead(int p);
  void fire_failed(PeId pe);
  void liveness_sweep();
  bool fill_from_desc(const shm::ShmMsgDesc& d, Message* out);

  // --- configuration --------------------------------------------------------
  int num_pes_ = 1;
  int nodes_ = 1;
  int procs_ = 1;
  int my_proc_ = 0;
  int pes_per_proc_ = 1;
  int max_ranks_ = 0;
  std::uint64_t arena_bytes_ = 64ull << 20;
  std::int64_t hb_ms_ = 25;
  std::int64_t hb_timeout_ms_ = 1000;
  std::int64_t liveness_ms_ = 5;
  std::int64_t send_timeout_ms_ = 5000;
  std::int64_t rendezvous_ms_ = 30000;
  std::string job_;
  std::string seg_name_;
  bool owner_ = false;

  // --- mapping --------------------------------------------------------------
  int fd_ = -1;
  shm::ShmView view_;
  // The transport object itself lives on this process's heap, not in the
  // segment; hdr_ is just view_.header() cached at map time.
  shm::ShmHeader* hdr_ = nullptr;  // apv-lint: allow(shm-pointer)

  // Proxy-ring producer serialization (producers are all in this process,
  // so a process-local mutex per destination PE suffices).
  std::vector<std::unique_ptr<std::mutex>> proxy_mutex_;

  // --- liveness -------------------------------------------------------------
  struct ProcWatch {
    std::uint64_t last_beat = 0;
    std::int64_t last_change_ms = 0;
  };
  std::vector<ProcWatch> watch_;
  std::mutex liveness_mutex_;       ///< one sweeper at a time (others skip)
  std::atomic<std::int64_t> last_sweep_ms_{0};
  std::unique_ptr<std::atomic<bool>[]> failed_seen_;  ///< callback dedupe
  FailureCallback on_failure_;
  std::thread hb_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  // --- process-local counters (fetch_add: several PE threads bump) ----------
  std::atomic<std::uint64_t> remote_sends_{0}, remote_bytes_{0},
      proxy_sends_{0}, staged_sends_{0}, polled_msgs_{0}, polled_bytes_{0},
      ring_full_spins_{0}, send_failures_{0}, wrap_external_{0},
      proc_deaths_{0}, failed_published_{0}, hb_beats_{0};
};

ShmTransport::ShmTransport(const util::Options& opt,
                           const TransportConfig& cfg) {
  num_pes_ = cfg.num_pes;
  nodes_ = cfg.nodes;

  procs_ = static_cast<int>(opt.get_int("transport.procs"));
  my_proc_ = static_cast<int>(opt.get_int("transport.proc"));
  job_ = opt.get_string("transport.job");
  arena_bytes_ = static_cast<std::uint64_t>(opt.get_int("transport.arena_mb"))
                 << 20;
  hb_ms_ = opt.get_int("transport.hb_ms");
  hb_timeout_ms_ = opt.get_int("transport.hb_timeout_ms");
  liveness_ms_ = opt.get_int("transport.liveness_ms");
  send_timeout_ms_ = opt.get_int("transport.send_timeout_ms");
  rendezvous_ms_ = opt.get_int("transport.rendezvous_ms");
  max_ranks_ = static_cast<int>(opt.get_int("transport.max_ranks"));

  require(hb_timeout_ms_ >= 2 * hb_ms_, ErrorCode::InvalidArgument,
          "transport.hb_timeout_ms must be at least 2 x transport.hb_ms");
  require(my_proc_ < procs_, ErrorCode::InvalidArgument,
          "transport.proc out of range");
  require(num_pes_ % procs_ == 0, ErrorCode::InvalidArgument,
          "shm transport needs num_pes divisible by transport.procs");
  pes_per_proc_ = num_pes_ / procs_;

  if (procs_ == 1) {
    // Degenerate single-process job: every PE is local, no segment at all —
    // the whole-suite APV_TRANSPORT=shm CI run pays nothing but this branch.
    return;
  }
  require(!job_.empty(), ErrorCode::InvalidArgument,
          "multi-process shm transport needs transport.job (APV_SHM_JOB)");
  seg_name_ = shm_segment_name(job_);
  failed_seen_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(num_pes_));
  for (int i = 0; i < num_pes_; ++i) failed_seen_[i].store(false);
  proxy_mutex_.resize(static_cast<std::size_t>(num_pes_));
  for (auto& m : proxy_mutex_) m = std::make_unique<std::mutex>();
  watch_.resize(static_cast<std::size_t>(procs_));

  rendezvous();

  hb_thread_ = std::thread([this] {
    shm::ShmProcSlot* self = proc_slot(my_proc_);
    while (!stopping_.load(std::memory_order_acquire)) {
      self->beat.fetch_add(1, std::memory_order_relaxed);
      hb_beats_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(hb_ms_));
    }
  });
}

ShmTransport::~ShmTransport() {
  stop();
  if (view_.base != nullptr) munmap(view_.base, view_.bytes);
  if (fd_ >= 0) close(fd_);
  if (owner_) shm_unlink(seg_name_.c_str());
}

ShmTransport::Layout ShmTransport::compute_layout() const {
  Layout lay;
  std::uint64_t off = shm::shm_align_up(sizeof(shm::ShmHeader));
  lay.proc_slots_off = off;
  off += static_cast<std::uint64_t>(procs_) * sizeof(shm::ShmProcSlot);
  lay.failed_off = off;
  off = shm::shm_align_up(off + static_cast<std::uint64_t>(num_pes_) * 4);
  lay.locations_off = off;
  off = shm::shm_align_up(off + static_cast<std::uint64_t>(max_ranks_) * 4);
  lay.pair_dir_off = off;
  off = shm::shm_align_up(off + static_cast<std::uint64_t>(num_pes_) *
                                    static_cast<std::uint64_t>(num_pes_) * 8);
  lay.proxy_dir_off = off;
  off = shm::shm_align_up(off + static_cast<std::uint64_t>(procs_) *
                                    static_cast<std::uint64_t>(num_pes_) * 8);
  // Ring region: one ring per directed PE pair crossing a process boundary,
  // plus one proxy ring per (producer process, remote destination PE).
  for (PeId s = 0; s < num_pes_; ++s) {
    for (PeId d = 0; d < num_pes_; ++d) {
      if (proc_of(s) != proc_of(d)) off += ring_bytes();
    }
  }
  for (int p = 0; p < procs_; ++p) {
    for (PeId d = 0; d < num_pes_; ++d) {
      if (proc_of(d) != p) off += ring_bytes();
    }
  }
  lay.arena_off = off;
  off += sizeof(shm::ShmArenaHeader) + arena_bytes_;
  lay.total = shm::shm_align_up(off);
  return lay;
}

void ShmTransport::create_segment(const Layout& lay) {
  shm_unlink(seg_name_.c_str());  // clear a stale segment from a crashed run
  fd_ = shm_open(seg_name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  require(fd_ >= 0, ErrorCode::IoError,
          "shm_open(create) failed for " + seg_name_);
  require(ftruncate(fd_, static_cast<off_t>(lay.total)) == 0,
          ErrorCode::IoError, "ftruncate failed for " + seg_name_);
  void* base = mmap(nullptr, lay.total, PROT_READ | PROT_WRITE, MAP_SHARED,
                    fd_, 0);
  require(base != MAP_FAILED, ErrorCode::OutOfMemory,
          "mmap failed for " + seg_name_);
  view_.base = static_cast<std::byte*>(base);
  view_.bytes = lay.total;
  hdr_ = view_.header();

  hdr_->version = shm::kShmVersion;
  hdr_->procs = procs_;
  hdr_->num_pes = num_pes_;
  hdr_->nodes = nodes_;
  hdr_->pes_per_node = num_pes_ / nodes_;
  hdr_->max_ranks = max_ranks_;
  hdr_->ring_slots = kRingSlots;
  hdr_->segment_bytes = lay.total;
  hdr_->proc_slots_off = lay.proc_slots_off;
  hdr_->failed_off = lay.failed_off;
  hdr_->locations_off = lay.locations_off;
  hdr_->pair_dir_off = lay.pair_dir_off;
  hdr_->proxy_dir_off = lay.proxy_dir_off;
  hdr_->arena_off = lay.arena_off;

  for (int r = 0; r < max_ranks_; ++r)
    location_cell(r)->store(kInvalidPe, std::memory_order_relaxed);

  // Carve the rings and record their offsets in the directories. Fresh
  // ftruncate pages are zero, so cursors, flags, heartbeat slots, the arena
  // bump cursor and the freelist heads all start correctly initialized.
  auto* pair_dir = view_.at<std::uint64_t>(lay.pair_dir_off);
  auto* proxy_dir = view_.at<std::uint64_t>(lay.proxy_dir_off);
  std::uint64_t off =
      shm::shm_align_up(lay.proxy_dir_off +
                        static_cast<std::uint64_t>(procs_) *
                            static_cast<std::uint64_t>(num_pes_) * 8);
  for (PeId s = 0; s < num_pes_; ++s) {
    for (PeId d = 0; d < num_pes_; ++d) {
      const std::size_t idx = static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(num_pes_) +
                              static_cast<std::size_t>(d);
      if (proc_of(s) != proc_of(d)) {
        pair_dir[idx] = off;
        off += ring_bytes();
      } else {
        pair_dir[idx] = 0;
      }
    }
  }
  for (int p = 0; p < procs_; ++p) {
    for (PeId d = 0; d < num_pes_; ++d) {
      const std::size_t idx = static_cast<std::size_t>(p) *
                                  static_cast<std::size_t>(num_pes_) +
                              static_cast<std::size_t>(d);
      if (proc_of(d) != p) {
        proxy_dir[idx] = off;
        off += ring_bytes();
      } else {
        proxy_dir[idx] = 0;
      }
    }
  }
  require(off == lay.arena_off, ErrorCode::Internal, "shm ring layout drift");
  arena()->size = arena_bytes_;

  hdr_->magic.store(shm::kShmMagic, std::memory_order_release);
}

void ShmTransport::attach_segment(const Layout& lay) {
  const std::int64_t deadline = now_ms() + rendezvous_ms_;
  for (;;) {
    fd_ = shm_open(seg_name_.c_str(), O_RDWR, 0600);
    if (fd_ >= 0) {
      struct stat st {};
      if (fstat(fd_, &st) == 0 &&
          st.st_size == static_cast<off_t>(lay.total)) {
        break;
      }
      close(fd_);
      fd_ = -1;
    }
    require(now_ms() < deadline, ErrorCode::IoError,
            "timed out waiting for shm segment " + seg_name_);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  void* base = mmap(nullptr, lay.total, PROT_READ | PROT_WRITE, MAP_SHARED,
                    fd_, 0);
  require(base != MAP_FAILED, ErrorCode::OutOfMemory,
          "mmap failed for " + seg_name_);
  view_.base = static_cast<std::byte*>(base);
  view_.bytes = lay.total;
  hdr_ = view_.header();
  while (hdr_->magic.load(std::memory_order_acquire) != shm::kShmMagic) {
    require(now_ms() < deadline, ErrorCode::IoError,
            "timed out waiting for shm segment init");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  require(hdr_->version == shm::kShmVersion && hdr_->procs == procs_ &&
              hdr_->num_pes == num_pes_ && hdr_->ring_slots == kRingSlots,
          ErrorCode::InvalidArgument,
          "shm segment geometry mismatch (launcher and process options differ)");
}

void ShmTransport::rendezvous() {
  const Layout lay = compute_layout();
  if (my_proc_ == 0) {
    owner_ = true;
    create_segment(lay);
  } else {
    attach_segment(lay);
  }
  shm::ShmProcSlot* self = proc_slot(my_proc_);
  self->pid.store(static_cast<std::int32_t>(getpid()),
                  std::memory_order_relaxed);
  self->beat.store(1, std::memory_order_relaxed);
  self->state.store(shm::ShmProcSlot::kRunning, std::memory_order_release);
  hdr_->attached.fetch_add(1, std::memory_order_acq_rel);
  const std::int64_t deadline = now_ms() + rendezvous_ms_;
  while (hdr_->attached.load(std::memory_order_acquire) !=
         static_cast<std::uint32_t>(procs_)) {
    require(now_ms() < deadline, ErrorCode::IoError,
            "shm rendezvous timed out (a peer process never attached)");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::int64_t t = now_ms();
  for (int p = 0; p < procs_; ++p) {
    watch_[static_cast<std::size_t>(p)].last_beat =
        proc_slot(p)->beat.load(std::memory_order_relaxed);
    watch_[static_cast<std::size_t>(p)].last_change_ms = t;
  }
  APV_INFO("shm", "proc %d/%d attached to %s (%d PEs local)", my_proc_,
           procs_, seg_name_.c_str(), pes_per_proc_);
}

// --- arena ------------------------------------------------------------------

std::uint64_t ShmTransport::arena_alloc(std::size_t n) {
  const int cls = shm::arena_class_for(n);
  require(cls >= 0, ErrorCode::LimitExceeded,
          "payload exceeds the shm arena's largest block class (4 MiB)");
  shm::ShmArenaHeader* a = arena();
  // Freelist pop ({tag, offset} CAS; the tag defeats ABA when the same block
  // cycles through another process between our load and our CAS).
  std::uint64_t head = a->freelist[cls].load(std::memory_order_acquire);
  while (free_off(head) != 0) {
    const std::uint64_t blk_off = free_off(head);
    auto* blk = view_.at<shm::ShmBlockHeader>(blk_off);
    const std::uint64_t next = blk->next_free;
    const std::uint64_t want = pack_free(free_tag(head) + 1, next);
    if (a->freelist[cls].compare_exchange_weak(head, want,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      blk->refs.store(1, std::memory_order_relaxed);
      blk->next_free = 0;
      a->freelist_hits.fetch_add(1, std::memory_order_relaxed);
      a->allocs.fetch_add(1, std::memory_order_relaxed);
      a->alloc_bytes.fetch_add(shm::kArenaClassSizes[cls],
                               std::memory_order_relaxed);
      const std::uint64_t data = blk_off + sizeof(shm::ShmBlockHeader);
      APV_ASAN_UNPOISON(view_.base + data, shm::kArenaClassSizes[cls]);
      return data;
    }
  }
  // Freelist empty: carve from the wilderness.
  const std::uint64_t need =
      sizeof(shm::ShmBlockHeader) + shm::kArenaClassSizes[cls];
  const std::uint64_t old = a->brk.fetch_add(need, std::memory_order_relaxed);
  if (old + need > a->size) {
    a->exhausted.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  const std::uint64_t blk_off = arena_data_base() + old;
  auto* blk = view_.at<shm::ShmBlockHeader>(blk_off);
  blk->refs.store(1, std::memory_order_relaxed);
  blk->cls = static_cast<std::uint32_t>(cls);
  blk->next_free = 0;
  a->allocs.fetch_add(1, std::memory_order_relaxed);
  a->alloc_bytes.fetch_add(shm::kArenaClassSizes[cls],
                           std::memory_order_relaxed);
  return blk_off + sizeof(shm::ShmBlockHeader);
}

void ShmTransport::arena_unref(std::uint64_t data_off) {
  auto* blk =
      view_.at<shm::ShmBlockHeader>(data_off - sizeof(shm::ShmBlockHeader));
  if (blk->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  shm::ShmArenaHeader* a = arena();
  const std::uint32_t cls = blk->cls;
  // Poison freed arena bytes in *this* process's shadow; the next owner
  // unpoisons on acquire (alloc or receive) — each process keeps its own
  // shadow honest because ASan shadow memory is not shared.
  APV_ASAN_POISON(view_.base + data_off, shm::kArenaClassSizes[cls]);
  const std::uint64_t blk_off = data_off - sizeof(shm::ShmBlockHeader);
  std::uint64_t head = a->freelist[cls].load(std::memory_order_relaxed);
  for (;;) {
    blk->next_free = free_off(head);
    const std::uint64_t want = pack_free(free_tag(head) + 1, blk_off);
    if (a->freelist[cls].compare_exchange_weak(head, want,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
      break;
    }
  }
  a->frees.fetch_add(1, std::memory_order_relaxed);
}

void ShmTransport::release_block(void* ctx, std::byte* data, std::size_t) {
  auto* self = static_cast<ShmTransport*>(ctx);
  self->arena_unref(static_cast<std::uint64_t>(data - self->view_.base));
}

// --- data path --------------------------------------------------------------

bool ShmTransport::send_remote(Message& msg, bool from_owner_thread) {
  const int dproc = proc_of(msg.dst_pe);
  if (view_.base == nullptr || dproc == my_proc_) {
    require(false, ErrorCode::Internal, "send_remote to a local PE");
  }
  if (!proc_usable(dproc)) return false;

  shm::ShmMsgDesc d{};
  d.seq = msg.seq;
  d.payload_len = static_cast<std::uint32_t>(msg.payload.size());
  d.src_pe = msg.src_pe;
  d.dst_pe = msg.dst_pe;
  d.src_rank = msg.src_rank;
  d.dst_rank = msg.dst_rank;
  d.comm_id = msg.comm_id;
  d.tag = msg.tag;
  d.opcode = msg.opcode;
  d.esize = msg.esize;
  d.kind = static_cast<std::uint8_t>(msg.kind);
  d.prio = msg.prio;
  bool staged = false;
  if (!msg.payload.empty()) {
    if (msg.payload.is_external_block(&release_block, this)) {
      // The sender staged this payload via acquire_payload: the bytes are
      // already an arena block of ours, so hand it across by reference. The
      // extra ref keeps the block alive for the receiver; the sender's own
      // handle drops after the push succeeds (or the ref is returned if it
      // doesn't).
      const auto data_off =
          static_cast<std::uint64_t>(msg.payload.data() - view_.base);
      block_header(data_off)->refs.fetch_add(1, std::memory_order_acq_rel);
      d.payload_off = data_off;
      staged = true;
    } else {
      // The one permitted copy on this path: user bytes into the shared
      // arena. Everything downstream (ring, receiver wrap, aggregation
      // unbundle views) moves offsets and refcounts only.
      std::uint64_t data_off = arena_alloc(msg.payload.size());
      const std::int64_t deadline = now_ms() + send_timeout_ms_;
      while (data_off == 0) {
        // Arena full: in-flight payloads hold the blocks; wait for receivers.
        if (!proc_usable(dproc) || now_ms() >= deadline) {
          send_failures_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        std::this_thread::yield();
        data_off = arena_alloc(msg.payload.size());
      }
      std::memcpy(view_.base + data_off, msg.payload.data(),
                  msg.payload.size());
      d.payload_off = data_off;
    }
  }

  const bool use_pair = from_owner_thread && msg.src_pe >= 0 &&
                        msg.src_pe < num_pes_ && is_local(msg.src_pe);
  shm::ShmRing* ring = use_pair ? pair_ring(msg.src_pe, msg.dst_pe)
                                : proxy_ring(my_proc_, msg.dst_pe);
  std::unique_lock<std::mutex> proxy_lock;
  if (!use_pair) {
    proxy_lock = std::unique_lock<std::mutex>(
        *proxy_mutex_[static_cast<std::size_t>(msg.dst_pe)]);
  }
  const std::int64_t deadline = now_ms() + send_timeout_ms_;
  while (!ring_push(ring, d)) {
    ring_full_spins_.fetch_add(1, std::memory_order_relaxed);
    if (!proc_usable(dproc) || now_ms() >= deadline) {
      if (d.payload_off != 0) arena_unref(d.payload_off);
      send_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    std::this_thread::yield();
  }
  if (use_pair) {
    remote_sends_.fetch_add(1, std::memory_order_relaxed);
  } else {
    proxy_sends_.fetch_add(1, std::memory_order_relaxed);
  }
  if (staged) staged_sends_.fetch_add(1, std::memory_order_relaxed);
  remote_bytes_.fetch_add(msg.payload.size(), std::memory_order_relaxed);
  msg.payload.clear();  // the arena block is the live copy now
  return true;
}

Payload ShmTransport::acquire_payload(std::size_t n) {
  if (view_.base == nullptr || n == 0 ||
      shm::arena_class_for(n) < 0) {
    return Payload::acquire(n);
  }
  const std::uint64_t data_off = arena_alloc(n);
  if (data_off == 0) return Payload::acquire(n);  // arena full: copy later
  return Payload::wrap_external(view_.base + data_off, n, &release_block,
                                this);
}

bool ShmTransport::fill_from_desc(const shm::ShmMsgDesc& d, Message* out) {
  out->kind = static_cast<Message::Kind>(d.kind);
  out->prio = d.prio;
  out->src_pe = d.src_pe;
  out->dst_pe = d.dst_pe;
  out->src_rank = d.src_rank;
  out->dst_rank = d.dst_rank;
  out->comm_id = d.comm_id;
  out->tag = d.tag;
  out->opcode = d.opcode;
  out->seq = d.seq;
  out->esize = d.esize;
  if (d.payload_off != 0) {
    std::byte* data = view_.base + d.payload_off;
    // This process may still carry poison from the last time *it* freed
    // this block; the bytes are live again now.
    APV_ASAN_UNPOISON(data, d.payload_len);
    out->payload =
        Payload::wrap_external(data, d.payload_len, &release_block, this);
    wrap_external_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::size_t ShmTransport::poll(PeId pe, const Sink& sink) {
  if (view_.base == nullptr) return 0;
  std::size_t delivered = 0;
  std::uint64_t bytes = 0;
  shm::ShmMsgDesc d;
  for (PeId src = 0; src < num_pes_; ++src) {
    shm::ShmRing* ring = pair_ring(src, pe);
    if (ring == nullptr) continue;
    while (ring_pop(ring, &d)) {
      Message m;
      fill_from_desc(d, &m);
      bytes += d.payload_len;
      ++delivered;
      sink(std::move(m));
    }
  }
  for (int p = 0; p < procs_; ++p) {
    shm::ShmRing* ring = proxy_ring(p, pe);
    if (ring == nullptr || p == my_proc_) continue;
    while (ring_pop(ring, &d)) {
      Message m;
      fill_from_desc(d, &m);
      bytes += d.payload_len;
      ++delivered;
      sink(std::move(m));
    }
  }
  if (delivered > 0) {
    polled_msgs_.fetch_add(delivered, std::memory_order_relaxed);
    polled_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  liveness_sweep();
  return delivered;
}

// --- fault tolerance --------------------------------------------------------

void ShmTransport::fire_failed(PeId pe) {
  bool expected = false;
  if (!failed_seen_[pe].compare_exchange_strong(expected, true)) return;
  if (on_failure_) on_failure_(pe);
}

void ShmTransport::declare_dead(int p) {
  shm::ShmProcSlot* slot = proc_slot(p);
  std::uint32_t expected = shm::ShmProcSlot::kRunning;
  if (slot->state.compare_exchange_strong(expected, shm::ShmProcSlot::kDead,
                                          std::memory_order_acq_rel)) {
    proc_deaths_.fetch_add(1, std::memory_order_relaxed);
    APV_WARN("shm", "proc %d declared dead (pid %d)", p,
             slot->pid.load(std::memory_order_relaxed));
  }
  // Fire before publishing: publish_pe_failed marks the dedupe flag (it is
  // also the entry point for cluster-initiated failures, where the cluster
  // already knows), which would swallow the callback if it ran first.
  for (PeId pe = p * pes_per_proc_; pe < (p + 1) * pes_per_proc_; ++pe) {
    fire_failed(pe);
    publish_pe_failed(pe);
  }
}

void ShmTransport::liveness_sweep() {
  const std::int64_t t = now_ms();
  if (t - last_sweep_ms_.load(std::memory_order_relaxed) < liveness_ms_)
    return;
  std::unique_lock<std::mutex> lock(liveness_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  last_sweep_ms_.store(t, std::memory_order_relaxed);
  for (int p = 0; p < procs_; ++p) {
    if (p == my_proc_) continue;
    shm::ShmProcSlot* slot = proc_slot(p);
    const std::uint32_t state = slot->state.load(std::memory_order_acquire);
    if (state == shm::ShmProcSlot::kDead) {
      // Someone else made the call; make sure our callbacks fired too.
      for (PeId pe = p * pes_per_proc_; pe < (p + 1) * pes_per_proc_; ++pe)
        fire_failed(pe);
      continue;
    }
    if (state != shm::ShmProcSlot::kRunning) continue;
    ProcWatch& w = watch_[static_cast<std::size_t>(p)];
    const std::uint64_t beat = slot->beat.load(std::memory_order_relaxed);
    if (beat != w.last_beat) {
      w.last_beat = beat;
      w.last_change_ms = t;
      continue;
    }
    const pid_t pid = slot->pid.load(std::memory_order_relaxed);
    const bool pid_gone = pid > 0 && kill(pid, 0) == -1 && errno == ESRCH;
    if (pid_gone || t - w.last_change_ms > hb_timeout_ms_) declare_dead(p);
  }
  // Failures published by peers (deliberate fail_pe of a remote PE).
  for (PeId pe = 0; pe < num_pes_; ++pe) {
    if (failed_flag(pe)->load(std::memory_order_acquire) != 0)
      fire_failed(pe);
  }
}

void ShmTransport::publish_pe_failed(PeId pe) {
  if (view_.base == nullptr || pe < 0 || pe >= num_pes_) return;
  if (failed_flag(pe)->exchange(1, std::memory_order_acq_rel) == 0)
    failed_published_.fetch_add(1, std::memory_order_relaxed);
  failed_seen_[pe].store(true, std::memory_order_release);
}

void ShmTransport::publish_location(RankId rank, PeId pe) {
  require(view_.base != nullptr && rank >= 0 && rank < max_ranks_,
          ErrorCode::InvalidArgument, "rank out of shm location-table range");
  location_cell(rank)->store(pe, std::memory_order_release);
}

PeId ShmTransport::shared_location(RankId rank) const {
  require(view_.base != nullptr && rank >= 0 && rank < max_ranks_,
          ErrorCode::InvalidArgument, "rank out of shm location-table range");
  return location_cell(rank)->load(std::memory_order_acquire);
}

void ShmTransport::stop() noexcept {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  if (hb_thread_.joinable()) hb_thread_.join();
  if (view_.base != nullptr) {
    shm::ShmProcSlot* self = proc_slot(my_proc_);
    std::uint32_t expected = shm::ShmProcSlot::kRunning;
    self->state.compare_exchange_strong(expected, shm::ShmProcSlot::kStopped,
                                        std::memory_order_acq_rel);
  }
}

util::Counters ShmTransport::counters() const {
  util::Counters out;
  for (int i = 0; i < kNumShmCounterKeys; ++i) out.set(kShmCounterKeys[i], 0);
  out.set("shm.procs", static_cast<std::uint64_t>(procs_));
  out.set("shm.remote_sends", remote_sends_.load(std::memory_order_relaxed));
  out.set("shm.remote_bytes", remote_bytes_.load(std::memory_order_relaxed));
  out.set("shm.proxy_sends", proxy_sends_.load(std::memory_order_relaxed));
  out.set("shm.polled_msgs", polled_msgs_.load(std::memory_order_relaxed));
  out.set("shm.polled_bytes", polled_bytes_.load(std::memory_order_relaxed));
  out.set("shm.ring_full_spins",
          ring_full_spins_.load(std::memory_order_relaxed));
  out.set("shm.send_failures", send_failures_.load(std::memory_order_relaxed));
  out.set("shm.staged_sends", staged_sends_.load(std::memory_order_relaxed));
  out.set("shm.wrap_external", wrap_external_.load(std::memory_order_relaxed));
  out.set("shm.proc_deaths", proc_deaths_.load(std::memory_order_relaxed));
  out.set("shm.failed_published",
          failed_published_.load(std::memory_order_relaxed));
  out.set("shm.hb_beats", hb_beats_.load(std::memory_order_relaxed));
  if (view_.base != nullptr) {
    const shm::ShmArenaHeader* a = arena();
    out.set("shm.arena_allocs", a->allocs.load(std::memory_order_relaxed));
    out.set("shm.arena_frees", a->frees.load(std::memory_order_relaxed));
    out.set("shm.arena_alloc_bytes",
            a->alloc_bytes.load(std::memory_order_relaxed));
    out.set("shm.arena_freelist_hits",
            a->freelist_hits.load(std::memory_order_relaxed));
    out.set("shm.arena_exhausted",
            a->exhausted.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace

std::unique_ptr<Transport> make_shm_transport(const util::Options& opt,
                                              const TransportConfig& cfg) {
  return std::make_unique<ShmTransport>(opt, cfg);
}

}  // namespace apv::comm
