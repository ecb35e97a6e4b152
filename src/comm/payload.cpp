#include "comm/payload.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <mutex>
#include <new>

#include "util/sanitizers.hpp"

namespace apv::comm {

namespace {

// Size classes for pooled chunks. Acquires above the largest class fall back
// to adopted vectors (rare: only pathological user messages; migration images
// arrive pre-adopted and never touch the classes).
constexpr std::size_t kClassSizes[] = {64,        256,        1024,
                                       4096,      16384,      65536,
                                       262144,    1048576};
constexpr int kNumClasses = static_cast<int>(std::size(kClassSizes));
constexpr int kThreadCacheCap = 16;   // chunks per class per thread
constexpr int kGlobalCap = 256;       // chunks per class in the shared list

std::atomic<std::uint64_t> g_misses{0}, g_adopted{0}, g_drops{0}, g_copied{0};

// Hit/return counters are on the per-message fast path, so each thread keeps
// its own block (plain load+store, single writer) and stats() sums the live
// blocks plus the totals retired by exited threads. reset_stats() zeroing a
// block races benignly with its owner only if called mid-traffic; callers
// reset between runs.
struct ThreadStatBlock {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> returns{0};
};

struct StatRegistry {
  std::mutex mutex;
  std::vector<ThreadStatBlock*> live;
  std::uint64_t retired_hits = 0;
  std::uint64_t retired_returns = 0;
};
StatRegistry& stat_registry() {
  static StatRegistry reg;
  return reg;
}

inline void bump(std::atomic<std::uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

int class_for(std::size_t n) noexcept {
  for (int c = 0; c < kNumClasses; ++c) {
    if (n <= kClassSizes[c]) return c;
  }
  return -1;
}

}  // namespace

struct Payload::Chunk {
  std::atomic<std::uint32_t> refs{1};
  std::int32_t size_class = -1;           // -1: vector-backed (adopted)
  std::size_t capacity = 0;
  std::byte* mem = nullptr;               // pooled storage, owned
  std::vector<std::byte> vec;             // adopted storage
  Chunk* next_free = nullptr;             // freelist link while recycled

  ~Chunk() { delete[] mem; }
};

namespace {

// Global per-class freelists (intrusive, mutex-guarded) backing the
// per-thread caches below.
struct GlobalFreelist {
  std::mutex mutex;
  Payload::Chunk* head = nullptr;
  int count = 0;
};
GlobalFreelist g_freelists[kNumClasses];

// Per-thread chunk cache. A thread that releases about as many chunks of a
// class as it acquires (a PE in a symmetric exchange) recycles through its
// own cache and takes no lock. A one-way flow (chunks acquired on one PE,
// released on another) drains one cache and fills the other, so a cache
// refills from and spills to the shared list kBatch chunks at a time, under
// one lock per batch rather than one per chunk.
constexpr int kBatch = kThreadCacheCap / 2;

struct ThreadCache {
  Payload::Chunk* slots[kNumClasses][kThreadCacheCap] = {};
  int counts[kNumClasses] = {};
  ThreadStatBlock* stats_block;

  ThreadCache() : stats_block(new ThreadStatBlock) {
    StatRegistry& reg = stat_registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.live.push_back(stats_block);
  }

  ~ThreadCache() {
    {
      StatRegistry& reg = stat_registry();
      std::lock_guard<std::mutex> lock(reg.mutex);
      reg.retired_hits += stats_block->hits.load(std::memory_order_relaxed);
      reg.retired_returns +=
          stats_block->returns.load(std::memory_order_relaxed);
      reg.live.erase(
          std::find(reg.live.begin(), reg.live.end(), stats_block));
      delete stats_block;
    }
    for (int c = 0; c < kNumClasses; ++c) {
      spill(c, counts[c]);
      // What the shared list had no room for is freed.
      for (int i = 0; i < counts[c]; ++i) {
        APV_ASAN_UNPOISON(slots[c][i]->mem, slots[c][i]->capacity);
        delete slots[c][i];
      }
      counts[c] = 0;
    }
  }

  // Moves up to kBatch chunks of class `cls` from the shared list into this
  // (empty) cache; false if the shared list had none.
  bool refill(int cls) {
    GlobalFreelist& gl = g_freelists[cls];
    int& n = counts[cls];
    std::lock_guard<std::mutex> lock(gl.mutex);
    for (; n < kBatch && gl.head != nullptr; ++n, --gl.count) {
      Payload::Chunk* c = gl.head;
      gl.head = c->next_free;
      c->next_free = nullptr;
      slots[cls][n] = c;
    }
    return n > 0;
  }

  // Moves the `n` oldest cached chunks of class `cls` to the shared list,
  // or as many as it has room for; returns how many moved. Cached chunks
  // are quarantined (poisoned), and the move keeps them so.
  int spill(int cls, int n) {
    GlobalFreelist& gl = g_freelists[cls];
    Payload::Chunk** s = slots[cls];
    int moved = 0;
    {
      std::lock_guard<std::mutex> lock(gl.mutex);
      moved = std::min(n, kGlobalCap - gl.count);
      for (int i = 0; i < moved; ++i) {
        s[i]->next_free = gl.head;
        gl.head = s[i];
      }
      gl.count += moved;
    }
    counts[cls] -= moved;
    for (int i = 0; i < counts[cls]; ++i) s[i] = s[i + moved];
    return moved;
  }
};
thread_local ThreadCache t_cache;

Payload::Chunk* pool_get(int cls) {
  ThreadCache& tc = t_cache;
  if (tc.counts[cls] == 0 && !tc.refill(cls)) return nullptr;
  bump(tc.stats_block->hits);
  Payload::Chunk* c = tc.slots[cls][--tc.counts[cls]];
  APV_ASAN_UNPOISON(c->mem, c->capacity);  // leaving quarantine
  return c;
}

void pool_put(Payload::Chunk* c) {
  const int cls = c->size_class;
  ThreadCache& tc = t_cache;
  // Quarantine-on-release: a recycled chunk's bytes are off-limits until
  // the next acquire, so a stale Payload view (refcount bug) dereferencing
  // into it dies with a use-after-poison report instead of silently reading
  // whatever the next message wrote. The chunk's freelist link lives in the
  // Chunk header (a separate heap object), so pooling itself never touches
  // the poisoned buffer.
  APV_ASAN_POISON(c->mem, c->capacity);
  if (tc.counts[cls] == kThreadCacheCap && tc.spill(cls, kBatch) == 0) {
    // Cache and shared list both full: this release is a drop, and the
    // chunks already cached stay counted as returns.
    g_drops.fetch_add(1, std::memory_order_relaxed);
    APV_ASAN_UNPOISON(c->mem, c->capacity);  // clean shadow for ::delete
    delete c;
    return;
  }
  tc.slots[cls][tc.counts[cls]++] = c;
  bump(tc.stats_block->returns);
}

}  // namespace

Payload::Payload(const Payload& other) noexcept
    : chunk_(other.chunk_), data_(other.data_), size_(other.size_) {
  if (chunk_ != nullptr)
    chunk_->refs.fetch_add(1, std::memory_order_relaxed);
}

Payload& Payload::operator=(const Payload& other) noexcept {
  if (this == &other) return *this;
  if (other.chunk_ != nullptr)
    other.chunk_->refs.fetch_add(1, std::memory_order_relaxed);
  release();
  chunk_ = other.chunk_;
  data_ = other.data_;
  size_ = other.size_;
  return *this;
}

Payload::Payload(Payload&& other) noexcept
    : chunk_(other.chunk_), data_(other.data_), size_(other.size_) {
  other.chunk_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

Payload& Payload::operator=(Payload&& other) noexcept {
  if (this == &other) return *this;
  release();
  chunk_ = other.chunk_;
  data_ = other.data_;
  size_ = other.size_;
  other.chunk_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

void Payload::release() noexcept {
  Chunk* c = chunk_;
  chunk_ = nullptr;
  data_ = nullptr;
  size_ = 0;
  if (c == nullptr) return;
  // Sole-owner fast path: refs can only grow through an existing handle, so
  // observing 1 from the holder of a handle means no other handle exists and
  // none can appear — the RMW decrement is unnecessary.
  if (c->refs.load(std::memory_order_acquire) != 1) {
    if (c->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    c->refs.store(1, std::memory_order_relaxed);
  }
  if (c->size_class >= 0) {
    pool_put(c);
  } else {
    delete c;
  }
}

Payload Payload::acquire(std::size_t n) {
  if (n == 0) return Payload{};
  const int cls = class_for(n);
  if (cls >= 0) {
    Chunk* c = pool_get(cls);
    if (c == nullptr) {
      g_misses.fetch_add(1, std::memory_order_relaxed);
      c = new Chunk;
      c->size_class = cls;
      c->capacity = kClassSizes[cls];
      c->mem = new std::byte[c->capacity];
    }
    Payload p;
    p.chunk_ = c;
    p.data_ = c->mem;
    p.size_ = n;
    return p;
  }
  // Larger than the largest class: fresh vector backing, counted as the
  // miss it is (not as an adoption).
  g_misses.fetch_add(1, std::memory_order_relaxed);
  return wrap(std::vector<std::byte>(n));
}

Payload Payload::adopt(std::vector<std::byte>&& bytes) {
  if (bytes.empty()) return Payload{};
  g_adopted.fetch_add(1, std::memory_order_relaxed);
  return wrap(std::move(bytes));
}

Payload Payload::wrap(std::vector<std::byte>&& bytes) {
  Chunk* c = new Chunk;
  c->vec = std::move(bytes);
  c->capacity = c->vec.size();
  Payload p;
  p.chunk_ = c;
  p.data_ = c->vec.data();
  p.size_ = c->vec.size();
  return p;
}

Payload Payload::copy_of(const void* data, std::size_t n) {
  Payload p = acquire(n);
  if (n > 0) std::memcpy(p.data_, data, n);
  return p;
}

Payload Payload::view(const Payload& parent, std::size_t off,
                      std::size_t len) {
  if (parent.chunk_ == nullptr || len == 0 ||
      off + len > parent.size_)
    return Payload{};
  parent.chunk_->refs.fetch_add(1, std::memory_order_relaxed);
  Payload p;
  p.chunk_ = parent.chunk_;
  p.data_ = parent.data_ + off;
  p.size_ = len;
  return p;
}

void Payload::resize_down(std::size_t n) {
  if (n <= size_) size_ = n;
}

bool Payload::unique() const noexcept {
  return chunk_ != nullptr &&
         chunk_->refs.load(std::memory_order_acquire) == 1;
}

std::vector<std::byte> Payload::take_vector() {
  if (chunk_ == nullptr) return {};
  if (chunk_->size_class < 0 && unique() && data_ == chunk_->vec.data() &&
      size_ == chunk_->vec.size()) {
    std::vector<std::byte> out = std::move(chunk_->vec);
    release();
    return out;
  }
  // Shared, pooled, or a sub-view: must duplicate (counted — the fast paths
  // are designed so this never runs for intra-PE delivery or migration).
  g_copied.fetch_add(size_, std::memory_order_relaxed);
  std::vector<std::byte> out(size_);
  if (size_ > 0) std::memcpy(out.data(), data_, size_);
  release();
  return out;
}

namespace pool {

PoolStats stats() noexcept {
  PoolStats s;
  s.misses = g_misses.load(std::memory_order_relaxed);
  s.adopted = g_adopted.load(std::memory_order_relaxed);
  s.drops = g_drops.load(std::memory_order_relaxed);
  s.bytes_copied = g_copied.load(std::memory_order_relaxed);
  StatRegistry& reg = stat_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  s.hits = reg.retired_hits;
  s.returns = reg.retired_returns;
  for (const ThreadStatBlock* b : reg.live) {
    s.hits += b->hits.load(std::memory_order_relaxed);
    s.returns += b->returns.load(std::memory_order_relaxed);
  }
  return s;
}

void reset_stats() noexcept {
  g_misses.store(0, std::memory_order_relaxed);
  g_adopted.store(0, std::memory_order_relaxed);
  g_drops.store(0, std::memory_order_relaxed);
  g_copied.store(0, std::memory_order_relaxed);
  StatRegistry& reg = stat_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.retired_hits = 0;
  reg.retired_returns = 0;
  for (ThreadStatBlock* b : reg.live) {
    b->hits.store(0, std::memory_order_relaxed);
    b->returns.store(0, std::memory_order_relaxed);
  }
}

}  // namespace pool

}  // namespace apv::comm
