#include "ft/checkpoint_store.hpp"

#include <algorithm>

namespace apv::ft {

namespace {
// Backstop for chain walks so a corrupted prev_epoch loop cannot hang the
// store; real chains are bounded by ft.full_every.
constexpr std::size_t kMaxChainWalk = 4096;
}  // namespace

void CheckpointStore::put(int rank, std::uint32_t epoch,
                          comm::PeId resident_pe,
                          const std::vector<comm::PeId>& owners,
                          util::ByteBuffer image) {
  put_entry(rank, epoch, ImageKind::Full, 0, resident_pe, owners,
            std::move(image));
}

void CheckpointStore::put_delta(int rank, std::uint32_t epoch,
                                std::uint32_t base_epoch,
                                comm::PeId resident_pe,
                                const std::vector<comm::PeId>& owners,
                                util::ByteBuffer image) {
  put_entry(rank, epoch, ImageKind::Delta, base_epoch, resident_pe, owners,
            std::move(image));
}

void CheckpointStore::put_entry(int rank, std::uint32_t epoch,
                                ImageKind kind, std::uint32_t prev_epoch,
                                comm::PeId resident_pe,
                                const std::vector<comm::PeId>& owners,
                                util::ByteBuffer image) {
  // All owners' copies share one ref-counted chunk: the buddy "remote put"
  // is a refcount bump, never a memcpy (the shared address space stands in
  // for RDMA).
  comm::Payload shared = comm::Payload::adopt(image.take());
  std::lock_guard<std::mutex> lock(mutex_);
  const Key key{rank, epoch};
  Entry& entry = images_[key];
  entry.kind = kind;
  entry.prev_epoch = prev_epoch;
  entry.copies.clear();  // re-pack of the same epoch replaces, never accumulates
  for (comm::PeId owner : owners) {
    if (dead_owners_.count(owner) != 0) continue;
    Copy c;
    c.meta.rank = rank;
    c.meta.epoch = epoch;
    c.meta.resident_pe = resident_pe;
    c.meta.owner_pe = owner;
    c.meta.bytes = shared.size();
    c.meta.is_delta = (kind == ImageKind::Delta);
    c.meta.base_epoch = prev_epoch;
    c.data = shared;
    entry.copies.push_back(std::move(c));
  }
  ++puts_;
  if (entry.copies.empty()) images_.erase(key);
}

template <class Visit>
bool CheckpointStore::walk_chain_locked(int rank, std::uint32_t epoch,
                                        Visit&& visit) const {
  std::uint32_t e = epoch;
  for (std::size_t guard = 0; guard < kMaxChainWalk; ++guard) {
    const auto it = images_.find(Key{rank, e});
    if (it == images_.end() || it->second.copies.empty()) return false;
    visit(e, it->second);
    if (it->second.kind == ImageKind::Full) return true;
    e = it->second.prev_epoch;
  }
  return false;
}

std::pair<CheckpointStore::Images::const_iterator,
          CheckpointStore::Images::const_iterator>
CheckpointStore::rank_range_locked(int rank) const {
  return {images_.lower_bound(Key{rank, 0}),
          images_.lower_bound(Key{rank + 1, 0})};
}

std::size_t CheckpointStore::chain_length(int rank,
                                          std::uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t deltas = 0;
  const bool whole = walk_chain_locked(
      rank, epoch, [&deltas](std::uint32_t, const Entry& entry) {
        if (entry.kind == ImageKind::Delta) ++deltas;
      });
  return whole ? deltas : 0;
}

std::uint32_t CheckpointStore::latest_epoch(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [lo, hi] = rank_range_locked(rank);
  for (auto i = hi; i != lo;) {
    --i;
    const std::uint32_t epoch = i->first.second;
    if (walk_chain_locked(rank, epoch, [](std::uint32_t, const Entry&) {}))
      return epoch;
  }
  return 0;
}

bool CheckpointStore::has(int rank, std::uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return walk_chain_locked(rank, epoch, [](std::uint32_t, const Entry&) {});
}

bool CheckpointStore::fetch_chain(int rank, std::uint32_t epoch,
                                  std::vector<comm::Payload>& out) const {
  out.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  const bool whole = walk_chain_locked(
      rank, epoch, [&out](std::uint32_t, const Entry& entry) {
        out.push_back(entry.copies.front().data);
      });
  if (!whole) {
    out.clear();
    return false;
  }
  std::reverse(out.begin(), out.end());
  ++fetches_;
  return true;
}

std::vector<CheckpointMeta> CheckpointStore::copies(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CheckpointMeta> out;
  const auto [lo, hi] = rank_range_locked(rank);
  for (auto i = lo; i != hi; ++i) {
    for (const Copy& c : i->second.copies) out.push_back(c.meta);
  }
  return out;
}

void CheckpointStore::lose_pe(comm::PeId pe) {
  std::lock_guard<std::mutex> lock(mutex_);
  dead_owners_.insert(pe);
  for (auto it = images_.begin(); it != images_.end();) {
    auto& copies = it->second.copies;
    copies.erase(std::remove_if(copies.begin(), copies.end(),
                                [pe](const Copy& c) {
                                  return c.meta.owner_pe == pe;
                                }),
                 copies.end());
    it = copies.empty() ? images_.erase(it) : std::next(it);
  }
}

void CheckpointStore::retire_before(std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  retire_locked(images_.cbegin(), images_.cend(), epoch);
}

void CheckpointStore::retire_rank_before(int rank, std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [lo, hi] = rank_range_locked(rank);
  retire_locked(lo, hi, epoch);
}

void CheckpointStore::retire_locked(Images::const_iterator lo,
                                    Images::const_iterator hi,
                                    std::uint32_t epoch) {
  // Chain-aware retention: an old epoch survives if a kept epoch's delta
  // chain still passes through it (deltas are useless without their base).
  std::set<Key> keep;
  for (auto i = lo; i != hi; ++i) {
    const int rank = i->first.first;
    if (i->first.second < epoch) continue;
    walk_chain_locked(rank, i->first.second,
                      [&keep, rank, epoch](std::uint32_t e, const Entry&) {
                        if (e < epoch) keep.insert(Key{rank, e});
                      });
  }
  for (auto i = lo; i != hi;) {
    const bool drop = i->first.second < epoch && keep.count(i->first) == 0;
    i = drop ? images_.erase(i) : std::next(i);
  }
}

std::size_t CheckpointStore::copy_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, entry] : images_) n += entry.copies.size();
  return n;
}

std::size_t CheckpointStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, entry] : images_) {
    for (const Copy& c : entry.copies) n += c.data.size();
  }
  return n;
}

std::uint64_t CheckpointStore::puts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return puts_;
}

std::uint64_t CheckpointStore::fetches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fetches_;
}

}  // namespace apv::ft
