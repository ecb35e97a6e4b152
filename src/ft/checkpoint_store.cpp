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
  if (entry.copies.empty()) {
    images_.erase(key);
    return;
  }
  auto it = newest_.find(rank);
  if ((it == newest_.end() || it->second < epoch) &&
      materializable_locked(rank, epoch)) {
    newest_[rank] = epoch;
  }
}

bool CheckpointStore::materializable_locked(int rank,
                                            std::uint32_t epoch) const {
  std::uint32_t e = epoch;
  for (std::size_t guard = 0; guard < kMaxChainWalk; ++guard) {
    const auto it = images_.find(Key{rank, e});
    if (it == images_.end() || it->second.copies.empty()) return false;
    if (it->second.kind == ImageKind::Full) return true;
    e = it->second.prev_epoch;
  }
  return false;
}

std::size_t CheckpointStore::chain_length(int rank,
                                          std::uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t deltas = 0;
  std::uint32_t e = epoch;
  for (std::size_t guard = 0; guard < kMaxChainWalk; ++guard) {
    const auto it = images_.find(Key{rank, e});
    if (it == images_.end() || it->second.copies.empty()) return 0;
    if (it->second.kind == ImageKind::Full) return deltas;
    ++deltas;
    e = it->second.prev_epoch;
  }
  return 0;
}

std::uint32_t CheckpointStore::latest_epoch(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = newest_.find(rank);
  if (it != newest_.end() && materializable_locked(rank, it->second)) {
    return it->second;
  }
  // Index miss (the rank lost images since): rescan this rank's range once
  // and re-prime the index.
  std::uint32_t best = 0;
  const auto lo = images_.lower_bound(Key{rank, 0});
  const auto hi = images_.lower_bound(Key{rank + 1, 0});
  for (auto i = lo; i != hi; ++i) {
    if (!i->second.copies.empty() &&
        materializable_locked(rank, i->first.second)) {
      best = std::max(best, i->first.second);
    }
  }
  if (best != 0) {
    newest_[rank] = best;
  } else {
    newest_.erase(rank);
  }
  return best;
}

bool CheckpointStore::has(int rank, std::uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return materializable_locked(rank, epoch);
}

bool CheckpointStore::fetch(int rank, std::uint32_t epoch,
                            util::ByteBuffer& out) const {
  comm::Payload view;
  if (!fetch_view(rank, epoch, view)) return false;
  // The unavoidable copy happens here, outside the critical section; the
  // refcount keeps the chunk alive even if the copy is retired meanwhile.
  out.clear();
  out.put_bytes(view.data(), view.size());
  out.rewind();
  return true;
}

bool CheckpointStore::fetch_view(int rank, std::uint32_t epoch,
                                 comm::Payload& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = images_.find(Key{rank, epoch});
  if (it == images_.end() || it->second.copies.empty()) return false;
  out = it->second.copies.front().data;
  ++fetches_;
  return true;
}

bool CheckpointStore::fetch_chain(int rank, std::uint32_t epoch,
                                  std::vector<comm::Payload>& out) const {
  out.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t e = epoch;
  for (std::size_t guard = 0; guard < kMaxChainWalk; ++guard) {
    const auto it = images_.find(Key{rank, e});
    if (it == images_.end() || it->second.copies.empty()) {
      out.clear();
      return false;
    }
    out.push_back(it->second.copies.front().data);
    if (it->second.kind == ImageKind::Full) {
      std::reverse(out.begin(), out.end());
      ++fetches_;
      return true;
    }
    e = it->second.prev_epoch;
  }
  out.clear();
  return false;
}

std::vector<CheckpointMeta> CheckpointStore::copies(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CheckpointMeta> out;
  const auto lo = images_.lower_bound(Key{rank, 0});
  const auto hi = images_.lower_bound(Key{rank + 1, 0});
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
  rebuild_newest_locked();
}

void CheckpointStore::rebuild_newest_locked() {
  newest_.clear();
  for (const auto& [key, entry] : images_) {
    if (entry.copies.empty()) continue;
    if (!materializable_locked(key.first, key.second)) continue;
    auto [it, inserted] = newest_.try_emplace(key.first, key.second);
    if (!inserted) it->second = std::max(it->second, key.second);
  }
}

void CheckpointStore::retire_before(std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Chain-aware retention: an old epoch survives if a kept epoch's delta
  // chain still passes through it (deltas are useless without their base).
  std::set<Key> keep;
  for (const auto& [key, entry] : images_) {
    if (key.second < epoch) continue;
    std::uint32_t e = key.second;
    for (std::size_t guard = 0; guard < kMaxChainWalk; ++guard) {
      const auto it = images_.find(Key{key.first, e});
      if (it == images_.end()) break;
      if (e < epoch) keep.insert(Key{key.first, e});
      if (it->second.kind == ImageKind::Full) break;
      e = it->second.prev_epoch;
    }
  }
  for (auto it = images_.begin(); it != images_.end();) {
    const bool drop = it->first.second < epoch && keep.count(it->first) == 0;
    it = drop ? images_.erase(it) : std::next(it);
  }
  for (auto it = newest_.begin(); it != newest_.end();) {
    it = materializable_locked(it->first, it->second) ? std::next(it)
                                                     : newest_.erase(it);
  }
}

void CheckpointStore::retire_rank_before(int rank, std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<std::uint32_t> keep;
  const auto lo = images_.lower_bound(Key{rank, 0});
  const auto hi = images_.lower_bound(Key{rank + 1, 0});
  for (auto i = lo; i != hi; ++i) {
    if (i->first.second < epoch) continue;
    std::uint32_t e = i->first.second;
    for (std::size_t guard = 0; guard < kMaxChainWalk; ++guard) {
      const auto it = images_.find(Key{rank, e});
      if (it == images_.end()) break;
      if (e < epoch) keep.insert(e);
      if (it->second.kind == ImageKind::Full) break;
      e = it->second.prev_epoch;
    }
  }
  for (auto it = images_.lower_bound(Key{rank, 0});
       it != images_.end() && it->first.first == rank;) {
    const bool drop =
        it->first.second < epoch && keep.count(it->first.second) == 0;
    it = drop ? images_.erase(it) : std::next(it);
  }
  const auto nit = newest_.find(rank);
  if (nit != newest_.end() && !materializable_locked(rank, nit->second)) {
    newest_.erase(nit);
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
