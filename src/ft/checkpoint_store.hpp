#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "comm/message.hpp"
#include "comm/payload.hpp"
#include "util/bytes.hpp"

namespace apv::ft {

/// Metadata of one stored checkpoint copy.
struct CheckpointMeta {
  int rank = -1;
  std::uint32_t epoch = 0;                    ///< collective epoch number
  comm::PeId resident_pe = comm::kInvalidPe;  ///< the rank's host at pack time
  comm::PeId owner_pe = comm::kInvalidPe;     ///< whose memory holds the copy
  std::size_t bytes = 0;
  bool is_delta = false;          ///< delta image against base_epoch
  std::uint32_t base_epoch = 0;   ///< predecessor epoch (deltas only)
};

/// Versioned in-memory checkpoint store — the double in-memory checkpoint
/// scheme: each rank's packed slot image is kept in the memory of its own
/// PE *and* a buddy PE, so losing any single PE leaves a surviving copy of
/// every rank. All copies live in this shared store but are tagged with
/// their owner PE; a copy owned by a failed PE counts as destroyed (its
/// host memory is gone) and is never served again. Images are additionally
/// tagged with the epoch and the rank's resident PE at pack time, which is
/// what makes checkpoint-after-migrate and checkpoint-after-restore safe:
/// lookups always name an epoch, and stale epochs are retired explicitly
/// once a newer one has committed.
///
/// Copies are ref-counted comm::Payload handles: the buddy "duplicate" in
/// put() shares the chunk (the emulator's shared address space stands in
/// for RDMA, so replication is a refcount bump, not a memcpy), and
/// fetch_chain() hands out views that stay valid *outside* the store mutex.
///
/// Epochs form delta chains: put() stores a full image, put_delta() stores
/// only the pages dirtied since `base_epoch`. An epoch is *materializable*
/// if it and every link back to a full base survive; has()/latest_epoch()
/// answer in those terms, and the retire_* calls keep chain links alive
/// while any retained epoch still depends on them. The packer bounds every
/// chain: each ft.full_every-th image of a rank is full.
class CheckpointStore {
 public:
  /// Stores a full `image` once per owner in `owners` (self + buddy under
  /// the buddy scheme; just self for single-copy checkpoints). Owners that
  /// have already failed are skipped — a dead PE's memory cannot be
  /// written.
  void put(int rank, std::uint32_t epoch, comm::PeId resident_pe,
           const std::vector<comm::PeId>& owners, util::ByteBuffer image);

  /// Stores a delta image that applies on top of (rank, base_epoch).
  void put_delta(int rank, std::uint32_t epoch, std::uint32_t base_epoch,
                 comm::PeId resident_pe,
                 const std::vector<comm::PeId>& owners,
                 util::ByteBuffer image);

  /// Newest epoch of `rank` that can be materialized (all chain links back
  /// to a full base survive); 0 if none. Scans the rank's epochs from the
  /// newest down.
  std::uint32_t latest_epoch(int rank) const;

  /// True if (rank, epoch) survives and its whole chain is materializable.
  bool has(int rank, std::uint32_t epoch) const;

  /// Zero-copy chain fetch: views of every stream needed to materialize
  /// (rank, epoch), in application order (full base first, then deltas by
  /// ascending epoch). Returns false if the chain is broken.
  bool fetch_chain(int rank, std::uint32_t epoch,
                   std::vector<comm::Payload>& out) const;

  /// Surviving copies of `rank`, all epochs (test/bench introspection).
  std::vector<CheckpointMeta> copies(int rank) const;

  /// Marks a PE's memory as lost: every copy it owned is destroyed and
  /// future puts naming it as owner are ignored.
  void lose_pe(comm::PeId pe);

  /// Drops copies (every rank) from epochs older than `epoch` — except
  /// chain links that a surviving epoch >= `epoch` still depends on.
  void retire_before(std::uint32_t epoch);

  /// Per-rank version of retire_before (single-rank, non-collective
  /// checkpoints version independently).
  void retire_rank_before(int rank, std::uint32_t epoch);

  /// Number of deltas stacked on top of (rank, epoch)'s full base,
  /// counting the named epoch itself if it is a delta.
  std::size_t chain_length(int rank, std::uint32_t epoch) const;

  std::size_t copy_count() const;
  std::size_t total_bytes() const;
  std::uint64_t puts() const;
  std::uint64_t fetches() const;

 private:
  enum class ImageKind : std::uint8_t { Full, Delta };
  struct Copy {
    CheckpointMeta meta;
    comm::Payload data;
  };
  struct Entry {
    ImageKind kind = ImageKind::Full;
    std::uint32_t prev_epoch = 0;  ///< deltas: epoch this applies on top of
    std::vector<Copy> copies;
  };
  using Key = std::pair<int, std::uint32_t>;  ///< (rank, epoch)
  using Images = std::map<Key, Entry>;

  void put_entry(int rank, std::uint32_t epoch, ImageKind kind,
                 std::uint32_t prev_epoch, comm::PeId resident_pe,
                 const std::vector<comm::PeId>& owners,
                 util::ByteBuffer image);
  /// Walks (rank, epoch)'s chain back to its full base, calling
  /// `visit(epoch, entry)` on each surviving link, newest first. True if
  /// the walk reached a full base: the epoch is materializable.
  template <class Visit>
  bool walk_chain_locked(int rank, std::uint32_t epoch, Visit&& visit) const;
  /// `rank`'s images, as a [first, last) range of images_.
  std::pair<Images::const_iterator, Images::const_iterator> rank_range_locked(
      int rank) const;
  /// Drops the images in [lo, hi) older than `epoch`, except chain links
  /// an image of that range at `epoch` or newer still depends on.
  void retire_locked(Images::const_iterator lo, Images::const_iterator hi,
                     std::uint32_t epoch);

  mutable std::mutex mutex_;
  Images images_;
  std::set<comm::PeId> dead_owners_;
  std::uint64_t puts_ = 0;
  mutable std::uint64_t fetches_ = 0;
};

}  // namespace apv::ft
