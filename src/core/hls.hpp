#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rank_context.hpp"
#include "util/error.hpp"

namespace apv::core {

/// Hierarchical Local Storage (paper §2.3.5): MPC extends privatization
/// with attributes that place each variable at the level of the hierarchy
/// where it actually needs to be distinct — per-process data stays shared
/// node-wide, per-core data is shared by the ranks co-scheduled on a PE,
/// and only truly rank-private data pays a copy per ULT. The goal is to
/// minimize the memory overhead of blanket privatization.
///
/// This extension provides the same model on top of apv's rank contexts:
/// an HlsVar<T> declares its level; resolution walks the current rank's
/// placement (process / resident PE / rank identity).
enum class HlsLevel : std::uint8_t {
  Process,  ///< one instance per emulated OS process (like an unprivatized
            ///< global, but explicit)
  Pe,       ///< one instance per PE — shared by co-scheduled ranks
  Rank,     ///< one instance per virtual rank (full privatization)
};

const char* hls_level_name(HlsLevel level) noexcept;

/// A block of hierarchical storage declared once and instantiated lazily
/// per (level, owner). Storage for Process/Pe levels lives on the regular
/// heap (it never migrates — it is location property, not rank property);
/// Rank-level storage lives in the rank's Isomalloc slot and migrates.
class HlsRegion {
 public:
  /// `processes`/`pes` size the per-level instance tables.
  HlsRegion(int processes, int pes);

  /// Declares a variable at a level; returns its handle index.
  /// Instances are zero-initialized at first touch.
  std::uint32_t declare(const std::string& name, std::size_t size,
                        std::size_t align, HlsLevel level);

  /// Resolves a variable for the rank currently executing (or, for
  /// Process/Pe levels, for an explicit owner index). Rank-level
  /// resolution allocates from the rank's slot heap on first touch and
  /// caches the pointer in the rank's HLS table.
  void* resolve(std::uint32_t handle, RankContext& rc, int process_id,
                int pe_id);

  /// Total bytes currently committed per level — the memory-overhead
  /// metric HLS exists to improve.
  std::size_t bytes_at(HlsLevel level) const;

 private:
  struct VarDecl {
    std::string name;
    std::size_t size;
    std::size_t align;
    HlsLevel level;
  };

  void* slot_for(std::uint32_t handle, int owner,
                 std::vector<std::vector<void*>>& table, std::size_t owners);

  int processes_;
  int pes_;
  std::vector<VarDecl> vars_;
  // instance tables: [handle][owner] -> storage (lazy).
  std::vector<std::vector<void*>> process_storage_;
  std::vector<std::vector<void*>> pe_storage_;
  std::vector<std::byte*> owned_;  // heap blocks to free
  std::size_t process_bytes_ = 0;
  std::size_t pe_bytes_ = 0;
  std::size_t rank_bytes_ = 0;

 public:
  ~HlsRegion();
  HlsRegion(const HlsRegion&) = delete;
  HlsRegion& operator=(const HlsRegion&) = delete;
};

/// Typed accessor over an HlsRegion handle.
template <typename T>
class HlsVar {
 public:
  HlsVar() = default;
  HlsVar(HlsRegion* region, std::uint32_t handle)
      : region_(region), handle_(handle) {}

  /// Reference for the given placement. For Rank level the storage comes
  /// from (and migrates with) rc's slot.
  T& at(RankContext& rc, int process_id, int pe_id) const {
    return *static_cast<T*>(
        region_->resolve(handle_, rc, process_id, pe_id));
  }

 private:
  HlsRegion* region_ = nullptr;
  std::uint32_t handle_ = 0;
};

}  // namespace apv::core
