#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/method.hpp"
#include "image/instance.hpp"
#include "isomalloc/arena.hpp"
#include "isomalloc/slot_heap.hpp"
#include "ult/ult.hpp"

namespace apv::core {

/// Per-virtual-rank privatization state.
///
/// The RankContext object itself is per-process runtime metadata (like
/// AMPI's rank control structures); everything it points to that must
/// survive migration — the ULT, its stack, the rank heap, and under
/// PIEglobals the private data segment and TLS block — lives inside the
/// rank's Isomalloc slot and travels with it. PIEglobals' code sits in the
/// slot too, at the rank's own addresses: copied into the heap, or mapped
/// at the slot's top, where each process maps it again on arrival.
struct RankContext {
  int world_rank = -1;
  Method method = Method::None;
  ProcessEnv* process = nullptr;  ///< current hosting process; updated on migration

  iso::SlotId slot = iso::kInvalidSlot;
  iso::SlotHeap* heap = nullptr;  ///< at the slot base
  ult::Ult* ult = nullptr;        ///< placement-allocated in the slot

  /// The image copy this rank executes "from". Primary for None and
  /// TLSglobals/Swapglobals; a private instance for the PIE-family methods.
  const img::ImageInstance* instance = nullptr;

  /// Cached segment bases for the variable-access fast path.
  std::byte* data_base = nullptr;
  std::byte* tls_block = nullptr;       ///< per-rank TLS block, if any
  const std::uintptr_t* got = nullptr;  ///< active GOT for this rank

  /// PIEglobals: the adopted instance over the slot-resident segment
  /// copies (owned here so registry/teardown bookkeeping is explicit).
  std::unique_ptr<img::ImageInstance> pie_instance;

  /// Swapglobals: per-rank GOT storage and per-variable private storage
  /// live in the rank's slot heap; this is the GOT pointer swapped in.
  std::uintptr_t* swap_got = nullptr;

  /// Opaque slot for the layer above (apv::mpi attaches the rank's
  /// communication state here).
  void* user_data = nullptr;

  /// Hierarchical Local Storage (core/hls.hpp): cached per-rank storage
  /// pointers, indexed by HLS handle. The pointed-to memory lives in the
  /// slot heap (migrates); this index vector is runtime metadata.
  std::vector<void*> hls_vars;
};

/// Thread-locals forming the "current rank" register file of a PE. Updated
/// by the Privatizer's scheduler hook at each ULT context switch:
///   tl_current_rank — always set (the runtime needs it for MPI calls);
///   tl_tls_base     — the emulated TLS segment pointer (TLSglobals and
///                     PIEglobals pay this extra store per switch, which is
///                     why they are the slowest rows of paper Figure 6);
///   tl_current_got  — the active GOT under Swapglobals.
extern thread_local RankContext* tl_current_rank;
extern thread_local std::byte* tl_tls_base;
extern thread_local const std::uintptr_t* tl_current_got;

}  // namespace apv::core
