#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace apv::util {

/// How a counter slot of a PE's block is written (see CounterBlock).
enum class CtrWriter : std::uint8_t {
  Owner,  ///< only by the block's owner thread, with bump()
  Any,    ///< by any thread, with add()
};

// Every per-PE event counter, one row each: enum name, dump name (its key
// in Runtime::all_counters()), writer, and what it counts. This table is
// the only place a counter is named.
#define APV_COUNTER_TABLE(X)                                                 \
  /* comm: Cluster::send, the aggregation bins, delivery */                  \
  X(CommSends, "comm.sends", Owner,                                          \
    "messages accepted from the layer above")                                \
  X(CommBytes, "comm.bytes", Owner, "payload bytes accepted")                \
  X(CommAggregated, "comm.aggregated", Owner,                                \
    "messages that travelled bundled")                                       \
  X(CommAggEnvelopes, "comm.agg_envelopes", Owner,                           \
    "aggregate envelopes shipped")                                           \
  X(CommFlushesSize, "comm.flushes_size", Owner,                             \
    "bin flushes forced by the size cap")                                    \
  X(CommFlushesOrder, "comm.flushes_order", Owner,                           \
    "bin flushes that keep a message or an image from overtaking the bin")   \
  X(CommFlushesIdle, "comm.flushes_idle", Owner,                             \
    "bin flushes from the PE idle hook")                                     \
  X(CommFlushesBlock, "comm.flushes_block", Owner,                           \
    "bin flushes by a rank about to block on its PE")                        \
  X(CommInternode, "comm.internode", Any,                                    \
    "messages paced across a node boundary (a bundle counts its members)")   \
  X(CommDropped, "comm.dropped", Any,                                        \
    "control and migration messages lost with their failed PE")              \
  /* sched: ult::Scheduler */                                                \
  X(ContextSwitches, "context_switches", Owner,                              \
    "scheduler-to-ULT transfers")                                            \
  X(SchedDispatchHigh, "sched_dispatch_high", Owner,                         \
    "ULTs dispatched from the High lane")                                    \
  X(SchedDispatchNormal, "sched_dispatch_normal", Owner,                     \
    "ULTs dispatched from the Normal lane")                                  \
  X(SchedDispatchBulk, "sched_dispatch_bulk", Owner,                         \
    "ULTs dispatched from the Bulk lane")                                    \
  X(SchedPreemptions, "sched_preemptions", Owner,                            \
    "ULTs demoted to Bulk at a preempt point after their quantum")           \
  X(SchedQuantumOverruns, "sched_quantum_overruns", Owner,                   \
    "quanta overrun with nothing else waiting (no switch)")                  \
  X(SchedRemoteReadies, "sched_remote_readies", Any,                         \
    "ULTs made ready by a thread other than the owner")                      \
  /* steals: mpi::Runtime */                                                 \
  X(SchedStealRequests, "sched_steal_requests", Owner,                       \
    "steal requests this idle PE sent")                                      \
  X(SchedStealFails, "sched_steal_fails", Owner,                             \
    "steal requests refused or timed out")                                   \
  X(SchedStealsIn, "sched_steals_in", Owner, "ranks this PE stole")          \
  X(SchedStealsOut, "sched_steals_out", Owner,                               \
    "ranks shipped to a thief")                                              \
  /* locality: same-PE inline delivery, p2p holds, hier collectives */       \
  X(InlineHits, "inline_hits", Owner,                                        \
    "same-PE sends copied straight into a posted receive")                   \
  X(InlineMisses, "inline_misses", Owner,                                    \
    "same-PE sends copied into a payload: queued unexpected, or held")       \
  X(InlineBytes, "inline_bytes", Owner, "bytes of inline hits and misses")   \
  X(P2pHeld, "p2p_held", Owner,                                              \
    "user messages held until an older one from their sender landed")        \
  X(CollLocalCombines, "coll_local_combines", Owner,                         \
    "contributions folded inside a PE's shared group block")                 \
  X(CollSharedRendezvous, "coll_shared_rendezvous", Owner,                   \
    "group agents' meetings in the second-level shared block")               \
  X(CollVecBytes, "coll_vec_bytes", Owner,                                   \
    "bytes through vector collectives' shared blocks")                       \
  /* rank movement: migration, forwarding, recovery */                       \
  X(Migrations, "migrations", Owner,                                         \
    "ranks shipped by migrate_to or LB (steals not counted)")                \
  X(MigrationBytes, "migration_bytes", Owner,                                \
    "image bytes shipped by migrations and steals")                          \
  X(Forwards, "forwards", Owner,                                             \
    "user messages chased after a rank that moved")                          \
  X(ArrivalWaits, "arrival_waits", Owner,                                    \
    "messages that waited for their rank's arrival on this PE")              \
  X(Recoveries, "recoveries", Owner,                                         \
    "ranks adopted from buddy checkpoints after a failure")                  \
  X(RecoveryBytes, "recovery_bytes", Owner,                                  \
    "checkpoint bytes unpacked by adoptions")                                \
  /* checkpoints */                                                          \
  X(CkptImagesFull, "ckpt_images_full", Owner, "full images packed")         \
  X(CkptImagesDelta, "ckpt_images_delta", Owner, "delta images packed")      \
  X(CkptBytesFull, "ckpt_bytes_full", Owner, "bytes of full images")         \
  X(CkptBytesDelta, "ckpt_bytes_delta", Owner, "bytes of delta images")      \
  X(CkptPagesDirty, "ckpt_pages_dirty", Owner,                               \
    "dirty pages carried by delta images")                                   \
  /* check: the runtime correctness checker */                               \
  X(CheckCollVerified, "check_coll_verified", Owner,                         \
    "collective entries that matched the first arriver")                     \
  X(CheckCollMismatches, "check_coll_mismatches", Any,                       \
    "collective entries that did not")                                       \
  X(CheckBlockCompares, "check_block_compares", Owner,                       \
    "shared-block arrivals compared against the first")                      \
  X(CheckBlockMismatches, "check_block_mismatches", Any,                     \
    "shared-block arrivals that did not match")                              \
  X(CheckP2pVerified, "check_p2p_verified", Owner,                           \
    "stamped p2p matches verified")                                          \
  X(CheckP2pTypeMismatches, "check_p2p_type_mismatches", Any,                \
    "p2p matches whose element sizes differ")                                \
  X(CheckP2pTruncations, "check_p2p_truncations", Any,                       \
    "p2p matches larger than the receive buffer")                            \
  X(CheckDeadlockScans, "check_deadlock_scans", Any,                         \
    "wait-graph deadlock scans run")                                         \
  X(CheckRecoveriesSeen, "check_recoveries_seen", Owner,                     \
    "failure recoveries the armed checker passed through")

/// A per-PE event counter: one slot of a CounterBlock.
enum class Ctr : std::uint8_t {
#define APV_CTR_ENUM(id, name, writer, doc) id,
  APV_COUNTER_TABLE(APV_CTR_ENUM)
#undef APV_CTR_ENUM
};

/// One row of the counter table.
struct CounterSpec {
  std::string_view name;  ///< dump name
  CtrWriter writer;
  std::string_view doc;
};

/// Every counter, in Ctr order.
inline constexpr CounterSpec kCounterTable[] = {
#define APV_CTR_SPEC(id, name, writer, doc) {name, CtrWriter::writer, doc},
    APV_COUNTER_TABLE(APV_CTR_SPEC)
#undef APV_CTR_SPEC
};
#undef APV_COUNTER_TABLE

inline constexpr std::size_t kCtrCount = std::size(kCounterTable);

constexpr const CounterSpec& counter_spec(Ctr c) noexcept {
  return kCounterTable[static_cast<std::size_t>(c)];
}

/// One PE's counters, one slot per Ctr, on cache lines of its own. An
/// Owner slot is written only by the block's owner thread, with bump();
/// an Any slot only with add(), from any thread. A block no thread owns
/// (Cluster's, for traffic from non-PE threads) is written with add()
/// only. Reads are relaxed and may run on any thread.
class alignas(64) CounterBlock {
 public:
  /// Owner-thread write: a relaxed load and store, no locked RMW.
  void bump(Ctr c, std::uint64_t d = 1) noexcept {
    assert(counter_spec(c).writer == CtrWriter::Owner);
    std::atomic<std::uint64_t>& s = slot(c);
    s.store(s.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  /// Any-thread write.
  void add(Ctr c, std::uint64_t d = 1) noexcept {
    slot(c).fetch_add(d, std::memory_order_relaxed);
  }
  std::uint64_t get(Ctr c) const noexcept {
    return slots_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>& slot(Ctr c) noexcept {
    return slots_[static_cast<std::size_t>(c)];
  }

  std::array<std::atomic<std::uint64_t>, kCtrCount> slots_{};
};

/// A plain copy of every slot: one block's, or a sum over blocks.
class CounterValues {
 public:
  std::uint64_t operator[](Ctr c) const noexcept {
    return v_[static_cast<std::size_t>(c)];
  }
  CounterValues& operator+=(const CounterBlock& b) noexcept {
    for (std::size_t i = 0; i < kCtrCount; ++i)
      v_[i] += b.get(static_cast<Ctr>(i));
    return *this;
  }

 private:
  std::array<std::uint64_t, kCtrCount> v_{};
};

}  // namespace apv::util
