#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/message.hpp"
#include "core/rank_context.hpp"
#include "mpi/match.hpp"
#include "mpi/types.hpp"

namespace apv::mpi {

class Env;
class CommInfo;
struct CommTopo;  // hierarchical-collective grouping (collectives_hier.cpp)

/// State of one nonblocking operation.
struct RequestState {
  bool active = false;
  bool complete = false;
  Status status;
  /// What completing the receive went wrong with (a truncation, or a
  /// mismatch the checker aborts on), rethrown by the wait or test that
  /// retires it — in the receiver's own ULT, whichever thread matched.
  std::exception_ptr error;
};

/// Per-virtual-rank MPI state. Runtime metadata (process-side bookkeeping,
/// like AMPI's per-rank structures): lives on the ordinary heap, keyed from
/// RankContext::user_data, and is handed between PEs when the rank
/// migrates. All access happens on the thread of the PE that hosts the rank
/// (where it is: comm::RankPlaces).
struct RankMpi {
  core::RankContext* rc = nullptr;
  std::unique_ptr<Env> env;
  comm::RankId world_rank = -1;

  std::vector<RequestState> requests;
  /// Point-to-point matching: posted receives, unexpected and held
  /// messages, and the per-peer sequence counts that order them.
  MatchQueues match;

  /// Per-communicator collective sequence numbers (order of collective
  /// calls is identical across members, so these agree and disambiguate
  /// overlapping collectives in the internal tag space).
  std::vector<std::uint32_t> coll_seq;
  /// Per-communicator comm-creation counters (dup/split id derivation).
  std::vector<std::uint32_t> comm_seq;
  /// Per-communicator USER-level collective sequence for the correctness
  /// checker. Separate from coll_seq: naive allreduce delegates to
  /// reduce+bcast and consumes several coll_seqs per user call, but the
  /// checker gates exactly once per user-level entry. Host heap, so a
  /// checkpoint rewind does not fork the sequence between victims and
  /// survivors.
  std::vector<std::uint32_t> check_seq;

  /// Collective nesting depth: >0 while inside a user-level collective, so
  /// delegated inner collectives (naive allreduce -> reduce+bcast, FT/LB
  /// glue barriers called from user code) don't re-gate.
  int coll_depth = 0;
  /// Checker provenance: last user-level collective this rank entered
  /// (static string), and the last receive it posted. Surfaced by the
  /// stuck-state post-mortem and the deadlock wait-graph scan.
  const char* last_coll_name = nullptr;
  std::int32_t last_coll_comm = -1;
  std::uint32_t last_coll_seq = 0;
  int last_post_src = -2;  ///< awaited world rank; kAnySource (also the
                           ///< initial value) = wildcard or never posted —
                           ///< either way, no definite wait-graph edge
  std::int32_t last_post_tag = 0;
  std::int32_t last_post_comm = -1;
  bool waiting = false;  ///< parked in Runtime::block_current, until resumed
  void* entry_ret = nullptr;
  bool failed = false;
  std::string failure;

  bool restored = false;  ///< set by checkpoint-restore before resuming
  /// Monotonic checkpoint epoch counter. Lives here (ordinary heap, not in
  /// the slot) deliberately: a restore rewinds the slot but not this
  /// counter, so epochs taken after a rewind still version forward.
  std::uint32_t ft_epoch = 0;
  /// Incremental-checkpoint bookkeeping (host heap, same rationale as
  /// ft_epoch). last_ckpt_epoch names the delta base; ckpt_chain_len counts
  /// deltas since the last full image; force_full_ckpt is raised whenever
  /// the slot's bytes were rewritten wholesale (the arrival of a move
  /// between nodes, restore, adoption) — the dirty bitmap is void then and
  /// the next image must be a full base.
  std::uint32_t last_ckpt_epoch = 0;
  std::uint32_t ckpt_chain_len = 0;
  bool force_full_ckpt = true;

  // Load-balancing instrumentation. Atomic with a single-writer bump: only
  // the rank's current resident PE thread accumulates (switch hook /
  // close_run_slice, ordered across migration by the departure-side close),
  // while cross-thread readers — steal victim scoring on another PE, the
  // recovery leader's re-placement stats — take relaxed advisory snapshots;
  // a stale value skews a placement heuristic, never correctness.
  std::atomic<double> busy_time_s{0.0};
  void add_busy_time(double s) noexcept {
    busy_time_s.store(busy_time_s.load(std::memory_order_relaxed) + s,
                      std::memory_order_relaxed);
  }
  double busy_time() const noexcept {
    return busy_time_s.load(std::memory_order_relaxed);
  }

  /// This rank's view of the world's rank->PE placement, used to derive
  /// hierarchical-collective groupings. Seeded identically on every rank at
  /// construction and updated only inside do_load_balance (where all ranks
  /// compute the same assignment deterministically), so all members of a
  /// communicator always agree on the grouping — even when the view is
  /// stale against the ranks' live places (explicit migrate_to, failure
  /// recovery). Stale views only cost performance: group blocks are
  /// mutex-guarded and messages route by the live places.
  std::vector<comm::PeId> placement_view;
  /// Bumped whenever placement_view changes; invalidates cached topologies.
  std::uint32_t view_epoch = 0;
  /// Per-communicator cache of the grouping derived from placement_view:
  /// (epoch the topo was built at, topo). Indexed by CommId.
  std::vector<std::pair<std::uint32_t, std::shared_ptr<const CommTopo>>>
      topo_cache;

  /// Resolved CommInfo pointers, indexed by CommId. The registry never
  /// recycles ids and keeps references stable (deque, entries never erased),
  /// so a pointer resolved once stays valid; caching it keeps the registry
  /// mutex off the per-message path.
  std::vector<const CommInfo*> comm_info_cache;

  std::uint32_t& check_seq_for(CommId comm) {
    if (static_cast<std::size_t>(comm) >= check_seq.size())
      check_seq.resize(static_cast<std::size_t>(comm) + 1, 0);
    return check_seq[static_cast<std::size_t>(comm)];
  }
  std::uint32_t& coll_seq_for(CommId comm) {
    if (static_cast<std::size_t>(comm) >= coll_seq.size())
      coll_seq.resize(static_cast<std::size_t>(comm) + 1, 0);
    return coll_seq[static_cast<std::size_t>(comm)];
  }
  std::uint32_t& comm_seq_for(CommId comm) {
    if (static_cast<std::size_t>(comm) >= comm_seq.size())
      comm_seq.resize(static_cast<std::size_t>(comm) + 1, 0);
    return comm_seq[static_cast<std::size_t>(comm)];
  }

  Request alloc_request() {
    // Rotating start point: in steady state (a window of requests allocated
    // and completed in posting order) the slot just past the previous
    // allocation is free, so this probes once instead of scanning every
    // live request from zero.
    const std::size_t n = requests.size();
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t i = req_hint_ + k;
      if (i >= n) i -= n;
      if (!requests[i].active) {
        requests[i] = RequestState{true, false, {}, nullptr};
        req_hint_ = i + 1 == n ? 0 : i + 1;
        return static_cast<Request>(i);
      }
    }
    requests.push_back(RequestState{true, false, {}, nullptr});
    req_hint_ = 0;
    return static_cast<Request>(requests.size() - 1);
  }

 private:
  std::size_t req_hint_ = 0;  ///< next alloc_request probe position
};

/// Composes an internal collective tag: op (5 bits), round (6 bits),
/// per-comm collective sequence (14 bits, wraps — safe because at most a
/// handful of collectives are in flight per communicator).
constexpr int internal_tag(int op, int round, std::uint32_t seq) {
  return kInternalTagBase | (op << 20) | (round << 14) |
         static_cast<int>(seq & 0x3fffu);
}

/// Collective op codes: internal_tag's op field for the flat (message)
/// algorithms and runtime glue, and the hierarchical collectives' shared-block
/// checker colors.
enum CollOp : int {
  kCollBarrier = 1,
  kCollBcast,
  kCollReduce,
  kCollGather,
  kCollScatter,
  kCollAlltoall,
  kCollScan,
  kCollFtRecover,  ///< survivor barrier during failure recovery; the "seq"
                   ///< bits carry the checkpoint epoch, not a coll_seq —
                   ///< victims' sequence counters must stay untouched
  // Hierarchical (two-level) collectives. They send no messages — members
  // and group agents meet in shared blocks — so these only name the call
  // shape the blocks' runtime-checker compare stamps.
  kCollHierBarrier,
  kCollHierBcast,
  kCollHierReduce,
  kCollHierAllred,
  kCollHierScan,
  kCollHierGather,
  kCollHierScatter,
  kCollHierAllgather,
  kCollHierAlltoall,
};
static_assert(kCollHierAlltoall <= 31,
              "CollOp must fit internal_tag's 5 bits");

}  // namespace apv::mpi
