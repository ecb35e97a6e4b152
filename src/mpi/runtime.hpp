#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "comm/cluster.hpp"
#include "core/privatizer.hpp"
#include "ft/checkpoint_store.hpp"
#include "ft/fault_injector.hpp"
#include "image/image.hpp"
#include "image/loader.hpp"
#include "isomalloc/arena.hpp"
#include "isomalloc/dirty_tracker.hpp"
#include "isomalloc/pack.hpp"
#include "mpi/comm_table.hpp"
#include "mpi/env.hpp"
#include "mpi/rank_state.hpp"
#include "mpi/types.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"

namespace apv::mpi {

/// Configuration for one virtualized job (the analogue of
/// `./prog +vp N +ppn K` on an AMPI command line).
struct RuntimeConfig {
  int nodes = 1;          ///< emulated OS processes
  int pes_per_node = 1;   ///< PEs per process; >1 = SMP mode
  int vps = 4;            ///< virtual ranks (MPI world size)
  core::Method method = core::Method::None;
  std::string entry = "mpi_main";  ///< image function: void*(Env*)
  std::size_t slot_bytes = std::size_t{64} << 20;  ///< Isomalloc slot size
  std::size_t stack_bytes = std::size_t{256} << 10;
  std::string map = "block";  ///< initial rank→PE map: "block" or "rr"
  util::Options options;      ///< net.*, fs.*, pie.*, swap.*, iso.*, loader.*
  ult::ContextBackend backend = ult::default_context_backend();
};

/// Control-message opcodes (comm::Message::opcode when kind == Control).
/// A rank never sends one to itself: what it asks of its own PE runs as its
/// park continuation (Runtime::block_current).
enum CtlOp : int {
  kCtlFtAdopt = 1,      ///< new host PE: adopt a victim rank from its buddy
                        ///< checkpoint copy (msg.tag=epoch)
  kCtlCollWake,         ///< wake dst_rank if parked in a group-block wait;
                        ///< processed on its resident PE thread so the wake
                        ///< cannot race the ULT's own suspend
  kCtlStealRequest,     ///< idle thief asks the victim PE for a ready rank;
                        ///< msg.tag carries the thief's PE id
  kCtlStealNack,        ///< victim had nothing stealable; thief may retry
                        ///< another victim after its idle timer re-fires
};

/// Migration-message sub-opcodes (comm::Message::opcode when kind ==
/// Migration). The seed used opcode 0 implicitly; kMigSteal lets the
/// arrival side count steals without a second bookkeeping channel.
enum MigOp : int {
  kMigPlain = 0,  ///< migrate_to / LB epoch migration
  kMigSteal = 1,  ///< rank shipped in answer to a steal request
};

/// The virtualized MPI runtime: ties together the cluster (PEs + mailboxes),
/// per-node Privatizers, the Isomalloc arena, and the MPI semantics
/// (matching, collectives, migration, load balancing, checkpointing).
class Runtime {
 public:
  /// Builds the whole job: loads/privatizes the program on every node and
  /// creates all virtual ranks. The elapsed construction time is the
  /// paper's Figure 5 "startup/initialization" metric.
  Runtime(const img::ProgramImage& image, RuntimeConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Launches the PE threads and schedules every rank's entry function.
  void start();
  /// Blocks until every rank's entry returned, then stops the PEs.
  /// Throws the first rank failure, if any.
  void wait_finish();
  /// start() + wait_finish().
  void run();

  /// Time spent privatizing + creating ranks in the constructor (seconds).
  double init_time_s() const noexcept { return init_time_s_; }

  comm::Cluster& cluster() noexcept { return *cluster_; }
  core::Privatizer& privatizer(comm::NodeId node);
  iso::IsoArena& arena() noexcept { return *arena_; }
  CommTable& comms() noexcept { return *comms_; }
  const RuntimeConfig& config() const noexcept { return config_; }
  const img::ProgramImage& image() const noexcept { return *image_; }

  RankMpi& rank_state(int world_rank);
  /// Value returned by the rank's entry function.
  void* rank_return(int world_rank);

  // --- fault tolerance -----------------------------------------------------
  ft::CheckpointStore& checkpoint_store() noexcept { return *ckpt_store_; }
  /// The configured fault injector, or nullptr when ft.policy is "none".
  ft::FaultInjector* fault_injector() noexcept { return injector_.get(); }
  /// The arena's dirty-page tracker, or nullptr when ft.delta=off.
  iso::DirtyTracker* dirty_tracker() noexcept { return dirty_tracker_.get(); }

  /// Shared group blocks currently registered by hierarchical collectives.
  /// Every rank that attaches a block detaches it again, so this is 0
  /// whenever no collective is in flight.
  std::size_t live_group_blocks() const;

  // --- runtime correctness checker (src/check) -----------------------------
  /// The checker instance, or nullptr when check.mode=off.
  check::Checker* checker() noexcept { return checker_.get(); }
  /// Every counter by its dump name: each slot of the per-PE table
  /// (util/counters.hpp) summed over the job, zeros included, plus the
  /// counts whose writers no PE owns: mailbox ring and overflow pushes,
  /// the payload pool, the dirty tracker, the checkpoint store and the
  /// checker's diagnoses. Read one counter with cluster().totals().
  util::Counters all_counters() const;
  /// Prints all_counters() as one JSON line to stderr. Runs automatically
  /// at successful wait_finish when util.dump_counters=1.
  void dump_all_counters() const;

  /// Collective-entry gate, called once per user-level collective by the
  /// CollScope helper in collectives.cpp. Registers this rank's call-site
  /// descriptor for (comm, seq) and verifies it against the first arriver;
  /// per check.mode, a mismatch warns (recorded diagnosis) or throws
  /// CheckFailed from the offending rank's context.
  void coll_gate_entry(RankMpi& rm, const char* name, std::int32_t color,
                       CommId comm, std::uint32_t seq, int root, int opkind,
                       std::uint32_t esize, std::uint64_t bytes, int expected);

  /// Applies a (possibly user-defined) reduction operator "on a PE" the way
  /// AMPI's message combining does: through the code copy of some rank
  /// resident on that PE. Reproduces the paper's documented failure mode —
  /// throws ReductionOnEmptyPe if the PE hosts no ranks and the op is
  /// user-defined under PIEglobals.
  void combine_on_pe(comm::PeId pe, const Op& op, Datatype dt, const void* in,
                     void* inout, int len);

  // --- implementation surface used by the ApiTable shim ---------------------
  // (public so the packed free functions can reach it; not for end users)
  void do_send(RankMpi& rm, const void* buf, std::size_t bytes, int dst_local,
               int tag, CommId comm, std::uint32_t esize = 0);
  Request do_irecv(RankMpi& rm, void* buf, std::size_t max_bytes, int src,
                   int tag, CommId comm, std::uint32_t esize = 0);
  Status do_wait(RankMpi& rm, Request& req);
  /// Blocking receive (irecv + wait) behind a preemption safe point.
  Status do_recv(RankMpi& rm, void* buf, std::size_t max_bytes, int src,
                 int tag, CommId comm, std::uint32_t esize = 0);
  bool do_test(RankMpi& rm, Request& req, Status* status);
  bool do_iprobe(RankMpi& rm, int src, int tag, CommId comm, Status* status);
  void do_yield(RankMpi& rm);

  void do_barrier(RankMpi& rm, CommId comm);
  void do_bcast(RankMpi& rm, void* buf, std::size_t bytes, int root,
                CommId comm);
  void do_reduce(RankMpi& rm, const void* sbuf, void* rbuf, int count,
                 Datatype dt, const Op& op, int root, CommId comm);
  void do_allreduce(RankMpi& rm, const void* sbuf, void* rbuf, int count,
                    Datatype dt, const Op& op, CommId comm);
  void do_scan(RankMpi& rm, const void* sbuf, void* rbuf, int count,
               Datatype dt, const Op& op, CommId comm);
  void do_gather(RankMpi& rm, const void* sbuf, int scount, Datatype sdt,
                 void* rbuf, int rcount, Datatype rdt, int root, CommId comm);
  void do_gatherv(RankMpi& rm, const void* sbuf, int scount, Datatype sdt,
                  void* rbuf, const int* rcounts, const int* displs,
                  Datatype rdt, int root, CommId comm);
  void do_scatter(RankMpi& rm, const void* sbuf, int scount, Datatype sdt,
                  void* rbuf, int rcount, Datatype rdt, int root, CommId comm);
  void do_allgather(RankMpi& rm, const void* sbuf, int scount, Datatype sdt,
                    void* rbuf, int rcount, Datatype rdt, CommId comm);
  void do_scatterv(RankMpi& rm, const void* sbuf, const int* scounts,
                   const int* displs, Datatype sdt, void* rbuf, int rcount,
                   Datatype rdt, int root, CommId comm);
  void do_alltoall(RankMpi& rm, const void* sbuf, int scount, Datatype sdt,
                   void* rbuf, int rcount, Datatype rdt, CommId comm);
  CommId do_comm_split(RankMpi& rm, CommId parent, int color, int key);
  void do_comm_free(RankMpi& rm, CommId comm);

  Op do_op_create_named(RankMpi& rm, const char* image_fn, bool commutative);
  Op do_op_create(RankMpi& rm, void* fn_addr, bool commutative);
  /// Applies `op` in `rm`'s rank context (localizing user-op handles
  /// through rm's own code copy).
  void apply_op(RankMpi& rm, const Op& op, Datatype dt, const void* in,
                void* inout, int len);

  void do_migrate_to(RankMpi& rm, comm::PeId dest);
  void do_load_balance(RankMpi& rm, const std::string& strategy);
  int do_checkpoint(RankMpi& rm);
  /// Collective restore: every rank rewinds to its last checkpoint.
  /// Must be invoked from rank context (all ranks call it).
  int do_restore(RankMpi& rm);
  /// Collective buddy checkpoint + failure commit point (implemented in
  /// ft_glue.cpp). Every rank packs an epoch image stored on two PEs; if
  /// the fault injector kills a PE at this epoch, survivors recover the
  /// lost ranks from buddy copies and everyone resumes at the epoch state.
  /// Returns 0 for a plain checkpoint, 1 when resuming after a recovery.
  int do_checkpoint_all(RankMpi& rm);
  void do_compute(RankMpi& rm, double seconds);

  /// Parks the calling rank until something readies it; every blocking
  /// call parks here. Flushes its PE's aggregation bins first: its peers
  /// may be waiting on what it just sent. `then`, if given, runs on the
  /// PE's thread once the ULT has switched out (Scheduler::suspend), before
  /// the PE dispatches anything else: it ships, packs or overwrites the
  /// parked rank, and readies it unless it is handed elsewhere.
  void block_current(RankMpi& rm, std::function<void()> then = nullptr);

  const CommInfo& comm_info(CommId id) const { return comms_->info(id); }

  /// Per-message resolution path: memoizes the registry lookup in the
  /// rank's own cache (ids are never recycled and CommInfo references are
  /// stable), so steady-state traffic skips the registry mutex entirely.
  const CommInfo& comm_info(RankMpi& rm, CommId id) const {
    const auto i = static_cast<std::size_t>(id);
    if (i < rm.comm_info_cache.size() && rm.comm_info_cache[i] != nullptr)
      [[likely]]
      return *rm.comm_info_cache[i];
    const CommInfo& ci = comms_->info(id);
    if (i >= rm.comm_info_cache.size())
      rm.comm_info_cache.resize(i + 1, nullptr);
    rm.comm_info_cache[i] = &ci;
    return ci;
  }

  /// Looks up the variable-access binding for a rank's process.
  core::VarAccess bind_global(const RankMpi& rm,
                              const std::string& name) const;

 private:
  struct PeState {
    util::CounterBlock* ctr = nullptr;  ///< this PE's counters
    std::map<comm::RankId, RankMpi*> resident;
    RankMpi* running = nullptr;        // load-timing bookkeeping
    std::uint64_t slice_start_ns = 0;
    // Rank stealing, written only by this PE's loop thread: when the PE
    // went idle (0 = busy), and the outstanding steal request's send time
    // (0 = none in flight; a request to a PE that dies is simply dropped,
    // so the thief retries after the steal timeout).
    std::uint64_t idle_since_ns = 0;
    std::uint64_t steal_req_ns = 0;
  };

  /// PE `pe`'s counter block. Bump it only on that PE's loop thread.
  util::CounterBlock& counters(comm::PeId pe) {
    return *pe_state_[static_cast<std::size_t>(pe)].ctr;
  }

  static void rank_body(void* arg);
  void rank_finished(RankMpi& rm);

  comm::PeId initial_pe(int world_rank) const;

  void dispatch(comm::PeId pe, comm::Message&& msg);
  void deliver_user(comm::PeId pe, comm::Message&& msg);
  void handle_control(comm::PeId pe, comm::Message&& msg);
  void handle_migration_arrival(comm::PeId pe, comm::Message&& msg);
  /// Sends a message for a rank that is not resident on `pe` after it: to
  /// the rank's recorded location, or back into `pe`'s own mailbox while
  /// that location still says `pe` (its image is in flight to us).
  void chase_rank(comm::PeId pe, comm::Message&& msg);
  /// Completes `dst`'s matched receive `post` with message `msg`, whose
  /// bytes are `data`/`bytes` (a match on the dispatcher or at post time,
  /// or an inline hit when `in_sender`: the sender's own ULT, which may
  /// throw a mismatch diagnosis straight away instead of parking it on
  /// dst.pending_check).
  void complete_recv(RankMpi& dst, const RecvPost& post,
                     const comm::Message& msg, const void* data,
                     std::size_t bytes, bool in_sender);
  /// complete_recv for `dst`, as the completion MatchQueues calls.
  auto completer(RankMpi& dst, bool in_sender) {
    return [this, &dst, in_sender](const RecvPost& post,
                                   const comm::Message& msg,
                                   const void* data, std::size_t bytes) {
      complete_recv(dst, post, msg, data, bytes, in_sender);
    };
  }
  /// A stamped p2p pair the checker found mismatched at match time (`v`):
  /// `msg` carried `bytes` into `dst`'s receive `post`. Records the located
  /// diagnosis and returns it.
  std::string p2p_mismatch(check::P2pVerdict v, const RankMpi& dst,
                           const RecvPost& post, const comm::Message& msg,
                           std::size_t bytes);
  void wake_if_waiting(RankMpi& rm,
                       ult::Lane lane = ult::Lane::Normal);

  // --- idle-PE rank stealing (fast complement to epoch LB) -----------------
  /// Idle-hook half: after steal_idle_us of genuine idleness (empty mailbox,
  /// empty runqueue, nothing resident runnable) pick the most-loaded victim
  /// and request one rank (kCtlStealRequest). At most one request in flight.
  void maybe_steal(comm::PeId pe);
  /// Victim half: pick the busiest ready, unentangled resident rank,
  /// dequeue and ship it to the thief (kMigSteal), or answer
  /// kCtlStealNack when nothing is stealable.
  void handle_steal_request(comm::PeId pe, comm::PeId thief);

  /// Same-PE inline delivery: when the destination rank is co-resident,
  /// hands the stamped envelope `m` and the sender's bytes straight to its
  /// MatchQueues (hit: one user-buffer -> user-buffer copy; miss or hold: a
  /// pooled copy), bypassing the mailbox entirely. Returns false, with `m`
  /// untouched, when the routed path must be used instead.
  bool try_inline_send(RankMpi& rm, comm::Message& m, const void* data,
                       std::size_t bytes);
  /// Wakes a collective peer parked in a group-block wait: directly when it
  /// is resident on the calling PE thread, else via a kCtlCollWake control
  /// message processed on its own PE thread (cross-thread ready() would
  /// race with the peer's suspend).
  void wake_coll_member(comm::PeId my_pe, RankMpi& member);

  /// One rank's part in one hierarchical collective call: its view of the
  /// communicator's grouping plus the group-block protocol every hier_*
  /// body is built on (collectives_hier.cpp).
  class HierCall;
  // Hierarchical collectives (collectives_hier.cpp). Each returns true if
  // the hierarchical algorithm ran; false = caller falls through to the
  // naive algorithm (e.g. non-contiguous grouping for order-sensitive ops).
  bool hier_barrier(RankMpi& rm, CommId comm);
  bool hier_bcast(RankMpi& rm, void* buf, std::size_t bytes, int root,
                  CommId comm);
  bool hier_reduce(RankMpi& rm, const void* sbuf, void* rbuf, int count,
                   Datatype dt, const Op& op, int root, CommId comm);
  bool hier_allreduce(RankMpi& rm, const void* sbuf, void* rbuf, int count,
                      Datatype dt, const Op& op, CommId comm);
  bool hier_scan(RankMpi& rm, const void* sbuf, void* rbuf, int count,
                 Datatype dt, const Op& op, CommId comm);
  // Vector collectives: co-resident ranks deposit/withdraw through the
  // shared block (rank-indexed offsets derived from the topology), and the
  // group agents hand whole per-member blocks over in the agents' block.
  bool hier_gather(RankMpi& rm, const void* sbuf, std::size_t sblock,
                   void* rbuf, int root, CommId comm);
  bool hier_gatherv(RankMpi& rm, const void* sbuf, std::size_t sbytes,
                    void* rbuf, const int* rcounts, const int* displs,
                    std::size_t resize, int root, CommId comm);
  bool hier_scatter(RankMpi& rm, const void* sbuf, std::size_t sblock,
                    void* rbuf, int root, CommId comm);
  bool hier_scatterv(RankMpi& rm, const void* sbuf, const int* scounts,
                     const int* displs, std::size_t sesize, void* rbuf,
                     std::size_t rbytes, int root, CommId comm);
  bool hier_allgather(RankMpi& rm, const void* sbuf, std::size_t sblock,
                      void* rbuf, CommId comm);
  bool hier_alltoall(RankMpi& rm, const void* sbuf, std::size_t sblock,
                     void* rbuf, std::size_t rblock, CommId comm);
  /// The grouping of `comm` under rm's placement view (cached per epoch).
  std::shared_ptr<const CommTopo> comm_topo(RankMpi& rm, CommId comm);

  /// Throws a CheckFailed diagnosis the dispatcher parked on rm (it cannot
  /// throw into rank context itself); no-op when none is pending.
  void throw_pending_check(RankMpi& rm);

  /// Prints every rank's wait state and every PE's queue depths to stderr.
  /// Called from the wait_finish timeout path so a wedged job leaves a
  /// usable post-mortem instead of a bare "deadlock?" error.
  void dump_stuck_state();

  void close_run_slice(comm::PeId pe);

  /// A runtime control envelope (`tag` carries the epoch or the thief id).
  static comm::Message control(CtlOp op, comm::PeId src, comm::PeId dst,
                               comm::RankId rank = -1, std::int32_t tag = 0);
  /// Parks the calling rank (block_current with `then`) until a restore or
  /// an adoption rewinds its stack to the checkpoint suspension; never
  /// returns.
  [[noreturn]] void park_until_rewound(RankMpi& rm,
                                       std::function<void()> then);

  // --- rank movement: every move is built from these steps ----------------
  /// Takes `rm` off `pe`: the privatizer's departure hook and the resident
  /// map.
  void leave(comm::PeId pe, RankMpi& rm);
  /// Whether a move from PE `from` to PE `to` carries the rank's slot
  /// image: only between nodes. The PEs of one node share one address
  /// space, where the slot already sits at its own addresses.
  bool carries_image(comm::PeId from, comm::PeId to) const;
  /// Moves the parked `rm` from `pe` to `dest`: settles the run slice,
  /// flushes `pe`'s aggregation bins, leaves, packs when carries_image,
  /// publishes the new location, then sends the migration envelope as
  /// `op`.
  void ship(comm::PeId pe, RankMpi& rm, comm::PeId dest, MigOp op);
  /// Rewrites rm's slot wholesale from `images` (a full base first, then
  /// deltas in order), with the write barrier disarmed and the next
  /// checkpoint forced full. Returns the bytes unpacked.
  std::size_t overwrite(RankMpi& rm, std::span<const comm::Payload> images);
  /// Makes `rm` resident on `pe`: the privatizer's arrival hook, the
  /// resident map and rm.resident_pe.
  void admit(comm::PeId pe, RankMpi& rm);
  /// Resumes a rank whose slot was just overwritten with a checkpoint
  /// image inside its checkpoint suspension, flagged as restored.
  void resume_restored(comm::PeId pe, RankMpi& rm);

  /// Packs the parked `rm` on `pe` as checkpoint `epoch`, stored on `pe`
  /// and, when `buddy`, on buddy_of(pe) too; then readies it. Runs as the
  /// rank's park continuation.
  void pack_checkpoint(comm::PeId pe, RankMpi& rm, std::uint32_t epoch,
                       bool buddy);
  /// kCtlFtAdopt on the new host `pe`: moves FT victim `rank` off its dead
  /// PE, overwrites its slot with its `epoch` buddy chain and resumes it.
  void perform_ft_adopt(comm::PeId pe, comm::RankId rank, std::uint32_t epoch);
  /// Survivor-side recovery protocol (ft_glue.cpp): survivor barrier, then
  /// the leader declares the PE dead, waits for its loop to exit,
  /// re-places the lost ranks via the LB strategy, and dispatches adopt
  /// commands to their new hosts.
  void recover_from_failure(RankMpi& rm, comm::PeId victim,
                            std::uint32_t epoch);
  /// The next live PE after `pe` (cyclic): where its buddy copies go.
  comm::PeId buddy_of(comm::PeId pe) const;

  const img::ProgramImage* image_;
  RuntimeConfig config_;

  std::unique_ptr<iso::IsoArena> arena_;
  std::unique_ptr<comm::Cluster> cluster_;
  std::vector<std::unique_ptr<img::Loader>> loaders_;      // per node
  std::vector<std::unique_ptr<core::Privatizer>> privs_;   // per node
  std::unique_ptr<CommTable> comms_;
  ApiTable api_{};

  std::vector<std::unique_ptr<RankMpi>> ranks_;
  std::vector<PeState> pe_state_;

  /// Per-PE EWMA of run-slice duration (ns, alpha = 1/8) — the "recent
  /// per-ULT service time" feeding latency-aware steal victim ranking.
  /// Written only by the owning PE's loop thread in close_run_slice;
  /// thieves read it relaxed as an advisory snapshot, exactly like the
  /// ready-depth counters. Kept out of PeState so that stays movable.
  std::unique_ptr<std::atomic<std::uint64_t>[]> service_ewma_ns_;

  bool inline_enabled_ = true;  ///< comm.inline: same-PE inline delivery
  bool coll_hier_ = true;       ///< coll.algo: "hier" (default) or "naive"
  /// Group-block registry (collectives_hier.cpp). shared_ptr: the deleter
  /// is type-erased there, so the type can stay incomplete here.
  struct CollHierState;
  std::shared_ptr<CollHierState> hier_;
  void init_hier_state();

  iso::PackMode pack_mode_ = iso::PackMode::Touched;

  double init_time_s_ = 0.0;
  bool started_ = false;
  std::atomic<int> live_ranks_{0};
  std::mutex finish_mutex_;
  std::condition_variable finish_cv_;

  // Runtime correctness checker (check.mode != off). check_on_ caches
  // enabled() for the per-message fast path; fail_fast_ (abort mode) makes
  // wait_finish return on the first rank failure instead of draining the
  // job; any_failed_ is its wake flag.
  std::unique_ptr<check::Checker> checker_;
  bool check_on_ = false;
  bool fail_fast_ = false;
  std::atomic<bool> any_failed_{false};
  bool dump_counters_ = false;  ///< util.dump_counters: JSON line at finish

  // Idle-PE rank stealing (sched.steal / APV_SCHED_STEAL): off by default.
  bool steal_on_ = false;
  std::uint64_t steal_idle_ns_ = 0;  ///< sched.steal_idle_us * 1000

  // Fault tolerance: versioned buddy checkpoint store + optional injector.
  std::unique_ptr<ft::CheckpointStore> ckpt_store_;
  std::unique_ptr<ft::FaultInjector> injector_;

  // Incremental checkpointing (ft.delta): write-barrier tracker + policy.
  std::unique_ptr<iso::DirtyTracker> dirty_tracker_;
  std::uint32_t ckpt_full_every_ = 8;  ///< ft.full_every: full-image cadence

  friend class Env;
};

}  // namespace apv::mpi
