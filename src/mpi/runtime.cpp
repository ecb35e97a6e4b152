#include "mpi/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "check/wait_graph.hpp"
#include "lb/strategy.hpp"
#include "mpi/api_shim.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace apv::mpi {

using util::ApvError;
using util::Ctr;
using util::ErrorCode;
using util::require;

Runtime::Runtime(const img::ProgramImage& image, RuntimeConfig config)
    : image_(&image), config_(std::move(config)) {
  require(config_.vps >= 1, ErrorCode::InvalidArgument, "need >= 1 VP");
  require(config_.nodes >= 1 && config_.pes_per_node >= 1,
          ErrorCode::InvalidArgument, "need >= 1 node and PE");
  // Validate the entry point up front for a clear error.
  image.func_id(config_.entry);

  const util::WallTimer init_timer;

  iso::IsoArena::Config ac;
  ac.slot_size = config_.slot_bytes;
  ac.max_slots = static_cast<std::size_t>(config_.vps) + 4;
  arena_ = std::make_unique<iso::IsoArena>(ac);

  comm::Cluster::Config cc;
  cc.nodes = config_.nodes;
  cc.pes_per_node = config_.pes_per_node;
  cc.options = config_.options;
  cc.backend = config_.backend;
  cluster_ = std::make_unique<comm::Cluster>(cc);

  comms_ = std::make_unique<CommTable>(config_.vps);
  ckpt_store_ = std::make_unique<ft::CheckpointStore>();
  const ft::FaultInjector::Config fic =
      ft::FaultInjector::config_from_options(config_.options);
  if (fic.policy != ft::FaultInjector::Policy::None) {
    injector_ = std::make_unique<ft::FaultInjector>(fic, cluster_->num_pes());
  }
  const util::Options& opt = config_.options;
  pack_mode_ = opt.get_string("iso.pack") == "full" ? iso::PackMode::FullSlot
                                                     : iso::PackMode::Touched;
  // Incremental checkpointing: dirty-page tracker + delta policy. The
  // tracker also registers the SlotHeap write-notify hook so allocator
  // metadata updates pre-dirty their pages instead of faulting.
  if (opt.get_bool("ft.delta")) {
    dirty_tracker_ = std::make_unique<iso::DirtyTracker>(*arena_);
  }
  ckpt_full_every_ = static_cast<std::uint32_t>(opt.get_int("ft.full_every"));
  inline_enabled_ = opt.get_bool("comm.inline");
  coll_hier_ = opt.get_string("coll.algo") == "hier";
  // Runtime correctness checker (src/check).
  if (const std::string mode = opt.get_string("check.mode"); mode != "off") {
    const check::Mode cm =
        mode == "abort" ? check::Mode::Abort : check::Mode::Warn;
    checker_ = std::make_unique<check::Checker>(
        cm, opt.get_double("check.deadlock_s"));
    check_on_ = true;
    fail_fast_ = cm == check::Mode::Abort;
  }
  // Idle-PE rank stealing (fast complement to epoch LB).
  steal_on_ = opt.get_bool("sched.steal") && cluster_->num_pes() > 1 &&
              // sched.policy=fifo is the seed-exact escape hatch: it already
              // disarms lanes and preemption, and it dominates a suite-wide
              // APV_SCHED_STEAL=on the same way — nothing may reorder or
              // relocate ranks behind the seed schedule.
              opt.get_string("sched.policy") != "fifo";
  steal_idle_ns_ =
      static_cast<std::uint64_t>(opt.get_int("sched.steal_idle_us")) * 1000;
  dump_counters_ = opt.get_bool("util.dump_counters");
  init_hier_state();
  pack_api_table(api_);
  pe_state_.resize(static_cast<std::size_t>(cluster_->num_pes()));
  service_ewma_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(cluster_->num_pes()));
  for (int p = 0; p < cluster_->num_pes(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    pe_state_[i].ctr = &cluster_->pe(p).counters();
    service_ewma_ns_[i].store(0, std::memory_order_relaxed);
  }

  // Per-node dynamic-linker and privatization state (each emulated OS
  // process loads and privatizes the program independently).
  for (int n = 0; n < config_.nodes; ++n) {
    loaders_.push_back(std::make_unique<img::Loader>(config_.options));
    core::ProcessEnv env;
    env.process_id = n;
    env.pes_in_process = config_.pes_per_node;
    env.image = image_;
    env.loader = loaders_.back().get();
    env.arena = arena_.get();
    env.options = config_.options;
    privs_.push_back(
        std::make_unique<core::Privatizer>(config_.method, std::move(env)));
  }

  cluster_->resize_location_table(config_.vps);

  // Bring up every virtual rank: slot, heap, privatized view, ULT. If any
  // rank is refused partway (e.g. PiPglobals past the namespace cap), the
  // ones already built must be torn down here — a throwing constructor
  // never reaches ~Runtime, and RankMpi does not own its RankContext.
  ranks_.reserve(static_cast<std::size_t>(config_.vps));
  try {
  for (int r = 0; r < config_.vps; ++r) {
    const comm::PeId pe = initial_pe(r);
    const comm::NodeId node = cluster_->node_of(pe);
    auto rm = std::make_unique<RankMpi>();
    rm->world_rank = r;
    rm->resident_pe = pe;
    core::Privatizer::RankParams params;
    params.world_rank = r;
    params.body = &Runtime::rank_body;
    params.arg = rm.get();
    params.stack_size = config_.stack_bytes;
    params.backend = config_.backend;
    rm->rc = privs_[static_cast<std::size_t>(node)]->create_rank(params);
    rm->rc->user_data = rm.get();
    rm->env = std::make_unique<Env>(this, rm.get(), &api_);
    pe_state_[static_cast<std::size_t>(pe)].resident[r] = rm.get();
    cluster_->set_location(r, pe);
    ranks_.push_back(std::move(rm));
  }
  } catch (...) {
    for (auto& rm : ranks_) {
      if (rm->rc != nullptr) {
        const comm::NodeId node = cluster_->node_of(rm->resident_pe);
        privs_[static_cast<std::size_t>(node)]->destroy_rank(rm->rc);
        rm->rc = nullptr;
      }
    }
    throw;
  }

  // Seed every rank's placement view with the initial map. The views only
  // change inside do_load_balance, where all ranks deterministically compute
  // the same assignment — so hierarchical-collective groupings always agree
  // across members regardless of later ad-hoc migrations.
  {
    std::vector<comm::PeId> initial(static_cast<std::size_t>(config_.vps));
    for (int r = 0; r < config_.vps; ++r)
      initial[static_cast<std::size_t>(r)] = initial_pe(r);
    for (auto& rm : ranks_) rm->placement_view = initial;
  }

  // Stealing rides the migration machinery; methods whose segments the
  // dynamic linker allocated (PiPglobals, FSglobals) cannot move ranks at
  // all, so stealing silently stands down for them.
  if (steal_on_ && !privs_[0]->supports_migration()) {
    steal_on_ = false;
    APV_DEBUG("mpi", "rank stealing disabled: %s does not support migration",
              core::method_name(config_.method));
  }

  // Per-PE hooks: privatization switch work, load timing, and dispatch.
  for (int p = 0; p < cluster_->num_pes(); ++p) {
    comm::Pe& pe = cluster_->pe(p);
    const comm::NodeId node = cluster_->node_of(p);
    privs_[static_cast<std::size_t>(node)]->install_switch_hook(
        pe.scheduler());
    pe.scheduler().add_switch_hook([this, p](ult::Ult* next) {
      auto& ps = pe_state_[static_cast<std::size_t>(p)];
      const std::uint64_t now = util::wall_time_ns();
      if (ps.running != nullptr) {
        ps.running->add_busy_time(
            static_cast<double>(now - ps.slice_start_ns) * 1e-9);
      }
      auto* rc = next ? static_cast<core::RankContext*>(next->user_data())
                      : nullptr;
      ps.running = rc ? static_cast<RankMpi*>(rc->user_data) : nullptr;
      ps.slice_start_ns = now;
    });
    pe.set_dispatcher(
        [this, p](comm::Message&& msg) { dispatch(p, std::move(msg)); });
    pe.add_idle_hook([this, p] { close_run_slice(p); });
    if (steal_on_) pe.add_idle_hook([this, p] { maybe_steal(p); });
    // Fail-fast teardown (checker abort mode, job timeout) abandons ranks
    // parked mid-wait; their fiber stacks hold live heap objects (comm
    // topologies, reduce scratch, payload handles) that plain teardown
    // would leak. On orderly stop each PE resumes its parked residents one
    // last time with the unwind flag armed, so the suspend point throws
    // and the stack unwinds through its destructors (see UltUnwind).
    // The drain walks this PE's resident map, not ranks_: residency and
    // ULT state of residents are written only on this PE's thread, so the
    // walk is race-free even while other PEs are still winding down
    // (finished/resident_pe on ranks_ would race their owners' last acts).
    pe.set_stop_drain([this, p] {
      auto& ps = pe_state_[static_cast<std::size_t>(p)];
      ult::Scheduler& sched = cluster_->pe(p).scheduler();
      bool any = false;
      for (const auto& [rank, rm] : ps.resident) {
        ult::Ult* t = rm->rc != nullptr ? rm->rc->ult : nullptr;
        if (t == nullptr || t->state() == ult::UltState::Done) continue;
        t->request_unwind();
        // Ready/Created ULTs are already queued (start() readied every
        // rank); re-queueing would double-dispatch them.
        if (t->state() == ult::UltState::Blocked) sched.ready(t);
        any = true;
      }
      if (any) sched.run_until_quiescent();
    });
  }

  init_time_s_ = init_timer.elapsed_s();
  APV_INFO("mpi", "runtime up: %d vps on %d node(s) x %d PE(s), method=%s, "
                  "init %.3f ms",
           config_.vps, config_.nodes, config_.pes_per_node,
           core::method_name(config_.method), init_time_s_ * 1e3);
}

Runtime::~Runtime() {
  if (started_) cluster_->stop_and_join();
  // Drop every write barrier before teardown touches the slots: rank
  // destruction writes into them and release_slot flips them to PROT_NONE,
  // neither of which belongs in the dirty bitmap.
  if (dirty_tracker_ != nullptr) {
    for (iso::SlotId s = 0; s < arena_->max_slots(); ++s) {
      dirty_tracker_->disarm(s);
    }
  }
  // Destroy ranks before privatizers (rank teardown uses method state).
  for (auto& rm : ranks_) {
    if (rm->rc != nullptr) {
      const comm::NodeId node = cluster_->node_of(
          rm->resident_pe == comm::kInvalidPe ? 0 : rm->resident_pe);
      privs_[static_cast<std::size_t>(node)]->destroy_rank(rm->rc);
      rm->rc = nullptr;
    }
  }
}

comm::PeId Runtime::initial_pe(int world_rank) const {
  const int npes = cluster_->num_pes();
  if (config_.map == "rr") return world_rank % npes;
  // Block map: contiguous ranks share a PE (better halo locality).
  return static_cast<int>((static_cast<long>(world_rank) * npes) /
                          config_.vps);
}

core::Privatizer& Runtime::privatizer(comm::NodeId node) {
  require(node >= 0 && node < config_.nodes, ErrorCode::InvalidArgument,
          "bad node id");
  return *privs_[static_cast<std::size_t>(node)];
}

RankMpi& Runtime::rank_state(int world_rank) {
  require(world_rank >= 0 && world_rank < config_.vps,
          ErrorCode::InvalidArgument, "bad world rank");
  return *ranks_[static_cast<std::size_t>(world_rank)];
}

void* Runtime::rank_return(int world_rank) {
  return rank_state(world_rank).entry_ret;
}

void Runtime::rank_body(void* arg) {
  auto* rm = static_cast<RankMpi*>(arg);
  Runtime& rt = rm->env->runtime();
  try {
    // "Execution jumps into the PIE binary": resolve the entry through this
    // rank's own code copy and call it with the shim-backed Env.
    const img::FuncId entry = rt.image().func_id(rt.config().entry);
    const img::NativeFn fn = rm->rc->instance->native_at(entry);
    rm->entry_ret = fn(rm->env.get());
  } catch (const std::exception& e) {
    rm->failed = true;
    rm->failure = e.what();
    APV_ERROR("mpi", "rank %d failed: %s", rm->world_rank, e.what());
  }
  rt.rank_finished(*rm);
}

void Runtime::rank_finished(RankMpi& rm) {
  rm.finished = true;
  // Fail-fast (checker abort mode): a failed rank wakes wait_finish
  // immediately instead of letting its peers hang until the job timeout —
  // the diagnosis is already recorded and the failure already stamped.
  if (rm.failed && fail_fast_) any_failed_.store(true);
  if (live_ranks_.fetch_sub(1) == 1 || (rm.failed && fail_fast_)) {
    std::lock_guard<std::mutex> lock(finish_mutex_);
    finish_cv_.notify_all();
  }
}

void Runtime::start() {
  require(!started_, ErrorCode::BadState, "runtime already started");
  started_ = true;
  live_ranks_.store(config_.vps);
  for (auto& rm : ranks_) {
    cluster_->pe(rm->resident_pe).scheduler().ready(rm->rc->ult);
  }
  cluster_->start();
}

void Runtime::wait_finish() {
  require(started_, ErrorCode::BadState, "runtime not started");
  {
    const auto timeout_s =
        static_cast<long>(config_.options.get_int("mpi.timeout_s"));
    const double deadlock_s =
        checker_ != nullptr ? checker_->deadlock_s() : 0.0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
    std::unique_lock<std::mutex> lock(finish_mutex_);
    // Fail-fast (abort mode): the first rank failure ends the wait — its
    // CheckFailed diagnosis is the job's outcome; draining the remaining
    // ranks (now missing a collective peer) would just hang to the timeout.
    const auto finished = [this] {
      return live_ranks_.load() == 0 || (fail_fast_ && any_failed_.load());
    };
    bool done;
    if (deadlock_s <= 0.0) {
      done = finish_cv_.wait_until(lock, deadline, finished);
    } else {
      // Periodic deadlock scan (check.deadlock_s). Progress delivery is
      // synchronous in this runtime (the netmodel paces but never defers a
      // message to a timer), so "no context switch happened between two
      // consecutive scans and every unfinished rank is parked" implies no
      // progress is possible — then the wait-state graph names the culprit
      // long before the coarse job timeout would.
      std::uint64_t last_switches = ~std::uint64_t{0};
      bool prior_scan_quiet = false;
      bool reported = false;
      const auto scan_period =
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(deadlock_s));
      while (true) {
        const auto scan_at = std::chrono::steady_clock::now() + scan_period;
        done = finish_cv_.wait_until(lock, std::min(deadline, scan_at),
                                     finished);
        if (done || std::chrono::steady_clock::now() >= deadline) break;
        cluster_->shared_counters().add(Ctr::CheckDeadlockScans);
        const std::uint64_t switches =
            cluster_->totals()[Ctr::ContextSwitches];
        bool all_blocked = true;
        for (const auto& rm : ranks_) {
          // Acquire the ULT state FIRST (see ult.hpp): Blocked/Done is the
          // publication point for everything the rank wrote before parking
          // or exiting — reading waiting (and below, the wait-state
          // provenance fields) only after that acquire is what makes this
          // cross-thread scan race-free without per-field atomics. A rank
          // caught mid-transition (Running/Ready) just makes this scan
          // non-quiet; the next one re-checks.
          const ult::UltState st = rm->rc->ult->state();
          if (st == ult::UltState::Done) continue;  // finished
          if (st != ult::UltState::Blocked || !rm->waiting) {
            all_blocked = false;
            break;
          }
        }
        const bool quiet = all_blocked && switches == last_switches;
        if (quiet && prior_scan_quiet && !reported) {
          std::vector<check::RankWait> waits;
          for (const auto& rm : ranks_) {
            // all_blocked held twice in a row: every unfinished rank is
            // parked, and the acquire below publishes its provenance fields.
            if (rm->rc->ult->state() != ult::UltState::Blocked) continue;
            check::RankWait w;
            w.rank = rm->world_rank;
            w.blocked = true;
            w.in_collective = rm->coll_depth > 0;
            w.coll_name = rm->last_coll_name;
            w.coll_comm = rm->last_coll_comm;
            w.coll_seq = rm->last_coll_seq;
            w.recv_src = rm->last_post_src;
            w.recv_tag = rm->last_post_tag;
            w.recv_comm = rm->last_post_comm;
            waits.push_back(w);
          }
          const check::DeadlockReport rep = check::analyze_wait_graph(waits);
          if (rep.deadlock) {
            checker_->record("deadlock", -1, rep.message);
            reported = true;
            dump_stuck_state();
            if (checker_->mode() == check::Mode::Abort)
              throw ApvError(ErrorCode::CheckFailed, rep.message);
            // Warn mode: diagnosis recorded; keep waiting so the job can
            // still drain (or hit the ordinary timeout) as before.
          }
        }
        prior_scan_quiet = quiet;
        last_switches = switches;
      }
    }
    if (!done) {
      dump_stuck_state();
      throw ApvError(ErrorCode::Internal,
                     "job timed out: some rank never finished (deadlock?)");
    }
  }
  cluster_->stop_and_join();
  started_ = false;
  if (dump_counters_) dump_all_counters();
  for (const auto& rm : ranks_) {
    if (rm->failed)
      throw ApvError(ErrorCode::Internal, "rank " +
                                              std::to_string(rm->world_rank) +
                                              " failed: " + rm->failure);
  }
}

void Runtime::run() {
  start();
  wait_finish();
}

void Runtime::dump_stuck_state() {
  std::fprintf(stderr, "[apv:mpi] job timeout post-mortem:\n");
  for (const auto& rm : ranks_) {
    // Acquire the ULT state first: for parked (Blocked) and exited (Done)
    // ranks — i.e. every rank of a genuinely wedged job — this publishes
    // all the rank-written fields printed below (see ult.hpp). A rank
    // caught actually Running at the coarse timeout gets a best-effort
    // snapshot; the job is being torn down either way.
    const ult::UltState st = rm->rc->ult->state();
    std::fprintf(stderr,
                 "[apv:mpi]   rank %d on PE %d: state=%s waiting=%d "
                 "restore_pending=%d restored=%d "
                 "posted=%zu unexpected=%zu held=%zu epoch=%u\n",
                 rm->world_rank, rm->resident_pe, ult::ult_state_name(st),
                 rm->waiting ? 1 : 0, rm->restore_pending ? 1 : 0,
                 rm->restored ? 1 : 0, rm->match.num_posted(),
                 rm->match.num_unexpected(), rm->match.num_held(),
                 rm->ft_epoch);
    if (st == ult::UltState::Done) continue;
    // Provenance for the wedged rank: where it last entered a collective
    // and what it last posted — usually enough to name the mismatch without
    // rerunning under the checker.
    if (rm->last_coll_name != nullptr) {
      std::fprintf(stderr,
                   "[apv:mpi]     last collective: %s(comm=%d seq=%u)%s\n",
                   rm->last_coll_name, rm->last_coll_comm, rm->last_coll_seq,
                   rm->coll_depth > 0 ? " [inside it now]" : "");
    }
    if (rm->last_post_src != -2) {
      std::fprintf(stderr,
                   "[apv:mpi]     last posted recv: src=%d tag=%d comm=%d\n",
                   rm->last_post_src, rm->last_post_tag, rm->last_post_comm);
    }
    if (!rm->pending_check.empty()) {
      std::fprintf(stderr, "[apv:mpi]     undelivered check diagnosis: %s\n",
                   rm->pending_check.c_str());
    }
  }
  for (int p = 0; p < cluster_->num_pes(); ++p) {
    std::fprintf(stderr,
                 "[apv:mpi]   PE %d: failed=%d mailbox=%zu ready=%zu "
                 "binned=%zu\n",
                 p, cluster_->pe_failed(p) ? 1 : 0,
                 cluster_->pe(p).mailbox().size_approx(),
                 cluster_->pe(p).scheduler().ready_count(),
                 cluster_->pending_aggregated(p));
  }
  std::fprintf(stderr, "[apv:mpi]   dead_letters=%zu dropped=%llu\n",
               cluster_->dead_letter_count(),
               static_cast<unsigned long long>(
                   cluster_->totals()[Ctr::CommDropped]));
}

// ---------------------------------------------------------------------------
// Message dispatch (always on the destination PE's thread)

void Runtime::dispatch(comm::PeId pe, comm::Message&& msg) {
  switch (msg.kind) {
    case comm::Message::Kind::UserData:
      deliver_user(pe, std::move(msg));
      return;
    case comm::Message::Kind::Control:
      handle_control(pe, std::move(msg));
      return;
    case comm::Message::Kind::Migration:
      handle_migration_arrival(pe, std::move(msg));
      return;
    case comm::Message::Kind::Aggregate:
      // Aggregates are unbundled by Pe::drain_mailbox; the dispatcher only
      // ever sees the constituent messages.
      throw ApvError(ErrorCode::Internal,
                     "aggregate envelope reached the dispatcher");
  }
}

void Runtime::deliver_user(comm::PeId pe, comm::Message&& msg) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  auto it = ps.resident.find(msg.dst_rank);
  if (it == ps.resident.end()) {
    chase_rank(pe, std::move(msg));
    return;
  }
  RankMpi& rm = *it->second;
  // The envelope priority bit (stamped in Cluster::send, preserved through
  // aggregation) picks the wake lane: latency-critical arrivals resume
  // their rank ahead of Normal/Bulk work already queued here.
  const ult::Lane lane = msg.prio != 0 ? ult::Lane::High : ult::Lane::Normal;
  const void* data = msg.payload.data();
  const std::size_t bytes = msg.payload.size();
  if (rm.match.arrive(std::move(msg), data, bytes, completer(rm, false)) ==
      MatchQueues::Arrival::Held) {
    counters(pe).bump(Ctr::P2pHeld);
    return;
  }
  wake_if_waiting(rm, lane);
}

void Runtime::chase_rank(comm::PeId pe, comm::Message&& msg) {
  const comm::PeId loc = cluster_->location(msg.dst_rank);
  if (loc == pe) {
    // The location still says "here": the rank's state is in flight to us.
    // Requeue behind its migration message.
    cluster_->pe(pe).post(std::move(msg));
    return;
  }
  msg.dst_pe = loc;
  // Re-stamp the envelope: from here on *this* PE is the sender (the
  // netmodel and aggregation bins key off src_pe, and the original
  // sender's hop was already paid).
  msg.src_pe = pe;
  if (msg.kind == comm::Message::Kind::UserData)
    counters(pe).bump(Ctr::Forwards);
  cluster_->send(std::move(msg));
}

namespace {
[[noreturn]] void throw_truncation(std::size_t got, std::size_t cap) {
  throw util::ApvError(ErrorCode::InvalidArgument,
                       "message truncation: received " + std::to_string(got) +
                           " bytes into a " + std::to_string(cap) +
                           "-byte buffer");
}
}  // namespace

std::string Runtime::p2p_mismatch(check::P2pVerdict v, const RankMpi& dst,
                                  const RecvPost& post,
                                  const comm::Message& msg,
                                  std::size_t bytes) {
  const bool truncation = v == check::P2pVerdict::Truncation;
  const int src_world = msg.src_rank;
  std::string diag =
      std::string(truncation ? "p2p truncation" : "p2p type mismatch") +
      ": rank " + std::to_string(dst.world_rank) +
      " recv(src=" + std::to_string(comm_info(post.comm).local_of(src_world)) +
      ", tag=" + std::to_string(msg.tag) +
      ", comm=" + std::to_string(post.comm) +
      ") ";
  if (truncation) {
    diag += "has a " + std::to_string(post.max_bytes) +
            "-byte buffer but rank " + std::to_string(src_world) + " sent " +
            std::to_string(bytes) + " bytes";
  } else {
    diag += "declared element size " + std::to_string(post.esize) +
            " but rank " + std::to_string(src_world) + " declared " +
            std::to_string(msg.esize);
  }
  checker_->record(truncation ? "p2p-truncation" : "p2p-type-mismatch",
                   dst.world_rank, diag);
  return diag;
}

void Runtime::complete_recv(RankMpi& dst, const RecvPost& post,
                            const comm::Message& msg, const void* data,
                            std::size_t bytes, bool in_sender) {
  std::size_t copy_bytes = bytes;
  // Match-time type/size verification. Only user traffic both sides stamped
  // (internal collective fragments stay esize=0). The routed match runs on
  // the PE loop thread, which must not throw into rank context — a mismatch
  // is parked on dst.pending_check and thrown from the rank's next
  // do_wait/do_test/resume instead. The inline hit runs in the sender's
  // own ULT, so abort mode throws there before dst's buffer is touched.
  const bool stamped = check_on_ && msg.esize != 0 && post.esize != 0 &&
                       msg.tag < kInternalTagBase;
  if (stamped) {
    const check::P2pVerdict v =
        checker_->p2p_verify(counters(dst.resident_pe), msg.esize, bytes,
                             post.esize, post.max_bytes);
    if (v != check::P2pVerdict::Ok) [[unlikely]] {
      std::string diag = p2p_mismatch(v, dst, post, msg, bytes);
      if (checker_->mode() == check::Mode::Abort) {
        if (in_sender) throw ApvError(ErrorCode::CheckFailed, diag);
        if (dst.pending_check.empty()) dst.pending_check = std::move(diag);
      }
    }
  }
  if (copy_bytes > post.max_bytes) [[unlikely]] {
    // Unverified traffic keeps the historic hard error; verified traffic
    // already diagnosed the overflow above and delivers the truncated
    // prefix (warn mode) or aborts at the rank's next blocking call.
    if (!stamped) throw_truncation(copy_bytes, post.max_bytes);
    copy_bytes = post.max_bytes;
  }
  if (copy_bytes > 0) std::memcpy(post.buf, data, copy_bytes);
  RequestState& rs = dst.requests[static_cast<std::size_t>(post.req)];
  rs.complete = true;
  rs.status.source = comm_info(dst, post.comm).local_of(msg.src_rank);
  rs.status.tag = msg.tag;
  rs.status.count_bytes = static_cast<int>(copy_bytes);
}

void Runtime::wake_if_waiting(RankMpi& rm, ult::Lane lane) {
  // An FT victim parked for adoption waits for its image, not a message:
  // a stale wake (a late kCtlCollWake) must not resume it on its dying PE.
  if (!rm.waiting || rm.restore_pending) return;
  if (rm.rc->ult->state() != ult::UltState::Blocked) return;
  cluster_->pe(rm.resident_pe).scheduler().ready(rm.rc->ult, lane);
}

void Runtime::block_current(RankMpi& rm, std::function<void()> then) {
  rm.waiting = true;
  ult::Scheduler* sched = ult::current_scheduler();
  require(sched != nullptr && sched->current() == rm.rc->ult,
          ErrorCode::BadState, "blocking call outside the rank's ULT");
  // What this rank sent before blocking is what its peers wait on to reply:
  // ship it now rather than when the PE next goes idle. A burst still
  // leaves as one bundle per destination.
  cluster_->flush_aggregation(rm.resident_pe, comm::FlushCause::Block);
  sched->suspend(std::move(then));
  rm.waiting = false;
  throw_pending_check(rm);
}

/// Delivers a mismatch the dispatcher thread found at match time: it could
/// not throw into this rank's context, so the diagnosis waited here for the
/// rank's next blocking call / resume.
void Runtime::throw_pending_check(RankMpi& rm) {
  if (rm.pending_check.empty()) [[likely]]
    return;
  std::string diag = std::move(rm.pending_check);
  rm.pending_check.clear();
  throw ApvError(ErrorCode::CheckFailed, diag);
}

void Runtime::close_run_slice(comm::PeId pe) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  if (ps.running == nullptr) return;
  const std::uint64_t now = util::wall_time_ns();
  const std::uint64_t slice_ns = now - ps.slice_start_ns;
  ps.running->add_busy_time(static_cast<double>(slice_ns) * 1e-9);
  // Recent per-ULT service time (EWMA, alpha = 1/8): single writer (this
  // PE's loop thread); idle thieves read it to rank victims by estimated
  // queue wait instead of raw depth.
  std::atomic<std::uint64_t>& ewma =
      service_ewma_ns_[static_cast<std::size_t>(pe)];
  const std::uint64_t old = ewma.load(std::memory_order_relaxed);
  ewma.store(old == 0 ? slice_ns : old - old / 8 + slice_ns / 8,
             std::memory_order_relaxed);
  ps.running = nullptr;
  ps.slice_start_ns = now;
}

// ---------------------------------------------------------------------------
// Point-to-point

namespace {
// Cooperative-preemption safe point: send entries, matching probes, and
// collective boundaries are the places a rank is suspension-legal (its own
// scheduler, no runtime locks held) and visits often enough that a hog
// cannot outrun its quantum by much.
inline void preempt_point() {
  if (ult::Scheduler* s = ult::current_scheduler()) s->preempt_point();
}

// The world rank of a receive's communicator-local source (kAnySource
// stays a wildcard); throws InvalidArgument for a rank outside `comm`.
int world_source(const CommInfo& comm, int src) {
  return src == kAnySource ? kAnySource : comm.world_of(src);
}
}  // namespace

void Runtime::do_send(RankMpi& rm, const void* buf, std::size_t bytes,
                      int dst_local, int tag, CommId comm,
                      std::uint32_t esize) {
  preempt_point();
  // esize is one unconditional store, verified only when stamped on both
  // sides and the checker is armed. The user's bytes are copied once, into
  // the payload or the aggregation bin (a same-PE hit: straight into the
  // receive); from there they move (or are view-shared) unmodified to the
  // matching receive.
  comm::Message m;
  m.kind = comm::Message::Kind::UserData;
  m.src_pe = rm.resident_pe;
  m.src_rank = rm.world_rank;
  m.dst_rank = comm_info(rm, comm).world_of(dst_local);
  m.comm_id = comm;
  m.tag = tag;
  m.esize = esize;
  m.seq = rm.match.next_seq(m.dst_rank);
  if (try_inline_send(rm, m, buf, bytes)) return;
  m.dst_pe = cluster_->location(m.dst_rank);
  cluster_->send(std::move(m), buf, bytes);
}

bool Runtime::try_inline_send(RankMpi& rm, comm::Message& m,
                              const void* data, std::size_t bytes) {
  if (!inline_enabled_) return false;
  const comm::PeId pe = rm.resident_pe;
  // Only from the destination PE's own loop thread: everything below (the
  // peer's match queues, the wake) is single-writer state owned by that
  // thread.
  comm::Pe* cur = comm::Pe::current();
  if (cur == nullptr || cur != &cluster_->pe(pe)) return false;
  if (cluster_->location(m.dst_rank) != pe) return false;  // not co-resident
  if (cluster_->pe_failed(pe)) return false;  // keep FT divert semantics
  RankMpi& dst = rank_state(m.dst_rank);
  // resident_pe is only advanced on the owning loop thread (migration
  // arrival, FT adoption both run there), so on a match the state below is
  // ours. A rank leaving this PE is shipped by its park continuation before
  // anything else runs here, so it never shows up co-resident mid-move.
  if (dst.resident_pe != pe) return false;  // state still in flight to us
  if (dst.finished) return false;
  util::CounterBlock& ctr = counters(pe);
  // Hit: one user-buffer -> user-buffer copy, no payload, no mailbox. Miss:
  // the bytes are copied into a payload on the unexpected queue. Held: a
  // routed message from us to this rank is still in a bin, a mailbox or
  // being forwarded; the copy waits in the hold until that one lands, and
  // flushing our bins lets it drain.
  const MatchQueues::Arrival arrival =
      dst.match.arrive(std::move(m), data, bytes, completer(dst, true));
  ctr.bump(arrival == MatchQueues::Arrival::Matched ? Ctr::InlineHits
                                                    : Ctr::InlineMisses);
  ctr.bump(Ctr::InlineBytes, bytes);
  if (arrival == MatchQueues::Arrival::Held) {
    ctr.bump(Ctr::P2pHeld);
    cluster_->flush_aggregation(pe, comm::FlushCause::Order);
    return true;
  }
  // The inline path bypasses Cluster::send's prio stamp; apply the same
  // small-payload cutoff to the wake lane directly.
  wake_if_waiting(dst, bytes <= comm::kHipriBytes ? ult::Lane::High
                                                  : ult::Lane::Normal);
  return true;
}

Request Runtime::do_irecv(RankMpi& rm, void* buf, std::size_t max_bytes,
                          int src, int tag, CommId comm,
                          std::uint32_t esize) {
  const int src_world = world_source(comm_info(rm, comm), src);
  const Request req = rm.alloc_request(RequestState::Kind::Recv);
  const RecvPost post{req, buf, max_bytes, src_world, tag, comm, esize};
  if (check_on_ && tag < kInternalTagBase) {
    // Wait-graph provenance: what this rank is (about to be) blocked on.
    rm.last_post_src = src_world;
    rm.last_post_tag = tag;
    rm.last_post_comm = comm;
  }
  rm.match.post(post, completer(rm, false));
  return req;
}

Status Runtime::do_wait(RankMpi& rm, Request& req) {
  require(req != kRequestNull &&
              static_cast<std::size_t>(req) < rm.requests.size() &&
              rm.requests[static_cast<std::size_t>(req)].active,
          ErrorCode::InvalidArgument, "wait on invalid request");
  throw_pending_check(rm);
  RequestState& rs = rm.requests[static_cast<std::size_t>(req)];
  while (!rs.complete) block_current(rm);
  const Status status = rs.status;
  rs.active = false;
  req = kRequestNull;
  return status;
}

Status Runtime::do_recv(RankMpi& rm, void* buf, std::size_t max_bytes,
                        int src, int tag, CommId comm, std::uint32_t esize) {
  preempt_point();
  Request req = do_irecv(rm, buf, max_bytes, src, tag, comm, esize);
  return do_wait(rm, req);
}

bool Runtime::do_test(RankMpi& rm, Request& req, Status* status) {
  preempt_point();
  throw_pending_check(rm);
  if (req == kRequestNull) return true;
  RequestState& rs = rm.requests[static_cast<std::size_t>(req)];
  require(rs.active, ErrorCode::InvalidArgument, "test on invalid request");
  if (!rs.complete) return false;
  if (status != nullptr) *status = rs.status;
  rs.active = false;
  req = kRequestNull;
  return true;
}

bool Runtime::do_iprobe(RankMpi& rm, int src, int tag, CommId comm,
                        Status* status) {
  preempt_point();
  throw_pending_check(rm);
  const CommInfo& ci = comm_info(rm, comm);
  const comm::Message* msg = rm.match.probe(
      RecvPost{kRequestNull, nullptr, 0, world_source(ci, src), tag, comm});
  if (msg == nullptr) return false;
  if (status != nullptr) {
    status->source = ci.local_of(msg->src_rank);
    status->tag = msg->tag;
    status->count_bytes = static_cast<int>(msg->payload.size());
  }
  return true;
}

void Runtime::do_yield(RankMpi& rm) {
  (void)rm;
  ult::current_scheduler()->yield();
}

// ---------------------------------------------------------------------------
// Ops

Op Runtime::do_op_create_named(RankMpi& rm, const char* image_fn,
                               bool commutative) {
  Op op;
  op.kind = OpKind::User;
  op.commutative = commutative;
  const img::FuncId id = image_->func_id(image_fn);
  op.user.id = id;
  op.user.code_offset = image_->func(id).code_offset;
  (void)rm;
  return op;
}

Op Runtime::do_op_create(RankMpi& rm, void* fn_addr, bool commutative) {
  // The paper's PIEglobals path: the address is inside *this rank's* code
  // copy; translate it to a base-relative handle via the instance registry.
  const comm::NodeId node = cluster_->node_of(rm.resident_pe);
  Op op;
  op.kind = OpKind::User;
  op.commutative = commutative;
  op.user = core::to_handle(
      privs_[static_cast<std::size_t>(node)]->env().loader->registry(),
      fn_addr);
  return op;
}

void Runtime::apply_op(RankMpi& rm, const Op& op, Datatype dt, const void* in,
                       void* inout, int len) {
  if (op.kind != OpKind::User) {
    apply_builtin_op(op.kind, dt, in, inout, len);
    return;
  }
  auto* fn = core::fn_as<void(const void*, void*, int, Datatype)>(op.user,
                                                                  *rm.rc);
  fn(in, inout, len, dt);
}

void Runtime::combine_on_pe(comm::PeId pe, const Op& op, Datatype dt,
                            const void* in, void* inout, int len) {
  if (op.kind != OpKind::User) {
    apply_builtin_op(op.kind, dt, in, inout, len);
    return;
  }
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  if (ps.resident.empty()) {
    // Paper §3.3: "we instead require that all cores have at least one
    // virtual rank assigned to them during reduction processing with
    // PIEglobals enabled and otherwise throw a runtime error".
    throw ApvError(ErrorCode::ReductionOnEmptyPe,
                   "user-defined reduction cannot be combined on PE " +
                       std::to_string(pe) + ": no virtual ranks resident");
  }
  RankMpi& host = *ps.resident.begin()->second;
  auto* fn = core::fn_as<void(const void*, void*, int, Datatype)>(op.user,
                                                                  *host.rc);
  fn(in, inout, len, dt);
}

// ---------------------------------------------------------------------------
// Control commands

comm::Message Runtime::control(CtlOp op, comm::PeId src, comm::PeId dst,
                               comm::RankId rank, std::int32_t tag) {
  comm::Message m;
  m.kind = comm::Message::Kind::Control;
  m.opcode = op;
  m.src_pe = src;
  m.dst_pe = dst;
  m.dst_rank = rank;
  m.tag = tag;
  return m;
}

void Runtime::park_until_rewound(RankMpi& rm, std::function<void()> then) {
  // This suspension never "returns" here: the unpack (`then` for a
  // restore, the adopter for an FT victim) rewinds the ULT's stack to the
  // checkpoint suspension, and execution resumes inside do_checkpoint or
  // do_checkpoint_all with rm.restored set instead.
  block_current(rm, std::move(then));
  throw ApvError(ErrorCode::Internal,
                 "rank resumed past its rewound stack frame");
}

// ---------------------------------------------------------------------------
// Migration, checkpoint/restart

void Runtime::do_migrate_to(RankMpi& rm, comm::PeId dest) {
  require(dest >= 0 && dest < cluster_->num_pes(), ErrorCode::InvalidArgument,
          "migration destination PE out of range");
  require(!cluster_->pe_failed(dest), ErrorCode::InvalidArgument,
          "migration destination PE " + std::to_string(dest) + " has failed");
  if (dest == rm.resident_pe) return;
  const comm::NodeId src_node = cluster_->node_of(rm.resident_pe);
  auto& priv = *privs_[static_cast<std::size_t>(src_node)];
  require(priv.supports_migration(), ErrorCode::MigrationRefused,
          std::string(core::method_name(priv.kind())) +
              " cannot migrate ranks: its segment copies were allocated by "
              "the dynamic linker, not Isomalloc");
  // Park; our PE ships us, and the destination PE resumes us.
  const comm::PeId pe = rm.resident_pe;
  block_current(rm, [this, &rm, pe, dest] { ship(pe, rm, dest, kMigPlain); });
}

void Runtime::handle_control(comm::PeId pe, comm::Message&& msg) {
  switch (msg.opcode) {
    case kCtlFtAdopt:
      perform_ft_adopt(pe, msg.dst_rank, static_cast<std::uint32_t>(msg.tag));
      return;
    case kCtlCollWake: {
      auto& ps = pe_state_[static_cast<std::size_t>(pe)];
      auto it = ps.resident.find(msg.dst_rank);
      if (it != ps.resident.end()) {
        wake_if_waiting(*it->second, ult::Lane::High);
        return;
      }
      // The rank moved on (migration/adoption). A wake that arrives after
      // the rank already observed its release flag is a harmless no-op
      // wherever it lands; one for a rank on its way here is dropped, as
      // every arrival readies the rank, which then re-checks its flag.
      if (cluster_->location(msg.dst_rank) != pe)
        chase_rank(pe, std::move(msg));
      return;
    }
    case kCtlStealRequest:
      handle_steal_request(pe, static_cast<comm::PeId>(msg.tag));
      return;
    case kCtlStealNack: {
      // Victim had nothing stealable. Clear the in-flight marker and
      // restart the idle clock: the thief re-arms only after another full
      // idle period, which doubles as backoff.
      auto& ps = pe_state_[static_cast<std::size_t>(pe)];
      ps.ctr->bump(Ctr::SchedStealFails);
      ps.steal_req_ns = 0;
      ps.idle_since_ns = 0;
      return;
    }
    default:
      throw ApvError(ErrorCode::Internal, "unknown control opcode");
  }
}

void Runtime::wake_coll_member(comm::PeId my_pe, RankMpi& member) {
  // The release/arrival flag the member re-checks was published (under the
  // group block's mutex) before this call, so a wake that races the
  // member's own progress is at worst redundant — never lost: on its own
  // thread the member's check-then-suspend cannot interleave with the
  // dispatcher handling the wake message.
  //
  // The same-PE test keys on THIS PE's own resident map — single-writer,
  // mutated only on this thread — not on member.resident_pe: that field is
  // written by the destination PE's arrival handler when the member
  // migrates mid-collective (steal), and reading it here would race
  // (found by TSan). A member that already left simply takes the message
  // path below, routed by the live location table.
  if (comm::Pe::current() == &cluster_->pe(my_pe) &&
      pe_state_[static_cast<std::size_t>(my_pe)].resident.count(
          member.world_rank) != 0) {
    wake_if_waiting(member, ult::Lane::High);
    return;
  }
  cluster_->send(control(kCtlCollWake, my_pe,
                         cluster_->location(member.world_rank),
                         member.world_rank));
}

// ---------------------------------------------------------------------------
// Rank movement
//
// Every move of a rank's state is built from the same steps: migrate_to and
// LB epochs (ship, then admit on arrival), steals (ship as kMigSteal),
// checkpoint restore (overwrite in place) and FT adoption (leave the dead
// PE, overwrite, admit). A fix to one kind of move is a fix to all of them.
//
// Only a move between nodes carries an image (carries_image): the PEs of one
// node are threads of one process, where the rank's slot already sits at its
// own addresses, so a move within a node ships the envelope alone and the
// arrival admits the rank without touching its slot. The write barrier
// stays armed across such a move, and the next checkpoint may be a delta.

bool Runtime::carries_image(comm::PeId from, comm::PeId to) const {
  return cluster_->node_of(from) != cluster_->node_of(to);
}

void Runtime::leave(comm::PeId pe, RankMpi& rm) {
  privs_[static_cast<std::size_t>(cluster_->node_of(pe))]->rank_departed(
      rm.rc);
  pe_state_[static_cast<std::size_t>(pe)].resident.erase(rm.world_rank);
}

void Runtime::ship(comm::PeId pe, RankMpi& rm, comm::PeId dest, MigOp op) {
  // Settle busy-time accounting before the rank can run elsewhere: if the
  // open slice still names this rank, a later idle-hook close here would
  // race the destination PE's switch hook writing the same busy_time_s
  // (found by TSan). The mailbox ship orders this close before the
  // destination's resume.
  close_run_slice(pe);
  // Per-sender FIFO across the move: sends this rank already made may still
  // sit in THIS PE's aggregation bins. Push them into the network before
  // the image ships — the rank can only send again after its arrival
  // dispatches, and every mailbox push here completes before the image's,
  // so pre-move traffic stays ahead of post-move traffic on every path.
  cluster_->flush_aggregation(pe, comm::FlushCause::Order);
  leave(pe, rm);

  comm::Message mig;
  mig.kind = comm::Message::Kind::Migration;
  mig.opcode = op;
  mig.src_pe = pe;
  mig.dst_pe = dest;
  mig.dst_rank = rm.world_rank;
  util::CounterBlock& ctr = counters(pe);
  if (carries_image(pe, dest)) {
    // The packed image moves into the payload — the bytes pack_slot
    // produced are the bytes the destination unpacks, with no intermediate
    // copy.
    util::ByteBuffer buf;
    iso::pack_slot(*arena_, rm.rc->slot, pack_mode_, buf);
    ctr.bump(Ctr::MigrationBytes, buf.size());
    mig.payload = comm::Payload::adopt(buf.take());
  }
  // Steals are deliberately not counted in Ctr::Migrations: that counter
  // means "explicit migrations the program asked for" (AMPI_Migrate / LB),
  // and steals are reported separately (Ctr::SchedStealsOut/In).
  if (op == kMigPlain) ctr.bump(Ctr::Migrations);
  // Update the location *before* the state ships so forwards head to the
  // destination and queue behind the migration message.
  cluster_->set_location(rm.world_rank, dest);
  cluster_->send(std::move(mig));
}

std::size_t Runtime::overwrite(RankMpi& rm,
                               std::span<const comm::Payload> images) {
  // The runtime is about to rewrite the slot wholesale: the write barrier
  // must not see (or fault on) the unpack, and the bitmap no longer
  // describes an interval since any stored image — next checkpoint packs a
  // full base.
  if (dirty_tracker_ != nullptr) dirty_tracker_->disarm(rm.rc->slot);
  rm.force_full_ckpt = true;
  // Unpack straight out of the payloads (an arriving image, or the store's
  // ref-counted views) — no intermediate vector, no copy.
  std::size_t bytes = 0;
  for (const comm::Payload& img : images) {
    bytes += img.size();
    util::ByteReader reader(img.data(), img.size());
    iso::unpack_slot(*arena_, rm.rc->slot, reader);
  }
  return bytes;
}

void Runtime::admit(comm::PeId pe, RankMpi& rm) {
  privs_[static_cast<std::size_t>(cluster_->node_of(pe))]->rank_arrived(
      rm.rc);
  rm.resident_pe = pe;
  pe_state_[static_cast<std::size_t>(pe)].resident[rm.world_rank] = &rm;
}

void Runtime::resume_restored(comm::PeId pe, RankMpi& rm) {
  // The ULT (stack, context, heap) is now exactly as it was inside the
  // checkpoint suspension. Flag the resume as a restore and wake it.
  rm.restored = true;
  rm.restore_pending = false;
  cluster_->pe(pe).scheduler().ready(rm.rc->ult, ult::Lane::High);
}

void Runtime::handle_migration_arrival(comm::PeId pe, comm::Message&& msg) {
  RankMpi& rm = rank_state(msg.dst_rank);
  if (carries_image(msg.src_pe, pe)) overwrite(rm, {&msg.payload, 1});
  admit(pe, rm);
  if (msg.opcode == kMigSteal) {
    // A stolen rank arriving answers this PE's own steal request: settle
    // the in-flight marker and the idle clock (we have work now).
    auto& ps = pe_state_[static_cast<std::size_t>(pe)];
    ps.ctr->bump(Ctr::SchedStealsIn);
    ps.steal_req_ns = 0;
    ps.idle_since_ns = 0;
  }
  cluster_->pe(pe).scheduler().ready(rm.rc->ult);
}

// ---------------------------------------------------------------------------
// Idle-PE rank stealing
//
// The thief half runs as an idle hook on an empty PE; the victim half runs
// as a control handler on the loaded PE's own thread, so the whole protocol
// only ever touches scheduler/resident state from its owning thread. The
// transfer itself is the ordinary migration (ship) — a stolen rank keeps
// the "ranks only run on their resident PE" invariant at every step.

namespace {
// A thief gives up on a steal request unanswered for this long (5 ms).
constexpr std::uint64_t kStealTimeoutNs = 5'000'000;
}  // namespace

void Runtime::maybe_steal(comm::PeId pe) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  const std::uint64_t now = util::wall_time_ns();
  if (ps.steal_req_ns != 0) {
    // One request in flight at a time. A request (or its answer) can be
    // dropped outright when the victim dies — the timeout, not a reply, is
    // what guarantees the thief recovers.
    if (now - ps.steal_req_ns < kStealTimeoutNs) return;
    ps.ctr->bump(Ctr::SchedStealFails);
    ps.steal_req_ns = 0;
    ps.idle_since_ns = 0;
    return;
  }
  comm::Pe& mype = cluster_->pe(pe);
  if (mype.failed()) return;
  if (mype.mailbox_depth() > 0 || mype.scheduler().ready_count() > 0) {
    ps.idle_since_ns = 0;
    return;
  }
  for (const auto& [rank, rm] : ps.resident) {
    // FT interplay: a resident parked for adoption means this PE is about
    // to be declared dead, not idle — a rank pulled in now would die here.
    if (rm->restore_pending) {
      ps.idle_since_ns = 0;
      return;
    }
  }
  if (ps.idle_since_ns == 0) {
    ps.idle_since_ns = now;
    return;
  }
  if (now - ps.idle_since_ns < steal_idle_ns_) return;
  // Genuinely idle past the threshold: pick the PE whose backlog will take
  // longest to drain — ready depth weighted by that PE's recent per-ULT
  // service time (EWMA maintained in close_run_slice). Depths and service
  // times are relaxed cross-thread reads of each scheduler's split counters
  // (see Scheduler::ready_count) and may be stale or momentarily torn
  // between the two cells; that is sound here because the values only
  // *rank* victims — the steal itself is a request message the victim
  // re-validates against its authoritative queue before any rank moves
  // (handle_steal_request nacks when nothing is actually stealable).
  std::vector<std::size_t> depth(static_cast<std::size_t>(
      cluster_->num_pes()));
  std::vector<std::uint64_t> service(static_cast<std::size_t>(
      cluster_->num_pes()));
  for (int p = 0; p < cluster_->num_pes(); ++p) {
    depth[static_cast<std::size_t>(p)] =
        (p == pe || cluster_->pe_failed(p))
            ? 0
            : cluster_->pe(p).scheduler().ready_count();
    service[static_cast<std::size_t>(p)] =
        service_ewma_ns_[static_cast<std::size_t>(p)].load(
            std::memory_order_relaxed);
  }
  const int victim = lb::pick_steal_victim(depth, service, pe,
                                           /*min_ready=*/1);
  if (victim < 0) return;
  ps.ctr->bump(Ctr::SchedStealRequests);
  ps.steal_req_ns = now;
  // The thief id travels in the tag.
  cluster_->send(control(kCtlStealRequest, pe, victim, -1, pe));
}

void Runtime::handle_steal_request(comm::PeId pe, comm::PeId thief) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  close_run_slice(pe);  // settle busy-time accounting before choosing
  const auto nack = [&] {
    cluster_->send(control(kCtlStealNack, pe, thief));
  };
  if (thief < 0 || thief >= cluster_->num_pes() || thief == pe ||
      cluster_->pe_failed(thief) || cluster_->pe_failed(pe)) {
    if (thief >= 0 && thief < cluster_->num_pes() &&
        !cluster_->pe_failed(thief)) {
      nack();
    }
    return;
  }
  ult::Scheduler& sched = cluster_->pe(pe).scheduler();
  // Candidates: ready (queued, not running, not blocked), not parked in a
  // blocking call (a rank its park continuation readied, as a checkpoint
  // pack does, still counts as waiting until it resumes), not entangled in
  // a collective (group blocks and gate shards hold per-PE references), and
  // not this PE's only resident. The busiest candidate goes — it is the one
  // most worth running elsewhere.
  RankMpi* best = nullptr;
  for (const auto& [rank, rm] : ps.resident) {
    if (rm->finished || rm->failed || rm->waiting) continue;
    if (rm->coll_depth > 0) continue;
    if (rm->rc->ult->state() != ult::UltState::Ready) continue;
    if (best == nullptr || rm->busy_time() > best->busy_time()) best = rm;
  }
  // unqueue fails when the pick raced with dispatch (it is running right
  // now): nothing to hand over this round.
  if (best == nullptr || ps.resident.size() < 2 ||
      !sched.unqueue(best->rc->ult)) {
    nack();
    return;
  }
  ps.ctr->bump(Ctr::SchedStealsOut);
  // Once shipped the rank is no longer resident here, so a late message or
  // kCtlCollWake chases it instead of readying it.
  ship(pe, *best, thief, kMigSteal);
  APV_DEBUG("mpi", "PE %d: rank %d stolen by idle PE %d", pe,
            best->world_rank, thief);
}

int Runtime::do_checkpoint(RankMpi& rm) {
  rm.restored = false;
  const std::uint32_t epoch = ++rm.ft_epoch;
  const comm::PeId pe = rm.resident_pe;
  block_current(rm, [this, &rm, pe, epoch] {
    pack_checkpoint(pe, rm, epoch, /*buddy=*/false);
  });
  // After a restore, execution rewinds to the suspension above and resumes
  // here with rm.restored set — the setjmp/longjmp shape of
  // checkpoint-based fault tolerance.
  return rm.restored ? 1 : 0;
}

void Runtime::pack_checkpoint(comm::PeId pe, RankMpi& rm, std::uint32_t epoch,
                              bool buddy) {
  const comm::RankId rank = rm.world_rank;
  util::CounterBlock& ctr = counters(pe);
  const iso::SlotId slot = rm.rc->slot;
  // Delta is eligible only when tracking covered the whole interval since
  // the previous image: the tracker is armed, nothing rewrote the slot
  // wholesale (force_full_ckpt), the base image still survives, and the
  // chain has not reached the full-image cadence.
  const bool want_delta =
      dirty_tracker_ != nullptr && !rm.force_full_ckpt &&
      dirty_tracker_->armed(slot) && rm.last_ckpt_epoch != 0 &&
      rm.ckpt_chain_len + 1 < ckpt_full_every_ &&
      ckpt_store_->has(rank, rm.last_ckpt_epoch);

  util::ByteBuffer buf;
  std::size_t dirty_pages = 0;
  if (want_delta) {
    const std::size_t prefix = iso::packed_payload_size(*arena_, slot,
                                                        pack_mode_);
    const auto regions = dirty_tracker_->dirty_regions(slot, prefix);
    for (const iso::DirtyRegion& r : regions) {
      dirty_pages += (r.len + iso::DirtyTracker::page_size() - 1) /
                     iso::DirtyTracker::page_size();
    }
    iso::pack_slot_delta(*arena_, slot, regions, rm.last_ckpt_epoch, buf);
  } else {
    iso::pack_slot(*arena_, slot, pack_mode_, buf);
  }

  std::vector<comm::PeId> owners{pe};
  if (buddy) {
    const comm::PeId b = buddy_of(pe);
    if (b != pe) owners.push_back(b);
  }
  const std::size_t packed_bytes = buf.size();
  if (want_delta) {
    ckpt_store_->put_delta(rank, epoch, rm.last_ckpt_epoch, pe, owners,
                           std::move(buf));
    ctr.bump(Ctr::CkptImagesDelta);
    ctr.bump(Ctr::CkptBytesDelta, packed_bytes);
    ctr.bump(Ctr::CkptPagesDirty, dirty_pages);
    ++rm.ckpt_chain_len;
  } else {
    ckpt_store_->put(rank, epoch, pe, owners, std::move(buf));
    ctr.bump(Ctr::CkptImagesFull);
    ctr.bump(Ctr::CkptBytesFull, packed_bytes);
    rm.ckpt_chain_len = 0;
    rm.force_full_ckpt = false;
  }
  rm.last_ckpt_epoch = epoch;
  if (!buddy) {
    // Non-collective checkpoints version per rank: the image just taken
    // supersedes this rank's older epochs immediately (the store keeps
    // chain links the new image still depends on). Collective epochs
    // retire globally once the whole epoch commits (do_checkpoint_all).
    ckpt_store_->retire_rank_before(rank, epoch);
  }
  // Snapshot taken: clear the bitmap and restart write tracking so the
  // next epoch's delta covers exactly the writes from here on.
  if (dirty_tracker_ != nullptr) dirty_tracker_->arm(slot);
  cluster_->pe(pe).scheduler().ready(rm.rc->ult, ult::Lane::High);
}

int Runtime::do_restore(RankMpi& rm) {
  const int rank = rm.world_rank;
  const std::uint32_t epoch = ckpt_store_->latest_epoch(rank);
  require(epoch != 0, ErrorCode::NotFound,
          "no checkpoint taken for rank " + std::to_string(rank));
  // Materialize the epoch: the full base first, then each delta in order.
  std::vector<comm::Payload> chain;
  require(ckpt_store_->fetch_chain(rank, epoch, chain), ErrorCode::NotFound,
          "checkpoint image lost for rank " + std::to_string(rank) +
              " epoch " + std::to_string(epoch));
  // The continuation owns the chain: the unpack abandons this frame, so
  // nothing left on it would ever be destroyed.
  const comm::PeId pe = rm.resident_pe;
  park_until_rewound(rm, [this, &rm, pe, chain = std::move(chain)] {
    overwrite(rm, chain);
    resume_restored(pe, rm);
  });
}

comm::PeId Runtime::buddy_of(comm::PeId pe) const {
  const int n = cluster_->num_pes();
  for (int d = 1; d < n; ++d) {
    const comm::PeId b = (pe + d) % n;
    if (!cluster_->pe_failed(b)) return b;
  }
  return pe;  // single live PE: no distinct buddy exists
}

void Runtime::perform_ft_adopt(comm::PeId pe, comm::RankId rank,
                               std::uint32_t epoch) {
  RankMpi& rm = rank_state(rank);
  // The recovery leader sent this only once the victim had parked with its
  // epoch image stored and the dead PE's loop had exited, so the parked
  // ULT, the dead PE's resident map and the privatizer's per-rank state
  // are ours to take over (recover_from_failure has the ordering).
  leave(rm.resident_pe, rm);

  // Pull the surviving buddy chain over and unpack it over the slot (full
  // base, then deltas in order): the rank is now bit-for-bit at the epoch
  // state, hosted here. The views are ref-counted — no copy is made to
  // serve them. The recovery leader already published this PE as the
  // rank's location.
  std::vector<comm::Payload> chain;
  require(ckpt_store_->fetch_chain(rank, epoch, chain), ErrorCode::Internal,
          "buddy checkpoint copy vanished during adoption");
  const std::size_t chain_bytes = overwrite(rm, chain);
  admit(pe, rm);
  counters(pe).bump(Ctr::Recoveries);
  counters(pe).bump(Ctr::RecoveryBytes, chain_bytes);
  APV_INFO("ft", "rank %d adopted by PE %d from buddy copy (epoch %u, "
                 "%zu image(s), %zu bytes)",
           rank, pe, epoch, chain.size(), chain_bytes);
  resume_restored(pe, rm);
}

void Runtime::do_compute(RankMpi& rm, double seconds) {
  (void)rm;
  // Spin: models CPU-bound application work; accrues into the rank's
  // busy-time slice via the scheduler timing hook. Spun in bounded chunks
  // with a preempt point between them, so a long compute() cannot starve
  // its PE when sched.preempt is armed — and only time actually spent
  // spinning counts as work (a preemption gap does not shrink the job).
  constexpr std::uint64_t kChunkNs = 10 * 1000;
  auto remaining_ns = static_cast<std::int64_t>(seconds * 1e9);
  while (remaining_ns > 0) {
    const std::uint64_t t0 = util::wall_time_ns();
    const std::uint64_t chunk_end =
        t0 + std::min<std::int64_t>(remaining_ns,
                                    static_cast<std::int64_t>(kChunkNs));
    while (util::wall_time_ns() < chunk_end) {
    }
    remaining_ns -= static_cast<std::int64_t>(chunk_end - t0);
    preempt_point();
  }
}

core::VarAccess Runtime::bind_global(const RankMpi& rm,
                                     const std::string& name) const {
  const comm::NodeId node = cluster_->node_of(rm.resident_pe);
  return privs_[static_cast<std::size_t>(node)]->bind(name);
}

// ---------------------------------------------------------------------------
// Runtime correctness checker glue

void Runtime::coll_gate_entry(RankMpi& rm, const char* name,
                              std::int32_t color, CommId comm,
                              std::uint32_t seq, int root, int opkind,
                              std::uint32_t esize, std::uint64_t bytes,
                              int expected) {
  check::CollDesc d;
  d.color = color;
  d.root = root;
  d.op = opkind;
  d.esize = esize;
  d.bytes = bytes;
  std::string mismatch = checker_->coll_gate(
      counters(rm.resident_pe), rm.world_rank, name, comm, seq, expected, d);
  if (mismatch.empty()) [[likely]]
    return;
  checker_->record("collective-mismatch", rm.world_rank, mismatch);
  // Gates run in the calling rank's own ULT context, so abort can throw
  // straight out of the collective entry.
  if (checker_->mode() == check::Mode::Abort)
    throw ApvError(ErrorCode::CheckFailed, mismatch);
}

util::Counters Runtime::all_counters() const {
  util::Counters c;
  const util::CounterValues totals = cluster_->totals();
  for (std::size_t i = 0; i < util::kCtrCount; ++i) {
    const auto id = static_cast<Ctr>(i);
    c.set(std::string(util::counter_spec(id).name), totals[id]);
  }
  std::uint64_t ring = 0;
  std::uint64_t overflow = 0;
  for (int p = 0; p < cluster_->num_pes(); ++p) {
    ring += cluster_->pe(p).mailbox().ring_pushes();
    overflow += cluster_->pe(p).mailbox().overflow_pushes();
  }
  c.set("comm.mailbox_ring_pushes", ring);
  c.set("comm.mailbox_overflow_pushes", overflow);
  const comm::PoolStats pool = comm::pool::stats();
  c.set("pool.hits", pool.hits);
  c.set("pool.misses", pool.misses);
  c.set("pool.adopted", pool.adopted);
  c.set("pool.returns", pool.returns);
  c.set("pool.drops", pool.drops);
  c.set("pool.bytes_copied", pool.bytes_copied);
  if (dirty_tracker_ != nullptr) {
    c.set("ckpt_tracker_faults", dirty_tracker_->faults());
    c.set("ckpt_tracker_predirtied", dirty_tracker_->pre_dirtied());
  }
  c.set("ckpt_store_puts", ckpt_store_->puts());
  c.set("ckpt_store_fetches", ckpt_store_->fetches());
  if (checker_ != nullptr)
    c.set("check_diagnoses", checker_->diagnosis_count());
  return c;
}

void Runtime::dump_all_counters() const {
  std::fprintf(stderr, "[apv:counters] %s\n", all_counters().to_json().c_str());
}

}  // namespace apv::mpi
