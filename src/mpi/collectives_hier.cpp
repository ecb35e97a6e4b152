// Hierarchical (two-level, PE-leader) collective algorithms.
//
// Co-resident ranks — grouped by each rank's placement_view, which is
// identical across ranks by construction — combine through a per-group
// shared contribution block with no messages at all; one agent per group
// (its leader, the lowest comm-local index, or the root of a rooted op in
// the root's own group) runs the inter-PE phase with the other agents.
// With V ranks on P PEs this turns O(V log V) collective messages into
// O(P log P) plus memcpys, which is the whole point of
// overdecomposition-aware collectives.
//
// Every algorithm's member phase is the one group-block protocol of
// Runtime::HierCall below; the bodies differ only in what members hand in,
// what the agents do with it among themselves, and what members take out.
//
// Thread-safety model: a group's members usually share one PE thread, but
// the placement view may be stale against the live location table (explicit
// migrate_to, failure recovery keep views untouched so groupings still
// agree). Blocks are therefore mutex-guarded, and a peer is woken either
// directly (when resident on the calling thread) or via a kCtlCollWake
// control message processed on its own PE thread — a cross-thread
// scheduler().ready() could race the peer's suspend, the control message
// cannot: the peer's flag-check-then-suspend runs inside one ULT slice on
// its own thread, and the dispatcher only runs between slices.
//
// A rank parked in a block wait always re-checks its predicate under the
// block mutex, so redundant or early wakes are harmless no-ops.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "mpi/runtime.hpp"
#include "util/error.hpp"

namespace apv::mpi {

/// The grouping of one communicator under a rank's placement view. Every
/// member derives the identical topology (same membership list, same view),
/// so group ids, leader choices, and fold orders agree without messages.
struct CommTopo {
  /// Groups are contiguous comm-index intervals in group-id order (true
  /// under the default block map): required by order-sensitive algorithms
  /// (non-commutative reduce, scan), which fall back to the flat
  /// implementations otherwise.
  bool ordered = false;
  int ngroups = 0;
  std::vector<int> group_of;      ///< comm-local index -> group id
  std::vector<int> pos_in_group;  ///< comm-local index -> position in group
  std::vector<std::vector<int>> members;  ///< group -> sorted local indices
  std::vector<int> leader;        ///< group -> leader's comm-local index
};

namespace {

/// Leader counts up to this skip the logarithmic inter-PE trees for
/// latency-bound (small-payload) phases: at this scale the sequential hop
/// count, not the message count, is what a small collective's latency is
/// made of. PEs are threads of one process, so instead of exchanging
/// messages the agents rendezvous in a second-level shared block (the same
/// protocol the member phase uses), keyed under kLeaderGroup.
constexpr int kFlatLeaderMax = 8;

/// Payloads at or above this many bytes leave the shared leader rendezvous
/// and, in allreduce, switch from recursive doubling to Rabenseifner
/// (reduce-scatter + allgather).
constexpr std::size_t kRabCutoff = 32768;

/// Registry group id for the inter-PE leader rendezvous block of one
/// collective instance. Member blocks use the (non-negative) group id, so
/// a negative sentinel can never collide with them under the same
/// (comm, seq) key.
constexpr int kLeaderGroup = -1;

/// leader_meet destination: every agent takes the result.
constexpr int kAllGroups = -1;

/// Per-(collective instance, group) shared contribution block.
struct GroupBlock {
  std::mutex m;
  int expected = 0;   ///< group size
  int arrived = 0;
  int departed = 0;
  bool released = false;  ///< result (or release) published by the agent
  std::vector<std::byte> acc;  ///< fold accumulator / staging / result
  std::vector<std::vector<std::byte>> slots;  ///< ordered per-member staging
  // Runtime-checker stamp of the first arriver's call shape (0 = unset;
  // kCollHier* codes are nonzero).
  std::int32_t chk_color = 0;
  std::uint64_t chk_bytes = 0;
  const char* chk_name = nullptr;
};

/// The hand-in / take-out action of a protocol step that moves no data.
struct Nothing {
  void operator()(GroupBlock&) const {}
};

/// Secondary shared-block verification, called under blk.m at every block
/// arrival. The first arriver stamps the block with its call shape; later
/// arrivals compare against it. A second line of defense behind the entry
/// gate: it also covers composite collectives' inner hierarchical phases
/// (the depth-guarded gate checks only the outermost entry), and in abort
/// mode it stops a size-divergent member before any shared-block fold or
/// copy could overrun.
void block_check(check::Checker* ck, int world_rank, int lane,
                 GroupBlock& blk, std::int32_t color, std::uint64_t bytes,
                 const char* name) {
  if (ck == nullptr) [[likely]]
    return;
  if (blk.chk_color == 0) {
    blk.chk_color = color;
    blk.chk_bytes = bytes;
    blk.chk_name = name;
    return;
  }
  const std::string diag =
      ck->block_compare(lane, world_rank, blk.chk_name, blk.chk_color,
                        blk.chk_bytes, color, name, bytes);
  if (diag.empty()) [[likely]]
    return;
  ck->record("collective-block-mismatch", world_rank, diag);
  if (ck->mode() == check::Mode::Abort)
    throw util::ApvError(util::ErrorCode::CheckFailed, diag);
}

}  // namespace

/// Registry of live group blocks, keyed (comm, collective seq, group id).
/// Entries are created by the first arriving member and erased by the last
/// departing one; shared_ptr keeps a block alive for stragglers.
///
/// Sharded by group id: all members of a group normally run on one PE
/// thread, so registry traffic stays thread-local and concurrent
/// collectives on different PEs never bounce a shared lock's cache line
/// (one global mutex here was the dominant cost of a small collective).
struct Runtime::CollHierState {
  struct alignas(64) Shard {
    std::mutex m;
    std::map<std::tuple<std::int32_t, std::uint32_t, int>,
             std::shared_ptr<GroupBlock>>
        blocks;
  };
  std::vector<Shard> shards;

  explicit CollHierState(std::size_t nshards)
      : shards(nshards == 0 ? 1 : nshards) {}

  Shard& shard_for(int group) {
    return shards[static_cast<std::size_t>(group) % shards.size()];
  }
};

void Runtime::init_hier_state() {
  hier_ = std::make_shared<CollHierState>(
      static_cast<std::size_t>(cluster_->num_pes()));
}

std::size_t Runtime::live_group_blocks() const {
  std::size_t live = 0;
  for (auto& shard : hier_->shards) {
    std::lock_guard<std::mutex> lk(shard.m);
    live += shard.blocks.size();
  }
  return live;
}

std::shared_ptr<const CommTopo> Runtime::comm_topo(RankMpi& rm, CommId comm) {
  const auto idx = static_cast<std::size_t>(comm);
  if (rm.topo_cache.size() <= idx) rm.topo_cache.resize(idx + 1);
  auto& entry = rm.topo_cache[idx];
  if (entry.second != nullptr && entry.first == rm.view_epoch)
    return entry.second;

  const CommInfo& ci = comm_info(rm, comm);
  const int n = ci.size();
  auto topo = std::make_shared<CommTopo>();
  topo->group_of.resize(static_cast<std::size_t>(n));
  topo->pos_in_group.resize(static_cast<std::size_t>(n));
  // Group ids are assigned by first appearance in comm-index order, so
  // group 0 holds index 0 and group mins increase with the id.
  std::map<comm::PeId, int> gid;
  for (int i = 0; i < n; ++i) {
    const int w = ci.world_of(i);
    const comm::PeId pe =
        static_cast<std::size_t>(w) < rm.placement_view.size()
            ? rm.placement_view[static_cast<std::size_t>(w)]
            : 0;
    auto [it, fresh] =
        gid.emplace(pe, static_cast<int>(topo->members.size()));
    if (fresh) topo->members.emplace_back();
    const int g = it->second;
    topo->group_of[static_cast<std::size_t>(i)] = g;
    topo->pos_in_group[static_cast<std::size_t>(i)] =
        static_cast<int>(topo->members[static_cast<std::size_t>(g)].size());
    topo->members[static_cast<std::size_t>(g)].push_back(i);
  }
  topo->ngroups = static_cast<int>(topo->members.size());
  topo->leader.reserve(topo->members.size());
  for (const auto& g : topo->members) topo->leader.push_back(g.front());
  topo->ordered = true;
  int next = 0;
  for (const auto& g : topo->members) {
    for (const int i : g) {
      if (i != next++) {
        topo->ordered = false;
        break;
      }
    }
    if (!topo->ordered) break;
  }
  entry = {rm.view_epoch, std::shared_ptr<const CommTopo>(topo)};
  return entry.second;
}

/// One rank's part in one hierarchical collective call: the communicator's
/// grouping as this rank sees it, bound once and read by every algorithm
/// below, and the group-block protocol every member phase is made of.
///
/// Each group has one agent, which runs the group's inter-PE phase: the
/// root itself in a rooted op's own group (so the data starts, or the
/// result lands, in the root's buffer with no staging hop), the group's
/// leader everywhere else. Every rank derives the same agents.
///
///   - deposit(): every member arrives at its group's block with its
///     contribution; the agent parks until the whole group has arrived.
///   - publish() / withdraw(): the agent publishes the group's result
///     under the block lock and wakes the members parked for it.
///   - leader_meet(): the same arrive/release protocol one level up, among
///     the L agents.
///
/// Every attachment to a shared block is detached when it goes out of
/// scope, on every return path.
class Runtime::HierCall {
 public:
  /// One attachment to a shared block: a group's member block or the
  /// leader rendezvous block. The first rank to attach registers it under
  /// (comm, seq, group); the last to detach erases it.
  class Block {
   public:
    Block(HierCall& h, int group, int expected) : h_(h), group_(group) {
      auto& shard = h.rt.hier_->shard_for(group);
      std::lock_guard<std::mutex> lk(shard.m);
      auto& blk = shard.blocks[key()];
      if (blk == nullptr) {
        blk = std::make_shared<GroupBlock>();
        blk->expected = expected;
      }
      b_ = blk;
    }
    ~Block() {
      bool last = false;
      {
        std::lock_guard<std::mutex> lk(b_->m);
        last = ++b_->departed == b_->expected;
      }
      if (!last) return;
      auto& shard = h_.rt.hier_->shard_for(group_);
      std::lock_guard<std::mutex> lk(shard.m);
      shard.blocks.erase(key());
    }
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    /// For the agent's own work on the block while no member touches it.
    GroupBlock* operator->() const { return b_.get(); }

    /// Counts this rank's arrival, under the block lock: the checker's
    /// call-shape compare first (before any copy could overrun), then
    /// `deposit`. True for the block's last arrival.
    template <class F = Nothing>
    bool arrive(F&& deposit = F{}) {
      std::lock_guard<std::mutex> lk(b_->m);
      block_check(h_.rt.checker(), h_.rm.world_rank, h_.rm.resident_pe, *b_,
                  h_.kind, h_.chk_bytes, h_.name);
      deposit(*b_);
      return ++b_->arrived == b_->expected;
    }

    /// Parks the calling rank until `ready` holds. It runs under the block
    /// lock, so whatever it copies out is read under the lock too.
    template <class P>
    void wait(P&& ready) {
      for (;;) {
        {
          std::lock_guard<std::mutex> lk(b_->m);
          if (ready(*b_)) return;
        }
        h_.rt.block_current(h_.rm);
      }
    }

    /// Parks until the block is released, then runs `take` on it.
    template <class F = Nothing>
    void await_release(F&& take = F{}) {
      wait([&](GroupBlock& b) {
        if (!b.released) return false;
        take(b);
        return true;
      });
    }

    /// Runs `publish` and releases the block in one critical section, so
    /// whatever publish wrote is visible to every rank that sees the
    /// release. Waking the waiters is the caller's part.
    template <class F = Nothing>
    void release(F&& publish = F{}) {
      std::lock_guard<std::mutex> lk(b_->m);
      publish(*b_);
      b_->released = true;
    }

   private:
    std::tuple<std::int32_t, std::uint32_t, int> key() const {
      return {static_cast<std::int32_t>(h_.comm), h_.seq, group_};
    }

    HierCall& h_;
    const int group_;
    std::shared_ptr<GroupBlock> b_;
  };

  /// `op_kind` is both the checker's block color and the agent tags' op;
  /// `shape_bytes` is the call shape the block check compares (0 where
  /// per-member sizes legitimately differ); `root_index` is a rooted op's
  /// root (-1 for the others).
  HierCall(Runtime& runtime, RankMpi& rank, CommId c, std::int32_t op_kind,
           std::uint64_t shape_bytes, const char* op_name,
           int root_index = -1)
      : rt(runtime),
        rm(rank),
        comm(c),
        kind(op_kind),
        chk_bytes(shape_bytes),
        name(op_name),
        ci(runtime.comm_info(rank, c)),
        topo(runtime.comm_topo(rank, c)),
        n(ci.size()),
        me(ci.local_of(rank.world_rank)),
        g(group_of(me)),
        members(members_of(g)),
        gsize(static_cast<int>(members.size())),
        pos(topo->pos_in_group[static_cast<std::size_t>(me)]),
        L(topo->ngroups),
        root(root_index),
        rg(root_index < 0 ? -1 : group_of(root_index)),
        agent(agent_of(g)),
        seq(rank.coll_seq_for(c)++),
        blk(*this, g, gsize) {}
  HierCall(const HierCall&) = delete;
  HierCall& operator=(const HierCall&) = delete;

  Runtime& rt;
  RankMpi& rm;
  const CommId comm;
  const std::int32_t kind;
  const std::uint64_t chk_bytes;
  const char* const name;
  const CommInfo& ci;
  const std::shared_ptr<const CommTopo> topo;
  const int n;                      ///< communicator size
  const int me;                     ///< my comm-local index
  const int g;                      ///< my group id
  const std::vector<int>& members;  ///< my group's comm-local indices
  const int gsize;
  const int pos;    ///< my position (slot) in my group
  const int L;      ///< number of groups (= agents)
  const int root;   ///< rooted ops: the root's comm-local index, else -1
  const int rg;     ///< rooted ops: the root's group, else -1
  const int agent;  ///< my group's agent (comm-local index)
  const std::uint32_t seq;
  Block blk;  ///< my group's member block (declared last: needs the above)

  int group_of(int i) const {
    return topo->group_of[static_cast<std::size_t>(i)];
  }
  const std::vector<int>& members_of(int group) const {
    return topo->members[static_cast<std::size_t>(group)];
  }
  int agent_of(int group) const {
    return group == rg ? root : topo->leader[static_cast<std::size_t>(group)];
  }

  // Rooted trees run over virtual group ids that put the root's group at
  // 0, so the standard binomial shapes apply wherever the root lives.
  int vgroup(int group) const { return ((group - rg) % L + L) % L; }
  const std::vector<int>& vmembers(int v) const {
    return members_of((v + rg) % L);
  }
  int vagent(int v) const { return agent_of((v + rg) % L); }
  /// Members in virtual groups [vlo, vhi).
  std::size_t vspan(int vlo, int vhi) const {
    std::size_t m = 0;
    for (int v = vlo; v < vhi; ++v) m += vmembers(v).size();
    return m;
  }

  int round_tag(int round) const {
    return internal_tag(kind, round & 0x3f, seq);
  }
  /// The counters of the PE this rank runs on now — looked up per use,
  /// because a rank parked mid-collective can be stolen to another PE.
  PeState& pe() const {
    return rt.pe_state_[static_cast<std::size_t>(rm.resident_pe)];
  }

  void wake(int i) const {
    rt.wake_coll_member(rm.resident_pe, rt.rank_state(ci.world_of(i)));
  }
  void wake_agents() const {
    for (int gg = 0; gg < L; ++gg) {
      if (gg != g) wake(agent_of(gg));
    }
  }

  // --- member phase -------------------------------------------------------

  /// Every member arrives with `f` run on the block. The agent then parks
  /// until the whole group has arrived and gets true; everyone else gets
  /// false at once, and the last of them wakes the agent.
  template <class F = Nothing>
  bool deposit(F&& f = F{}) {
    const bool last = blk.arrive(f);
    if (me != agent) {
      if (last) wake(agent);
      return false;
    }
    blk.wait([this](const GroupBlock& b) { return b.arrived == gsize; });
    return true;
  }

  /// Agent: publishes the group's result and wakes every other member.
  template <class F = Nothing>
  void publish(F&& f = F{}) {
    blk.release(f);
    for (const int m : members) {
      if (m != me) wake(m);
    }
  }

  /// Member: parks until the agent publishes, then runs `take`.
  template <class F = Nothing>
  void withdraw(F&& take = F{}) {
    blk.await_release(take);
  }

  /// Stages `bytes` at `data` in my slot (for use inside a deposit).
  void stage(GroupBlock& b, const void* data, std::size_t bytes) const {
    const auto* p = static_cast<const std::byte*>(data);
    b.slots.resize(static_cast<std::size_t>(gsize));
    b.slots[static_cast<std::size_t>(pos)].assign(p, p + bytes);
  }

  /// Folds `bytes` at `in` into a shared accumulator in arrival order
  /// (commutative ops only) through this rank's own code copy — user ops
  /// resolve per rank. The first arrival seeds it; true when a combine ran.
  bool fold(std::vector<std::byte>& acc, const void* in, std::size_t bytes,
            const Op& op, Datatype dt, int count) const {
    const auto* p = static_cast<const std::byte*>(in);
    if (acc.empty()) {
      acc.assign(p, p + bytes);
      return false;
    }
    rt.apply_op(rm, op, dt, p, acc.data(), count);
    return true;
  }

  // --- agent phase --------------------------------------------------------

  /// Shared leader rendezvous: the L agents meet in a second-level block
  /// (kLeaderGroup). Each runs `f` on it as it arrives and the last arrival
  /// releases it; then the agent of group `dest` (every agent for
  /// kAllGroups) runs `take` on the result, woken by the last arrival.
  template <class Fold = Nothing, class Take = Nothing>
  void leader_meet(int dest, Fold&& f = Fold{}, Take&& take = Take{}) {
    Block lb(*this, kLeaderGroup, L);
    ++pe().coll_shared_rendezvous;
    const bool last = lb.arrive([&](GroupBlock& b) {
      f(b);
      if (b.arrived + 1 == L) b.released = true;  // the last arrival
    });
    if (dest == kAllGroups || dest == g) lb.await_release(take);
    if (!last) return;
    if (dest == kAllGroups) {
      wake_agents();
    } else if (dest != g) {
      wake(agent_of(dest));
    }
  }

  // Agent-phase transport, addressed by comm-local index. Every agent
  // message is counted here (coll_send_vec counts its own chunks).
  void send(int dst, int tag, const void* data, std::size_t bytes) const {
    ++pe().coll_leader_msgs;
    rt.coll_send(rm, ci.world_of(dst), tag, data, bytes, comm);
  }
  void send_staged(int dst, int tag, const void* data,
                   std::size_t bytes) const {
    ++pe().coll_leader_msgs;
    rt.coll_send_staged(rm, ci.world_of(dst), tag, data, bytes, comm);
  }
  void send_vec(int dst, int tag, const void* data, std::size_t bytes) const {
    rt.coll_send_vec(rm, ci.world_of(dst), tag, data, bytes, comm);
  }
  void recv(int src, int tag, void* data, std::size_t bytes) const {
    rt.coll_recv(rm, ci.world_of(src), tag, data, bytes, comm);
  }
  void recv_vec(int src, int tag, void* data, std::size_t bytes) const {
    rt.coll_recv_vec(rm, ci.world_of(src), tag, data, bytes, comm);
  }
};

// ---------------------------------------------------------------------------
// Barrier

bool Runtime::hier_barrier(RankMpi& rm, CommId comm) {
  HierCall h(*this, rm, comm, kCollHierBarrier, 0, "barrier");
  const bool agent = h.deposit();
  if (!agent) {
    h.withdraw();
    return true;
  }
  const int g = h.g, L = h.L;
  if (L > 1 && L <= kFlatLeaderMax) {
    // One shared arrival counter and a cross-PE wake per sleeping agent
    // instead of L*(L-1) zero-byte tokens.
    h.leader_meet(kAllGroups);
  } else if (L > 1) {
    // Agent dissemination over groups, zero-byte tokens.
    int round = 0;
    for (int dist = 1; dist < L; dist <<= 1, ++round) {
      const int tag = h.round_tag(round);
      h.send(h.agent_of((g + dist) % L), tag, nullptr, 0);
      h.recv(h.agent_of(((g - dist) % L + L) % L), tag, nullptr, 0);
    }
  }
  h.publish();
  return true;
}

// ---------------------------------------------------------------------------
// Bcast

bool Runtime::hier_bcast(RankMpi& rm, void* buf, std::size_t bytes, int root,
                         CommId comm) {
  HierCall h(*this, rm, comm, kCollHierBcast, bytes, "bcast", root);
  h.blk.arrive();
  if (h.me != h.agent) {
    h.withdraw([&](GroupBlock& b) { std::memcpy(buf, b.acc.data(), bytes); });
    return true;
  }

  // Agent: the root holds the payload; every other agent receives it from
  // the agent tier straight into its own buffer.
  const int g = h.g, L = h.L;
  auto* data = static_cast<std::byte*>(buf);
  if (L > 1 && L <= kFlatLeaderMax && bytes < kRabCutoff) {
    // Small payloads at a small agent count: a shared hand-off block beats
    // the binomial tree (and any message fan-out) on sequential hops — the
    // root deposits once, every other agent copies out.
    HierCall::Block lb(h, kLeaderGroup, L);
    ++h.pe().coll_shared_rendezvous;
    if (g == h.rg) {
      lb.release([&](GroupBlock& b) { b.acc.assign(data, data + bytes); });
      h.wake_agents();
    } else {
      lb.await_release(
          [&](GroupBlock& b) { std::memcpy(data, b.acc.data(), bytes); });
    }
  } else {
    // Binomial tree: receive from the parent agent, then relay down the
    // subtree.
    const int v = h.vgroup(g);
    const int tag = h.round_tag(0);
    int mask = 1;
    while (mask < L && (v & mask) == 0) mask <<= 1;
    if (mask < L) h.recv(h.vagent(v - mask), tag, data, bytes);
    for (mask >>= 1; mask > 0; mask >>= 1) {
      if (v + mask < L) h.send(h.vagent(v + mask), tag, data, bytes);
    }
  }
  h.publish([&](GroupBlock& b) { b.acc.assign(data, data + bytes); });
  return true;
}

// ---------------------------------------------------------------------------
// Reduce

bool Runtime::hier_reduce(RankMpi& rm, const void* sbuf, void* rbuf,
                          int count, Datatype dt, const Op& op, int root,
                          CommId comm) {
  // Order-sensitive ops need contiguous groups; the naive fold keeps rank
  // order for any grouping.
  if (!op.commutative && !comm_topo(rm, comm)->ordered) return false;
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  HierCall h(*this, rm, comm, kCollHierReduce, bytes, "reduce", root);
  // Members hand in and leave: the root is its own group's agent, so no
  // member waits for a result.
  const bool agent = h.deposit([&](GroupBlock& b) {
    if (!op.commutative) {
      // Order-sensitive: stage per member, the agent folds in index order.
      h.stage(b, sbuf, bytes);
    } else if (h.fold(b.acc, sbuf, bytes, op, dt, count)) {
      ++h.pe().coll_local_combines;
    }
  });
  if (!agent) return true;

  const int g = h.g, L = h.L, gsize = h.gsize, rg = h.rg;
  std::vector<std::byte> acc;
  if (op.commutative) {
    acc = h.blk->acc;  // fully folded group partial
  } else {
    // In-order right fold of the staged slots (equals the left fold by
    // associativity): acc = s_0 op s_1 op ... op s_{gsize-1}.
    const auto& slots = h.blk->slots;
    acc = slots[static_cast<std::size_t>(gsize - 1)];
    for (int i = gsize - 2; i >= 0; --i) {
      apply_op(rm, op, dt, slots[static_cast<std::size_t>(i)].data(),
               acc.data(), count);
      ++h.pe().coll_local_combines;
    }
  }

  if (L > 1 && op.commutative && L <= kFlatLeaderMax &&
      bytes < kRabCutoff) {
    // Shared agent fold (arrival order — commutative ops only); only the
    // root waits for the total.
    h.leader_meet(
        rg,
        [&](GroupBlock& b) { h.fold(b.acc, acc.data(), bytes, op, dt, count); },
        [&](GroupBlock& b) { std::memcpy(acc.data(), b.acc.data(), bytes); });
  } else if (L > 1 && op.commutative) {
    // Binomial combine toward the root.
    std::vector<std::byte> incoming(bytes);
    const int v = h.vgroup(g);
    int round = 0;
    for (int mask = 1; mask < L; mask <<= 1, ++round) {
      const int tag = h.round_tag(round);
      if ((v & mask) != 0) {
        h.send(h.vagent(v - mask), tag, acc.data(), bytes);
        break;
      }
      if (v + mask < L) {
        h.recv(h.vagent(v + mask), tag, incoming.data(), bytes);
        apply_op(rm, op, dt, incoming.data(), acc.data(), count);
      }
    }
  } else if (L > 1) {
    // Order-preserving binomial fold over absolute group ids (groups are
    // contiguous index intervals in id order): result lands at group 0.
    std::vector<std::byte> incoming(bytes);
    int round = 0;
    for (int mask = 1; mask < L; mask <<= 1, ++round) {
      const int tag = h.round_tag(round);
      if ((g & mask) != 0) {
        h.send(h.agent_of(g - mask), tag, acc.data(), bytes);
        break;
      }
      if (g + mask < L) {
        h.recv(h.agent_of(g + mask), tag, incoming.data(), bytes);
        // acc covers the left interval: acc = acc op incoming.
        apply_op(rm, op, dt, acc.data(), incoming.data(), count);
        acc.swap(incoming);
      }
    }
    // Group 0's agent forwards the total to the root if the root lives
    // elsewhere.
    const int fwd_tag = h.round_tag(63);
    if (g == 0 && rg != 0) {
      h.send(root, fwd_tag, acc.data(), bytes);
    } else if (g == rg && rg != 0) {
      h.recv(h.agent_of(0), fwd_tag, acc.data(), bytes);
    }
  }

  if (g == rg) std::memcpy(rbuf, acc.data(), bytes);
  return true;
}

// ---------------------------------------------------------------------------
// Allreduce

bool Runtime::hier_allreduce(RankMpi& rm, const void* sbuf, void* rbuf,
                             int count, Datatype dt, const Op& op,
                             CommId comm) {
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  if (!op.commutative) {
    // Order-sensitive: hierarchical reduce to local root 0, then
    // hierarchical bcast (each consumes its own sequence number).
    return hier_reduce(rm, sbuf, rbuf, count, dt, op, /*root=*/0, comm) &&
           hier_bcast(rm, rbuf, bytes, /*root=*/0, comm);
  }

  HierCall h(*this, rm, comm, kCollHierAllred, bytes, "allreduce");
  const bool agent = h.deposit([&](GroupBlock& b) {
    if (h.fold(b.acc, sbuf, bytes, op, dt, count))
      ++h.pe().coll_local_combines;
  });
  if (!agent) {
    h.withdraw([&](GroupBlock& b) { std::memcpy(rbuf, b.acc.data(), bytes); });
    return true;
  }

  // Inter-PE phase among the L agents on the group partial in the block's
  // acc (members only read it after the release, so the agent works in
  // place).
  const int g = h.g, L = h.L;
  std::byte* acc = h.blk->acc.data();
  if (L > 1 && L <= kFlatLeaderMax && bytes < kRabCutoff) {
    // Shared agent fold: one sequential hop and zero agent messages, which
    // is what a latency-bound allreduce is made of at this agent count.
    h.leader_meet(
        kAllGroups,
        [&](GroupBlock& b) { h.fold(b.acc, acc, bytes, op, dt, count); },
        [&](GroupBlock& b) { std::memcpy(acc, b.acc.data(), bytes); });
  } else if (L > 1) {
    std::vector<std::byte> incoming(bytes);
    int pof2 = 1;
    while (pof2 * 2 <= L) pof2 <<= 1;
    const int rem = L - pof2;
    const std::size_t esize = datatype_size(dt);
    const int pre_tag = h.round_tag(62);
    const int post_tag = h.round_tag(61);

    // Fold the non-power-of-two remainder into the even partners first;
    // odd agents rejoin when the result is re-broadcast at the end.
    int rd = -1;  // my index within the power-of-two participant set
    if (g < 2 * rem) {
      if ((g % 2) != 0) {
        h.send(h.agent_of(g - 1), pre_tag, acc, bytes);
        h.recv(h.agent_of(g - 1), post_tag, acc, bytes);
      } else {
        h.recv(h.agent_of(g + 1), pre_tag, incoming.data(), bytes);
        apply_op(rm, op, dt, incoming.data(), acc, count);
        rd = g / 2;
      }
    } else {
      rd = g - rem;
    }

    auto agent_of_rd = [&](int r) {
      return h.agent_of(r < rem ? 2 * r : r + rem);
    };

    if (rd >= 0 && pof2 > 1) {
      const bool use_rab = bytes >= kRabCutoff && count >= pof2;
      if (!use_rab) {
        // Recursive doubling: log2(pof2) pairwise exchange-and-fold rounds.
        int round = 0;
        for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
          const int partner = agent_of_rd(rd ^ mask);
          const int tag = h.round_tag(round);
          h.send(partner, tag, acc, bytes);
          h.recv(partner, tag, incoming.data(), bytes);
          apply_op(rm, op, dt, incoming.data(), acc, count);
        }
      } else {
        // Rabenseifner: reduce-scatter by recursive halving, then
        // allgather by recursive doubling — each agent moves ~2x the
        // payload total instead of log2(P) full copies.
        std::vector<int> cnt(static_cast<std::size_t>(pof2));
        std::vector<int> dsp(static_cast<std::size_t>(pof2) + 1, 0);
        for (int i = 0; i < pof2; ++i) {
          cnt[static_cast<std::size_t>(i)] =
              count / pof2 + (i < count % pof2 ? 1 : 0);
          dsp[static_cast<std::size_t>(i) + 1] =
              dsp[static_cast<std::size_t>(i)] +
              cnt[static_cast<std::size_t>(i)];
        }
        auto range_bytes = [&](int lo, int hi) {
          return static_cast<std::size_t>(dsp[static_cast<std::size_t>(hi)] -
                                          dsp[static_cast<std::size_t>(lo)]) *
                 esize;
        };
        auto range_ptr = [&](int lo) {
          return acc +
                 static_cast<std::size_t>(dsp[static_cast<std::size_t>(lo)]) *
                     esize;
        };
        // Reduce-scatter: my chunk window halves every round.
        std::vector<std::pair<int, int>> windows;  // window before each split
        int lo = 0, hi = pof2;
        int round = 0;
        for (int mask = pof2 >> 1; mask > 0; mask >>= 1, ++round) {
          const int partner = agent_of_rd(rd ^ mask);
          const int mid = (lo + hi) / 2;
          windows.emplace_back(lo, hi);
          int keep_lo, keep_hi, send_lo, send_hi;
          if ((rd & mask) == 0) {  // I am the lower half: keep [lo, mid)
            keep_lo = lo, keep_hi = mid, send_lo = mid, send_hi = hi;
          } else {
            keep_lo = mid, keep_hi = hi, send_lo = lo, send_hi = mid;
          }
          const int tag = internal_tag(kCollHierRabRs, round & 0x3f, h.seq);
          h.send(partner, tag, range_ptr(send_lo),
                 range_bytes(send_lo, send_hi));
          std::vector<std::byte> part(range_bytes(keep_lo, keep_hi));
          h.recv(partner, tag, part.data(), part.size());
          apply_op(rm, op, dt, part.data(), range_ptr(keep_lo),
                   dsp[static_cast<std::size_t>(keep_hi)] -
                       dsp[static_cast<std::size_t>(keep_lo)]);
          lo = keep_lo;
          hi = keep_hi;
        }
        // Allgather: replay the windows in reverse, swapping halves.
        for (int r = static_cast<int>(windows.size()) - 1; r >= 0; --r) {
          const int mask = pof2 >> (r + 1);
          const int partner = agent_of_rd(rd ^ mask);
          const auto [wlo, whi] = windows[static_cast<std::size_t>(r)];
          // My current window is my kept half of [wlo, whi); the partner
          // holds the other half, fully reduced.
          const int olo = lo == wlo ? hi : wlo;
          const int ohi = lo == wlo ? whi : lo;
          const int tag = internal_tag(kCollHierRabAg, r & 0x3f, h.seq);
          h.send(partner, tag, range_ptr(lo), range_bytes(lo, hi));
          h.recv(partner, tag, range_ptr(olo), range_bytes(olo, ohi));
          lo = wlo;
          hi = whi;
        }
      }
      if (g < 2 * rem) h.send(h.agent_of(g + 1), post_tag, acc, bytes);
    }
  }

  std::memcpy(rbuf, acc, bytes);
  h.publish();
  return true;
}

// ---------------------------------------------------------------------------
// Scan

bool Runtime::hier_scan(RankMpi& rm, const void* sbuf, void* rbuf, int count,
                        Datatype dt, const Op& op, CommId comm) {
  if (!comm_topo(rm, comm)->ordered) return false;  // prefix needs intervals
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  HierCall h(*this, rm, comm, kCollHierScan, bytes, "scan");
  const auto slot = static_cast<std::size_t>(h.pos);
  const bool agent =
      h.deposit([&](GroupBlock& b) { h.stage(b, sbuf, bytes); });
  if (!agent) {
    h.withdraw([&](GroupBlock& b) {
      std::memcpy(rbuf, b.slots[slot].data(), bytes);
    });
    return true;
  }

  // Group-local inclusive prefixes, in index order (slot i becomes
  // s_0 op ... op s_i); the last slot is the group total.
  const int g = h.g, L = h.L, gsize = h.gsize;
  auto& slots = h.blk->slots;
  for (int i = 1; i < gsize; ++i) {
    apply_op(rm, op, dt, slots[static_cast<std::size_t>(i - 1)].data(),
             slots[static_cast<std::size_t>(i)].data(), count);
    ++h.pe().coll_local_combines;
  }

  // Serial agent chain carrying the exclusive prefix of whole groups:
  // L-1 messages instead of n-1.
  const int tag = h.round_tag(0);
  std::vector<std::byte> excl;
  if (g > 0) {
    excl.resize(bytes);
    h.recv(h.agent_of(g - 1), tag, excl.data(), bytes);
  }
  if (g + 1 < L) {
    std::vector<std::byte> carry = slots[static_cast<std::size_t>(gsize - 1)];
    if (g > 0) {
      // carry = excl op group_total.
      apply_op(rm, op, dt, excl.data(), carry.data(), count);
    }
    h.send(h.agent_of(g + 1), tag, carry.data(), bytes);
  }
  h.publish([&](GroupBlock& b) {
    if (g > 0) {
      for (auto& s : b.slots)
        apply_op(rm, op, dt, excl.data(), s.data(), count);
    }
    std::memcpy(rbuf, b.slots[slot].data(), bytes);
  });
  return true;
}

// ---------------------------------------------------------------------------
// Vector collectives. Gather-side members are fire-and-forget: the agent's
// attachment keeps the slots alive, so a contributing member is done the
// moment its deposit lands.
//
// The uniform ops select by size: once a single contribution exceeds the
// vector cutoff the operation is copy-bound, and staging it through the
// agent only adds memcpys without reducing bytes on the wire. Every rank
// evaluates the same uniform predicate, so all fall back together.

// ---------------------------------------------------------------------------
// Gatherv

bool Runtime::hier_gatherv(RankMpi& rm, const void* sbuf, std::size_t sbytes,
                           void* rbuf, const int* rcounts, const int* displs,
                           std::size_t resize, int root, CommId comm) {
  // Checked bytes 0: per-member contribution sizes legitimately differ.
  HierCall h(*this, rm, comm, kCollHierGather, 0, "gatherv", root);
  const bool agent =
      h.deposit([&](GroupBlock& b) { h.stage(b, sbuf, sbytes); });
  h.pe().coll_vec_bytes += sbytes;
  if (!agent) return true;
  const int L = h.L, gsize = h.gsize, rg = h.rg;
  const auto& slots = h.blk->slots;

  if (h.g != rg) {
    // Non-root group agent: ship [length table][concatenated data] to the
    // root. Member sizes are only known here (the count table lives at the
    // root), so the inter-PE phase is direct sends — a combining tree
    // could not size its intermediate buffers.
    std::vector<std::uint64_t> lens;
    std::vector<std::byte> agg;
    for (const auto& s : slots) {
      lens.push_back(s.size());
      agg.insert(agg.end(), s.begin(), s.end());
    }
    h.send_staged(root, h.round_tag(0), lens.data(),
                  lens.size() * sizeof(std::uint64_t));
    h.send_vec(root, h.round_tag(1), agg.data(), agg.size());
    return true;
  }

  // Root: own group's contributions come straight out of the shared slots;
  // remote groups arrive as [lengths][data] from each agent. Length irecvs
  // are pre-posted for every group before any data is drained.
  auto* rp = static_cast<std::byte*>(rbuf);
  auto dst_of = [&](int i) {
    return rp + static_cast<std::size_t>(displs[i]) * resize;
  };
  auto cap_of = [&](int i) {
    return static_cast<std::size_t>(rcounts[i]) * resize;
  };
  for (int j = 0; j < gsize; ++j) {
    const int i = h.members[static_cast<std::size_t>(j)];
    const auto& s = slots[static_cast<std::size_t>(j)];
    std::memcpy(dst_of(i), s.data(), std::min(s.size(), cap_of(i)));
  }
  std::vector<std::vector<std::uint64_t>> lens(static_cast<std::size_t>(L));
  std::vector<Request> lreqs(static_cast<std::size_t>(L), kRequestNull);
  for (int gg = 0; gg < L; ++gg) {
    if (gg == rg) continue;
    auto& gl = lens[static_cast<std::size_t>(gg)];
    gl.resize(h.members_of(gg).size());
    lreqs[static_cast<std::size_t>(gg)] =
        do_irecv(rm, gl.data(), gl.size() * sizeof(std::uint64_t),
                 h.agent_of(gg), h.round_tag(0), comm);
  }
  for (int gg = 0; gg < L; ++gg) {
    if (gg == rg) continue;
    do_wait(rm, lreqs[static_cast<std::size_t>(gg)]);
    const auto& gm = h.members_of(gg);
    const auto& gl = lens[static_cast<std::size_t>(gg)];
    std::size_t total = 0;
    for (const std::uint64_t l : gl) total += l;
    std::vector<std::byte> agg(total);
    h.recv_vec(h.agent_of(gg), h.round_tag(1), agg.data(), total);
    std::size_t off = 0;
    for (std::size_t j = 0; j < gm.size(); ++j) {
      const auto l = static_cast<std::size_t>(gl[j]);
      std::memcpy(dst_of(gm[j]), agg.data() + off,
                  std::min(l, cap_of(gm[j])));
      off += l;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Gather (uniform block)

bool Runtime::hier_gather(RankMpi& rm, const void* sbuf, std::size_t sblock,
                          void* rbuf, int root, CommId comm) {
  if (sblock > vec_cutoff_) return false;  // copy-bound: flat path
  HierCall h(*this, rm, comm, kCollHierGather, sblock, "gather", root);
  const bool agent =
      h.deposit([&](GroupBlock& b) { h.stage(b, sbuf, sblock); });
  h.pe().coll_vec_bytes += sblock;
  if (!agent) return true;
  const int g = h.g, L = h.L, gsize = h.gsize, rg = h.rg;
  const auto& slots = h.blk->slots;
  const int vg = h.vgroup(g);
  const std::size_t total = static_cast<std::size_t>(h.n) * sblock;
  auto* rp = static_cast<std::byte*>(rbuf);

  if (total <= vec_cutoff_ || L == 1) {
    // Eager: binomial combine toward virtual group 0. The node at vg
    // accumulates the contiguous virtual interval [vg, vg+2^k); every
    // intermediate buffer size is computable from the shared topology,
    // which is what makes a combining tree possible for uniform blocks.
    std::vector<std::byte> vbuf;
    vbuf.reserve(vg == 0 ? total
                         : h.vspan(vg, std::min(2 * vg, L)) * sblock);
    for (const auto& s : slots) vbuf.insert(vbuf.end(), s.begin(), s.end());
    int round = 0;
    for (int mask = 1; mask < L; mask <<= 1, ++round) {
      const int tag = h.round_tag(2 + round);
      if ((vg & mask) != 0) {
        h.send_vec(h.vagent(vg - mask), tag, vbuf.data(), vbuf.size());
        break;
      }
      const int clo = vg + mask;
      if (clo < L) {
        const std::size_t add =
            h.vspan(clo, std::min(clo + mask, L)) * sblock;
        const std::size_t old = vbuf.size();
        vbuf.resize(old + add);
        h.recv_vec(h.vagent(clo), tag, vbuf.data() + old, add);
      }
    }
    if (vg == 0) {
      // Unpack virtual order back to comm-index placement.
      std::size_t off = 0;
      for (int v = 0; v < L; ++v) {
        for (const int i : h.vmembers(v)) {
          std::memcpy(rp + static_cast<std::size_t>(i) * sblock,
                      vbuf.data() + off, sblock);
          off += sblock;
        }
      }
    }
  } else if (g != rg) {
    // Chunked: direct agent->root shipment of the PE-aggregate.
    std::vector<std::byte> agg;
    agg.reserve(static_cast<std::size_t>(gsize) * sblock);
    for (const auto& s : slots) agg.insert(agg.end(), s.begin(), s.end());
    h.send_vec(root, h.round_tag(1), agg.data(), agg.size());
  } else {
    for (int j = 0; j < gsize; ++j) {
      const int i = h.members[static_cast<std::size_t>(j)];
      std::memcpy(rp + static_cast<std::size_t>(i) * sblock,
                  slots[static_cast<std::size_t>(j)].data(), sblock);
    }
    for (int gg = 0; gg < L; ++gg) {
      if (gg == rg) continue;
      const auto& gm = h.members_of(gg);
      const std::size_t gb = gm.size() * sblock;
      const int tag = h.round_tag(1);
      if (h.topo->ordered) {
        // Group members are one contiguous comm-index interval: the
        // aggregate lands straight in rbuf with no intermediate buffer.
        h.recv_vec(h.agent_of(gg), tag,
                   rp + static_cast<std::size_t>(gm.front()) * sblock, gb);
      } else {
        std::vector<std::byte> agg(gb);
        h.recv_vec(h.agent_of(gg), tag, agg.data(), gb);
        for (std::size_t j = 0; j < gm.size(); ++j) {
          std::memcpy(rp + static_cast<std::size_t>(gm[j]) * sblock,
                      agg.data() + j * sblock, sblock);
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Scatterv

bool Runtime::hier_scatterv(RankMpi& rm, const void* sbuf, const int* scounts,
                            const int* displs, std::size_t sesize, void* rbuf,
                            std::size_t rbytes, int root, CommId comm) {
  HierCall h(*this, rm, comm, kCollHierScatter, 0, "scatterv", root);
  h.blk.arrive();
  const auto slot = static_cast<std::size_t>(h.pos);
  if (h.me != h.agent) {
    // Members park until the agent deposits the per-member slices.
    h.withdraw([&](GroupBlock& b) {
      const auto& s = b.slots[slot];
      const std::size_t len = std::min(s.size(), rbytes);
      std::memcpy(rbuf, s.data(), len);
      h.pe().coll_vec_bytes += len;
    });
    return true;
  }

  // My group's slices in member order: straight out of sbuf at the root,
  // out of the root's [lengths][data] shipment at any other agent.
  const int L = h.L, gsize = h.gsize, rg = h.rg;
  std::vector<std::pair<const std::byte*, std::size_t>> mine(
      static_cast<std::size_t>(gsize));
  std::vector<std::byte> agg;
  if (h.g == rg) {
    const auto* sp = static_cast<const std::byte*>(sbuf);
    auto slice = [&](int i) {
      return std::pair{sp + static_cast<std::size_t>(displs[i]) * sesize,
                       static_cast<std::size_t>(scounts[i]) * sesize};
    };
    for (int gg = 0; gg < L; ++gg) {
      if (gg == rg) continue;
      std::vector<std::uint64_t> lens;
      std::vector<std::byte> out;
      for (const int i : h.members_of(gg)) {
        const auto [p, len] = slice(i);
        lens.push_back(len);
        out.insert(out.end(), p, p + len);
      }
      h.send_staged(h.agent_of(gg), h.round_tag(0), lens.data(),
                    lens.size() * sizeof(std::uint64_t));
      h.send_vec(h.agent_of(gg), h.round_tag(1), out.data(), out.size());
    }
    for (int j = 0; j < gsize; ++j)
      mine[static_cast<std::size_t>(j)] =
          slice(h.members[static_cast<std::size_t>(j)]);
  } else {
    std::vector<std::uint64_t> lens(static_cast<std::size_t>(gsize));
    h.recv(root, h.round_tag(0), lens.data(),
           lens.size() * sizeof(std::uint64_t));
    std::size_t total = 0;
    for (const std::uint64_t l : lens) total += l;
    agg.resize(total);
    h.recv_vec(root, h.round_tag(1), agg.data(), total);
    std::size_t off = 0;
    for (int j = 0; j < gsize; ++j) {
      const auto len =
          static_cast<std::size_t>(lens[static_cast<std::size_t>(j)]);
      mine[static_cast<std::size_t>(j)] = {agg.data() + off, len};
      off += len;
    }
  }
  // Publish the slices; my own goes straight to rbuf.
  h.publish([&](GroupBlock& b) {
    b.slots.resize(static_cast<std::size_t>(gsize));
    for (int j = 0; j < gsize; ++j) {
      const auto [p, len] = mine[static_cast<std::size_t>(j)];
      if (static_cast<std::size_t>(j) == slot) {
        std::memcpy(rbuf, p, std::min(len, rbytes));
      } else {
        b.slots[static_cast<std::size_t>(j)].assign(p, p + len);
        h.pe().coll_vec_bytes += len;
      }
    }
  });
  return true;
}

// ---------------------------------------------------------------------------
// Scatter (uniform block)

bool Runtime::hier_scatter(RankMpi& rm, const void* sbuf, std::size_t sblock,
                           void* rbuf, int root, CommId comm) {
  if (sblock > vec_cutoff_) return false;  // copy-bound: flat path
  HierCall h(*this, rm, comm, kCollHierScatter, sblock, "scatter", root);
  h.blk.arrive();
  const auto slot = static_cast<std::size_t>(h.pos);
  if (h.me != h.agent) {
    h.withdraw([&](GroupBlock& b) {
      std::memcpy(rbuf, b.slots[slot].data(), sblock);
      h.pe().coll_vec_bytes += sblock;
    });
    return true;
  }

  const int g = h.g, L = h.L, gsize = h.gsize, rg = h.rg;
  const int vg = h.vgroup(g);
  const std::size_t total = static_cast<std::size_t>(h.n) * sblock;
  const auto* sp = static_cast<const std::byte*>(sbuf);

  // My group's chunk, in member-pos order, ends up in `mine`.
  std::vector<std::byte> mine;
  if (total <= vec_cutoff_ || L == 1) {
    // Eager: binomial scatter down the virtual tree. A node receives its
    // whole subtree span in one message and relays halves; sizes all come
    // from the shared topology.
    std::vector<std::byte> vbuf;
    int span_hi;
    int recv_mask;
    if (vg == 0) {
      span_hi = L;
      recv_mask = 1;
      while (recv_mask < L) recv_mask <<= 1;
      vbuf.reserve(total);
      for (int v = 0; v < L; ++v) {
        for (const int i : h.vmembers(v)) {
          const auto* p = sp + static_cast<std::size_t>(i) * sblock;
          vbuf.insert(vbuf.end(), p, p + sblock);
        }
      }
    } else {
      int round = 0;
      recv_mask = 1;
      while ((vg & recv_mask) == 0) {
        recv_mask <<= 1;
        ++round;
      }
      span_hi = std::min(vg + recv_mask, L);
      vbuf.resize(h.vspan(vg, span_hi) * sblock);
      h.recv_vec(h.vagent(vg - recv_mask), h.round_tag(2 + round),
                 vbuf.data(), vbuf.size());
    }
    int round = 0;
    for (int m = 1; m < recv_mask; m <<= 1) ++round;
    for (int m = recv_mask >> 1; m > 0; m >>= 1) {
      --round;
      const int clo = vg + m;
      if (clo < span_hi) {
        const int chi = std::min(vg + 2 * m, span_hi);
        const std::size_t off = h.vspan(vg, clo) * sblock;
        h.send_vec(h.vagent(clo), h.round_tag(2 + round), vbuf.data() + off,
                   h.vspan(clo, chi) * sblock);
      }
    }
    mine.assign(vbuf.begin(),
                vbuf.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(gsize) * sblock));
  } else if (g == rg) {
    // Chunked: direct per-agent shipments; an ordered topology lets the
    // root send straight out of sbuf (each group is one contiguous run).
    for (int gg = 0; gg < L; ++gg) {
      if (gg == rg) continue;
      const auto& gm = h.members_of(gg);
      const std::size_t gb = gm.size() * sblock;
      const int tag = h.round_tag(1);
      if (h.topo->ordered) {
        h.send_vec(h.agent_of(gg), tag,
                   sp + static_cast<std::size_t>(gm.front()) * sblock, gb);
      } else {
        std::vector<std::byte> agg;
        agg.reserve(gb);
        for (const int i : gm) {
          const auto* p = sp + static_cast<std::size_t>(i) * sblock;
          agg.insert(agg.end(), p, p + sblock);
        }
        h.send_vec(h.agent_of(gg), tag, agg.data(), gb);
      }
    }
    mine.reserve(static_cast<std::size_t>(gsize) * sblock);
    for (const int i : h.members) {
      const auto* p = sp + static_cast<std::size_t>(i) * sblock;
      mine.insert(mine.end(), p, p + sblock);
    }
  } else {
    mine.resize(static_cast<std::size_t>(gsize) * sblock);
    h.recv_vec(root, h.round_tag(1), mine.data(), mine.size());
  }

  h.publish([&](GroupBlock& b) {
    b.slots.resize(static_cast<std::size_t>(gsize));
    for (int j = 0; j < gsize; ++j) {
      const auto* p = mine.data() + static_cast<std::size_t>(j) * sblock;
      if (static_cast<std::size_t>(j) == slot) {
        std::memcpy(rbuf, p, sblock);
      } else {
        b.slots[static_cast<std::size_t>(j)].assign(p, p + sblock);
        h.pe().coll_vec_bytes += sblock;
      }
    }
  });
  return true;
}

// ---------------------------------------------------------------------------
// Allgather (uniform block)

bool Runtime::hier_allgather(RankMpi& rm, const void* sbuf,
                             std::size_t sblock, void* rbuf, CommId comm) {
  if (sblock > vec_cutoff_) return false;  // copy-bound: flat path
  HierCall h(*this, rm, comm, kCollHierAllgather, sblock, "allgather");
  const std::size_t total = static_cast<std::size_t>(h.n) * sblock;
  const bool agent =
      h.deposit([&](GroupBlock& b) { h.stage(b, sbuf, sblock); });
  h.pe().coll_vec_bytes += sblock;
  if (!agent) {
    h.withdraw([&](GroupBlock& b) { std::memcpy(rbuf, b.acc.data(), total); });
    return true;
  }

  // have[gg] = group gg's PE-aggregate (member-pos order), filled by the
  // inter-PE exchange.
  const int g = h.g, L = h.L;
  auto gbytes = [&](int gg) { return h.members_of(gg).size() * sblock; };
  std::vector<std::vector<std::byte>> have(static_cast<std::size_t>(L));
  {
    auto& own = have[static_cast<std::size_t>(g)];
    own.reserve(gbytes(g));
    for (const auto& s : h.blk->slots)
      own.insert(own.end(), s.begin(), s.end());
  }
  if (L > 1 && total <= vec_cutoff_) {
    // Eager: Bruck dissemination over groups — ceil(log2 L) steps, each
    // moving the concatenation of everything held so far.
    int round = 0;
    for (int d = 1; d < L; d <<= 1, ++round) {
      const int cnt = std::min(d, L - d);
      const int to = (g - d + L) % L;
      const int from = (g + d) % L;
      const int tag = h.round_tag(round);
      std::vector<std::byte> out;
      for (int v = 0; v < cnt; ++v) {
        const auto& held = have[static_cast<std::size_t>((g + v) % L)];
        out.insert(out.end(), held.begin(), held.end());
      }
      h.send_vec(h.agent_of(to), tag, out.data(), out.size());
      std::size_t rb = 0;
      for (int v = 0; v < cnt; ++v) rb += gbytes((from + v) % L);
      std::vector<std::byte> in(rb);
      h.recv_vec(h.agent_of(from), tag, in.data(), rb);
      std::size_t off = 0;
      for (int v = 0; v < cnt; ++v) {
        const int gg = (from + v) % L;
        have[static_cast<std::size_t>(gg)].assign(
            in.data() + off, in.data() + off + gbytes(gg));
        off += gbytes(gg);
      }
    }
  } else if (L > 1) {
    // Chunked: ring — L-1 steps, each forwarding one group aggregate, so
    // at most one aggregate is in flight per agent at a time.
    for (int s = 1; s < L; ++s) {
      const int to = (g + 1) % L;
      const int from = (g - 1 + L) % L;
      const int fwd = (g - s + 1 + L) % L;  // aggregate to pass along
      const int gain = (g - s + L) % L;     // aggregate arriving this step
      const int tag = h.round_tag(s);
      auto& out = have[static_cast<std::size_t>(fwd)];
      auto& in = have[static_cast<std::size_t>(gain)];
      h.send_vec(h.agent_of(to), tag, out.data(), out.size());
      in.resize(gbytes(gain));
      h.recv_vec(h.agent_of(from), tag, in.data(), in.size());
    }
  }

  // Publish the full result in comm-index order; members copy it out.
  h.publish([&](GroupBlock& b) {
    b.acc.resize(total);
    for (int gg = 0; gg < L; ++gg) {
      const auto& gm = h.members_of(gg);
      for (std::size_t j = 0; j < gm.size(); ++j) {
        std::memcpy(b.acc.data() + static_cast<std::size_t>(gm[j]) * sblock,
                    have[static_cast<std::size_t>(gg)].data() + j * sblock,
                    sblock);
      }
    }
    std::memcpy(rbuf, b.acc.data(), total);
  });
  return true;
}

// ---------------------------------------------------------------------------
// Alltoall (uniform block)

bool Runtime::hier_alltoall(RankMpi& rm, const void* sbuf, std::size_t sblock,
                            void* rbuf, std::size_t rblock, CommId comm) {
  if (sblock > vec_cutoff_) return false;  // copy-bound: flat path
  HierCall h(*this, rm, comm, kCollHierAlltoall, sblock, "alltoall");
  const int n = h.n;
  // The block's acc holds gsize rows of n blocks: row t is member t's full
  // inbox in comm-index order.
  const std::size_t row = static_cast<std::size_t>(n) * sblock;
  const bool agent =
      h.deposit([&](GroupBlock& b) { h.stage(b, sbuf, row); });
  h.pe().coll_vec_bytes += row;

  const std::size_t my_row = static_cast<std::size_t>(h.pos) * row;
  auto copy_row_out = [&](const std::byte* r) {
    auto* rp = static_cast<std::byte*>(rbuf);
    const std::size_t blkmin = std::min(sblock, rblock);
    for (int i = 0; i < n; ++i) {
      std::memcpy(rp + static_cast<std::size_t>(i) * rblock,
                  r + static_cast<std::size_t>(i) * sblock, blkmin);
    }
  };
  if (!agent) {
    h.withdraw([&](GroupBlock& b) { copy_row_out(b.acc.data() + my_row); });
    return true;
  }

  const int g = h.g, L = h.L, gsize = h.gsize;
  const auto& slots = h.blk->slots;
  auto& acc = h.blk->acc;
  acc.resize(static_cast<std::size_t>(gsize) * row);
  // Aggregate for destination group gg: [dst member t][src member s] of
  // per-pair blocks — one message per PE pair instead of one per rank pair.
  auto assemble = [&](int gg) {
    const auto& gm = h.members_of(gg);
    std::vector<std::byte> a(gm.size() * static_cast<std::size_t>(gsize) *
                             sblock);
    std::size_t off = 0;
    for (const int dst : gm) {
      for (const auto& s : slots) {
        std::memcpy(a.data() + off,
                    s.data() + static_cast<std::size_t>(dst) * sblock, sblock);
        off += sblock;
      }
    }
    return a;
  };
  // Places an aggregate from source group sg (laid out [my member t][sg
  // member s]) into the result rows.
  auto place = [&](int sg, const std::vector<std::byte>& a) {
    const auto& gm = h.members_of(sg);
    std::size_t off = 0;
    for (int t = 0; t < gsize; ++t) {
      for (const int src : gm) {
        std::memcpy(acc.data() + static_cast<std::size_t>(t) * row +
                        static_cast<std::size_t>(src) * sblock,
                    a.data() + off, sblock);
        off += sblock;
      }
    }
  };

  // Shifted pairwise exchange over the L agents (the same schedule as the
  // naive alltoall, but over PE-pair aggregates).
  place(g, assemble(g));
  for (int s = 1; s < L; ++s) {
    const int dg = (g + s) % L;
    const int sg = (g - s + L) % L;
    const int tag = h.round_tag(s);
    const std::vector<std::byte> out = assemble(dg);
    h.send_vec(h.agent_of(dg), tag, out.data(), out.size());
    std::vector<std::byte> in(h.members_of(sg).size() *
                              static_cast<std::size_t>(gsize) * sblock);
    h.recv_vec(h.agent_of(sg), tag, in.data(), in.size());
    place(sg, in);
  }

  copy_row_out(acc.data() + my_row);
  h.publish();
  return true;
}

}  // namespace apv::mpi
