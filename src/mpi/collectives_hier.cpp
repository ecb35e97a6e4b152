// Hierarchical (two-level, PE-leader) collective algorithms.
//
// Co-resident ranks — grouped by each rank's placement_view, which is
// identical across ranks by construction — combine through a per-group
// shared contribution block with no messages at all; one agent per group
// (its leader, the lowest comm-local index, or the root of a rooted op in
// the root's own group) then meets the other agents in a second-level
// shared block the same way. PEs are threads of one process, so no
// collective here sends a message: with V ranks on P PEs each one costs
// V + P block arrivals, at most P cross-PE wakes, and memcpys.
//
// Every algorithm is the one group-block protocol of Runtime::HierCall
// below, run once among each group's members and once among the agents;
// the bodies differ only in what they hand in and what they take out.
//
// Thread-safety model: a group's members usually share one PE thread, but
// the placement view may be stale against the ranks' live places (explicit
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

using util::Ctr;

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

/// A single contribution above this many bytes makes a uniform vector
/// collective copy-bound: staging it through the shared blocks only adds
/// memcpys, so the operation takes the flat path instead.
constexpr std::size_t kVecCutoff = 32768;

/// Registry group id for the agents' shared block of one collective
/// instance. Member blocks use the (non-negative) group id, so a negative
/// sentinel can never collide with them under the same (comm, seq) key.
constexpr int kLeaderGroup = -1;

/// leader_meet source / destination: every agent.
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
void block_check(check::Checker* ck, int world_rank, util::CounterBlock& ctr,
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
      ck->block_compare(ctr, world_rank, blk.chk_name, blk.chk_color,
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
/// below, and the group-block protocol every phase is made of.
///
/// Each group has one agent, which represents the group among the agents:
/// the root itself in a rooted op's own group (so the data starts, or the
/// result lands, in the root's buffer with no staging hop), the group's
/// leader everywhere else. Every rank derives the same agents.
///
///   - deposit(): every member arrives at its group's block with its
///     contribution; the agent parks until the whole group has arrived.
///   - publish() / withdraw(): the agent publishes the group's result
///     under the block lock and wakes the members parked for it.
///   - leader_meet(): the same arrive/release protocol one level up, among
///     the L agents; it is the whole agent phase of every op.
///
/// Every attachment to a shared block is detached when it goes out of
/// scope, on every return path.
class Runtime::HierCall {
 public:
  /// One attachment to a shared block: a group's member block or the
  /// agents' block. The first rank to attach registers it under
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
      block_check(h_.rt.checker(), h_.rm.world_rank, *h_.pe().ctr, *b_,
                  h_.kind, h_.chk_bytes, h_.name);
      deposit(*b_);
      return ++b_->arrived == b_->expected;
    }

    /// Parks the calling rank until `ready` holds (checked under the block
    /// lock).
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

    /// Parks until the block is released, then runs `take` on it outside
    /// the lock: released data is final — takers only read it or move out
    /// slots no other taker touches — so concurrent takers on different PEs
    /// do not serialize on their copies.
    template <class F = Nothing>
    void await_release(F&& take = F{}) {
      wait([](const GroupBlock& b) { return b.released; });
      take(*b_);
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

  /// `op_kind` is the checker's block color; `shape_bytes` is the call
  /// shape the block check compares (0 where per-member sizes legitimately
  /// differ); `root_index` is a rooted op's root (-1 for the others).
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

  /// The counters of the PE this rank runs on now — looked up per use,
  /// because a rank parked mid-collective can be stolen to another PE.
  PeState& pe() const {
    return rt.pe_state_[static_cast<std::size_t>(rt.pe_of(rm))];
  }

  void wake(int i) const {
    rt.wake_coll_member(rt.pe_of(rm), rt.rank_state(ci.world_of(i)));
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

  /// deposit() of reduce and allreduce: commutative ops fold into the
  /// block's acc in arrival order, order-sensitive ones stage per member.
  bool deposit_operand(const void* sbuf, std::size_t bytes, const Op& op,
                       Datatype dt, int count) {
    return deposit([&](GroupBlock& b) {
      if (!op.commutative) {
        stage(b, sbuf, bytes);
      } else if (fold(b.acc, sbuf, bytes, op, dt, count)) {
        pe().ctr->bump(Ctr::CollLocalCombines);
      }
    });
  }

  /// out = s[0] op s[1] op ... op s[k-1], for order-sensitive ops: a right
  /// fold, equal to the left fold by associativity.
  void fold_in_order(const std::vector<std::vector<std::byte>>& s,
                     std::size_t k, void* out, const Op& op, Datatype dt,
                     int count) const {
    std::memcpy(out, s[k - 1].data(), s[k - 1].size());
    for (std::size_t i = k - 1; i-- > 0;)
      rt.apply_op(rm, op, dt, s[i].data(), out, count);
  }

  // --- agent phase --------------------------------------------------------

  /// The agent phase: the L agents meet in a second-level shared block
  /// (kLeaderGroup). Every agent arrives; the agents of group `from`
  /// (every group for kAllGroups) run `in` on the block as they do, and the
  /// last of them releases it. Then the agents of group `to` (kAllGroups:
  /// every agent) run `take` on the released block.
  ///
  /// `in` moves or copies what it hands in into the block, never leaves a
  /// pointer: an agent that does not take may leave — and detach from its
  /// own group block — before any taker reads the hand-in.
  template <class In = Nothing, class Take = Nothing>
  void leader_meet(int from, int to, In&& in = In{}, Take&& take = Take{}) {
    Block lb(*this, kLeaderGroup, L);
    pe().ctr->bump(Ctr::CollSharedRendezvous);
    bool releases = false;
    lb.arrive([&](GroupBlock& b) {
      if (from != kAllGroups && from != g) return;
      in(b);
      releases = from == g || b.arrived + 1 == L;  // the last hand-in
      if (releases) b.released = true;
    });
    if (releases) {
      if (to == kAllGroups) {
        wake_agents();
      } else if (to != g) {
        wake(agent_of(to));
      }
    }
    if (to == kAllGroups || to == g) lb.await_release(take);
  }

  /// Hand-in of the gather-shaped vector ops: moves my group's member slots
  /// to the agents' block, one slot per comm-local index, so per-member
  /// sizes need no length table.
  void hand_in_members(GroupBlock& b) const {
    b.slots.resize(static_cast<std::size_t>(n));
    for (std::size_t j = 0; j < members.size(); ++j)
      b.slots[static_cast<std::size_t>(members[j])] = std::move(blk->slots[j]);
  }

  /// Agent phase of reduce and allreduce: combines the group partials and
  /// writes the total to `out` at the agents of group `to`. Commutative
  /// partials (the member block's acc, folded in arrival order) fold into
  /// the agents' acc in arrival order as well. Order-sensitive ones (member
  /// slots, folded here in index order) go to slot g and every taker folds
  /// them in group-id order.
  void combine(int to, void* out, const Op& op, Datatype dt, int count) {
    auto& part = blk->acc;
    if (!op.commutative) {
      part.resize(blk->slots.back().size());
      fold_in_order(blk->slots, static_cast<std::size_t>(gsize), part.data(),
                    op, dt, count);
      pe().ctr->bump(Ctr::CollLocalCombines,
                     static_cast<std::uint64_t>(gsize - 1));
    }
    leader_meet(
        kAllGroups, to,
        [&](GroupBlock& b) {
          if (!op.commutative) {
            b.slots.resize(static_cast<std::size_t>(L));
            b.slots[static_cast<std::size_t>(g)] = std::move(part);
          } else if (b.acc.empty()) {
            b.acc = std::move(part);
          } else {
            rt.apply_op(rm, op, dt, part.data(), b.acc.data(), count);
          }
        },
        [&](GroupBlock& b) {
          if (op.commutative) {
            std::memcpy(out, b.acc.data(), b.acc.size());
          } else {
            fold_in_order(b.slots, static_cast<std::size_t>(L), out, op, dt,
                          count);
          }
        });
  }

  /// gather/gatherv: every rank hands in `sbytes` at `sbuf` and leaves; the
  /// root copies comm-local index i's contribution to `dest(i)`, a pointer
  /// into its receive buffer and the capacity there.
  template <class Dest>
  void gather(const void* sbuf, std::size_t sbytes, Dest&& dest) {
    const bool is_agent =
        deposit([&](GroupBlock& b) { stage(b, sbuf, sbytes); });
    pe().ctr->bump(Ctr::CollVecBytes, sbytes);
    if (!is_agent) return;
    leader_meet(
        kAllGroups, rg, [this](GroupBlock& b) { hand_in_members(b); },
        [&](GroupBlock& b) {
          for (int i = 0; i < n; ++i) {
            const auto& s = b.slots[static_cast<std::size_t>(i)];
            const auto [p, cap] = dest(i);
            std::memcpy(p, s.data(), std::min(s.size(), cap));
          }
        });
  }

  /// scatter/scatterv: the root hands in `slice(i)`, a pointer into its
  /// send buffer and a length, for every comm-local index i; every rank
  /// gets its own slice, at most `rbytes` of it, in `rbuf`.
  template <class Slice>
  void scatter(Slice&& slice, void* rbuf, std::size_t rbytes) {
    const auto take_mine = [&](const std::vector<std::byte>& s) {
      const std::size_t len = std::min(s.size(), rbytes);
      std::memcpy(rbuf, s.data(), len);
      return len;
    };
    const auto slot = static_cast<std::size_t>(pos);
    blk.arrive();
    if (me != agent) {
      withdraw([&](GroupBlock& b) {
        pe().ctr->bump(Ctr::CollVecBytes, take_mine(b.slots[slot]));
      });
      return;
    }
    // The root copies every slice outside the agents' lock; each agent then
    // moves its members' slices out into its own group block.
    std::vector<std::vector<std::byte>> slices;
    if (g == rg) {
      slices.resize(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        const auto [p, len] = slice(i);
        slices[static_cast<std::size_t>(i)].assign(p, p + len);
      }
    }
    std::vector<std::vector<std::byte>> mine(static_cast<std::size_t>(gsize));
    leader_meet(
        rg, kAllGroups, [&](GroupBlock& b) { b.slots = std::move(slices); },
        [&](GroupBlock& b) {
          for (std::size_t j = 0; j < mine.size(); ++j)
            mine[j] = std::move(b.slots[static_cast<std::size_t>(members[j])]);
        });
    take_mine(mine[slot]);
    publish([&](GroupBlock& b) {
      for (std::size_t j = 0; j < mine.size(); ++j) {
        if (j != slot) pe().ctr->bump(Ctr::CollVecBytes, mine[j].size());
      }
      b.slots = std::move(mine);
    });
  }
};

// ---------------------------------------------------------------------------
// Barrier

bool Runtime::hier_barrier(RankMpi& rm, CommId comm) {
  HierCall h(*this, rm, comm, kCollHierBarrier, 0, "barrier");
  if (!h.deposit()) {
    h.withdraw();
    return true;
  }
  h.leader_meet(kAllGroups, kAllGroups);
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
  // The root hands its payload in (copied outside the agents' lock) and
  // leaves at once; every other agent copies it out.
  auto* data = static_cast<std::byte*>(buf);
  std::vector<std::byte> payload;
  if (h.g == h.rg) payload.assign(data, data + bytes);
  h.leader_meet(
      h.rg, kAllGroups, [&](GroupBlock& b) { b.acc = std::move(payload); },
      [&](GroupBlock& b) {
        if (h.g != h.rg) std::memcpy(data, b.acc.data(), bytes);
      });
  h.publish([&](GroupBlock& b) { b.acc.assign(data, data + bytes); });
  return true;
}

// ---------------------------------------------------------------------------
// Reduce / allreduce / scan. Commutative ops fold in arrival order;
// order-sensitive ones stage per member and fold in index order, which
// needs contiguous groups — the naive fold keeps rank order for any
// grouping, so unordered topologies fall back to it.

bool Runtime::hier_reduce(RankMpi& rm, const void* sbuf, void* rbuf,
                          int count, Datatype dt, const Op& op, int root,
                          CommId comm) {
  if (!op.commutative && !comm_topo(rm, comm)->ordered) return false;
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  HierCall h(*this, rm, comm, kCollHierReduce, bytes, "reduce", root);
  // Members hand in and leave: the root is its own group's agent, so no
  // member waits for a result.
  const bool agent = h.deposit_operand(sbuf, bytes, op, dt, count);
  if (agent) h.combine(h.rg, rbuf, op, dt, count);
  return true;
}

bool Runtime::hier_allreduce(RankMpi& rm, const void* sbuf, void* rbuf,
                             int count, Datatype dt, const Op& op,
                             CommId comm) {
  if (!op.commutative && !comm_topo(rm, comm)->ordered) return false;
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  HierCall h(*this, rm, comm, kCollHierAllred, bytes, "allreduce");
  const bool agent = h.deposit_operand(sbuf, bytes, op, dt, count);
  if (!agent) {
    h.withdraw([&](GroupBlock& b) { std::memcpy(rbuf, b.acc.data(), bytes); });
    return true;
  }
  h.combine(kAllGroups, rbuf, op, dt, count);
  const auto* total = static_cast<const std::byte*>(rbuf);
  h.publish([&](GroupBlock& b) { b.acc.assign(total, total + bytes); });
  return true;
}

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
  const int g = h.g, gsize = h.gsize;
  auto& slots = h.blk->slots;
  for (int i = 1; i < gsize; ++i) {
    apply_op(rm, op, dt, slots[static_cast<std::size_t>(i - 1)].data(),
             slots[static_cast<std::size_t>(i)].data(), count);
    h.pe().ctr->bump(Ctr::CollLocalCombines);
  }

  // Every agent hands its group total in at slot g and folds the totals of
  // the groups before it, in group-id order, into its exclusive prefix.
  std::vector<std::byte> excl;
  h.leader_meet(
      kAllGroups, kAllGroups,
      [&](GroupBlock& b) {
        b.slots.resize(static_cast<std::size_t>(h.L));
        b.slots[static_cast<std::size_t>(g)] = slots.back();
      },
      [&](GroupBlock& b) {
        if (g == 0) return;
        excl.resize(bytes);
        h.fold_in_order(b.slots, static_cast<std::size_t>(g), excl.data(), op,
                        dt, count);
      });
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
// moment its deposit lands. The uniform ops are their v-op with rank i's
// block at displacement i × block.
//
// The uniform ops select by size: once a single contribution exceeds
// kVecCutoff the operation is copy-bound, and staging it through the
// shared blocks only adds memcpys. Every rank evaluates the same uniform
// predicate, so all fall back together.

bool Runtime::hier_gatherv(RankMpi& rm, const void* sbuf, std::size_t sbytes,
                           void* rbuf, const int* rcounts, const int* displs,
                           std::size_t resize, int root, CommId comm) {
  // Checked bytes 0: per-member contribution sizes legitimately differ.
  HierCall h(*this, rm, comm, kCollHierGather, 0, "gatherv", root);
  auto* rp = static_cast<std::byte*>(rbuf);
  h.gather(sbuf, sbytes, [&](int i) {
    return std::pair{rp + static_cast<std::size_t>(displs[i]) * resize,
                     static_cast<std::size_t>(rcounts[i]) * resize};
  });
  return true;
}

bool Runtime::hier_gather(RankMpi& rm, const void* sbuf, std::size_t sblock,
                          void* rbuf, int root, CommId comm) {
  if (sblock > kVecCutoff) return false;  // copy-bound: flat path
  HierCall h(*this, rm, comm, kCollHierGather, sblock, "gather", root);
  auto* rp = static_cast<std::byte*>(rbuf);
  h.gather(sbuf, sblock, [&](int i) {
    return std::pair{rp + static_cast<std::size_t>(i) * sblock, sblock};
  });
  return true;
}

bool Runtime::hier_scatterv(RankMpi& rm, const void* sbuf, const int* scounts,
                            const int* displs, std::size_t sesize, void* rbuf,
                            std::size_t rbytes, int root, CommId comm) {
  HierCall h(*this, rm, comm, kCollHierScatter, 0, "scatterv", root);
  const auto* sp = static_cast<const std::byte*>(sbuf);
  h.scatter(
      [&](int i) {
        return std::pair{sp + static_cast<std::size_t>(displs[i]) * sesize,
                         static_cast<std::size_t>(scounts[i]) * sesize};
      },
      rbuf, rbytes);
  return true;
}

bool Runtime::hier_scatter(RankMpi& rm, const void* sbuf, std::size_t sblock,
                           void* rbuf, int root, CommId comm) {
  if (sblock > kVecCutoff) return false;  // copy-bound: flat path
  HierCall h(*this, rm, comm, kCollHierScatter, sblock, "scatter", root);
  const auto* sp = static_cast<const std::byte*>(sbuf);
  h.scatter(
      [&](int i) {
        return std::pair{sp + static_cast<std::size_t>(i) * sblock, sblock};
      },
      rbuf, sblock);
  return true;
}

bool Runtime::hier_allgather(RankMpi& rm, const void* sbuf,
                             std::size_t sblock, void* rbuf, CommId comm) {
  if (sblock > kVecCutoff) return false;  // copy-bound: flat path
  HierCall h(*this, rm, comm, kCollHierAllgather, sblock, "allgather");
  const std::size_t total = static_cast<std::size_t>(h.n) * sblock;
  const bool agent =
      h.deposit([&](GroupBlock& b) { h.stage(b, sbuf, sblock); });
  h.pe().ctr->bump(Ctr::CollVecBytes, sblock);
  if (!agent) {
    h.withdraw([&](GroupBlock& b) { std::memcpy(rbuf, b.acc.data(), total); });
    return true;
  }
  // Every agent assembles the whole result in comm-index order from the
  // agents' slots; members copy it out of the group block.
  auto* rp = static_cast<std::byte*>(rbuf);
  h.leader_meet(
      kAllGroups, kAllGroups, [&](GroupBlock& b) { h.hand_in_members(b); },
      [&](GroupBlock& b) {
        for (int i = 0; i < h.n; ++i) {
          std::memcpy(rp + static_cast<std::size_t>(i) * sblock,
                      b.slots[static_cast<std::size_t>(i)].data(), sblock);
        }
      });
  h.publish([&](GroupBlock& b) { b.acc.assign(rp, rp + total); });
  return true;
}

bool Runtime::hier_alltoall(RankMpi& rm, const void* sbuf, std::size_t sblock,
                            void* rbuf, std::size_t rblock, CommId comm) {
  if (sblock > kVecCutoff) return false;  // copy-bound: flat path
  HierCall h(*this, rm, comm, kCollHierAlltoall, sblock, "alltoall");
  const int n = h.n;
  // Every member stages its whole send row; the group block's acc then
  // holds gsize rows of n blocks, row t being member t's inbox in
  // comm-index order.
  const std::size_t row = static_cast<std::size_t>(n) * sblock;
  const bool agent =
      h.deposit([&](GroupBlock& b) { h.stage(b, sbuf, row); });
  h.pe().ctr->bump(Ctr::CollVecBytes, row);

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

  // Before it arrives, each agent assembles from its members' rows the
  // [member t of dg][my member s] blocks bound for every group dg and hands
  // them in at slot g * L + dg; after the release it places the L slots
  // addressed to its own group. Assembling first overlaps that half of the
  // copying with the other agents' member phases, and each source group's
  // blocks reach a taker as one contiguous run.
  const int g = h.g, L = h.L, gsize = h.gsize;
  const auto& rows = h.blk->slots;
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(L));
  for (int dg = 0; dg < L; ++dg) {
    auto& a = out[static_cast<std::size_t>(dg)];
    a.reserve(h.members_of(dg).size() * rows.size() * sblock);
    for (const int dst : h.members_of(dg)) {
      for (const auto& r : rows) {
        const auto* p = r.data() + static_cast<std::size_t>(dst) * sblock;
        a.insert(a.end(), p, p + sblock);
      }
    }
  }
  auto& acc = h.blk->acc;
  acc.resize(static_cast<std::size_t>(gsize) * row);
  h.leader_meet(
      kAllGroups, kAllGroups,
      [&](GroupBlock& b) {
        b.slots.resize(static_cast<std::size_t>(L) * L);
        for (int dg = 0; dg < L; ++dg)
          b.slots[static_cast<std::size_t>(g * L + dg)] =
              std::move(out[static_cast<std::size_t>(dg)]);
      },
      [&](GroupBlock& b) {
        for (int sg = 0; sg < L; ++sg) {
          const std::byte* p =
              b.slots[static_cast<std::size_t>(sg * L + g)].data();
          for (int t = 0; t < gsize; ++t) {
            for (const int src : h.members_of(sg)) {
              std::memcpy(acc.data() + static_cast<std::size_t>(t) * row +
                              static_cast<std::size_t>(src) * sblock,
                          p, sblock);
              p += sblock;
            }
          }
        }
      });
  copy_row_out(acc.data() + my_row);
  h.publish();
  return true;
}

}  // namespace apv::mpi
