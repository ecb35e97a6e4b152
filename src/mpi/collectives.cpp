// Collective algorithms, built on the runtime's eager point-to-point
// transport (do_send / do_recv) with tags in the internal tag space. Each
// collective consumes one per-communicator sequence number; MPI's "same
// order on every member" rule makes the sequence agree across ranks.

#include <algorithm>
#include <cstring>
#include <vector>

#include "mpi/runtime.hpp"
#include "util/error.hpp"

namespace apv::mpi {

using util::ErrorCode;
using util::require;

namespace {

/// Entry gate for the runtime correctness checker, placed once at the top
/// of every USER-level collective. Stamps provenance (always — the timeout
/// post-mortem uses it even with the checker off) and, when the checker is
/// armed, registers/compares this rank's call-site descriptor for
/// (comm, check_seq). Depth-guarded: collectives a collective delegates to
/// (naive allreduce -> reduce + bcast, FT/LB glue barriers) never re-gate,
/// so the sequence advances exactly once per user call on every member.
class CollScope {
 public:
  CollScope(Runtime& rt, RankMpi& rm, const char* name, std::int32_t color,
            CommId comm, int expected, int root = -1, int opkind = -1,
            std::uint32_t esize = 0, std::uint64_t bytes = 0)
      : rm_(rm) {
    if (rm.coll_depth == 0) {
      // Collective phase boundary: one cooperative-preemption safe point
      // per user-level collective (delegated inner collectives skip it
      // along with the gate). Runs before the gate registers anything, so
      // a demotion here cannot wedge a half-entered descriptor.
      if (ult::Scheduler* s = ult::current_scheduler()) s->preempt_point();
      const std::uint32_t seq = rm.check_seq_for(comm)++;
      rm.last_coll_name = name;
      rm.last_coll_comm = comm;
      rm.last_coll_seq = seq;
      if (rt.checker() != nullptr) {
        // May throw CheckFailed (abort mode) — coll_depth stays balanced
        // because the increment below never ran.
        rt.coll_gate_entry(rm, name, color, comm, seq, root, opkind, esize,
                           bytes, expected);
      }
    }
    ++rm_.coll_depth;
  }
  ~CollScope() { --rm_.coll_depth; }
  CollScope(const CollScope&) = delete;
  CollScope& operator=(const CollScope&) = delete;

 private:
  RankMpi& rm_;
};

}  // namespace

void Runtime::do_barrier(RankMpi& rm, CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  CollScope gate(*this, rm, "barrier", check::kColorBarrier, comm, n);
  if (n == 1) return;
  if (coll_hier_ && hier_barrier(rm, comm)) return;
  const int me = ci.local_of(rm.world_rank);
  const std::uint32_t seq = rm.coll_seq_for(comm)++;
  // Dissemination barrier: ceil(log2 n) rounds of shifted zero-byte token
  // exchange (empty payloads never touch the pool).
  int round = 0;
  for (int dist = 1; dist < n; dist <<= 1, ++round) {
    const int dst = (me + dist) % n;
    const int src = ((me - dist) % n + n) % n;
    const int tag = internal_tag(kCollBarrier, round, seq);
    do_send(rm, nullptr, 0, dst, tag, comm);
    do_recv(rm, nullptr, 0, src, tag, comm);
  }
}

void Runtime::do_bcast(RankMpi& rm, void* buf, std::size_t bytes, int root,
                       CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  CollScope gate(*this, rm, "bcast", check::kColorBcast, comm, n, root,
                 /*opkind=*/-1, /*esize=*/0, bytes);
  if (n == 1) return;
  if (coll_hier_ && hier_bcast(rm, buf, bytes, root, comm)) return;
  const int me = ci.local_of(rm.world_rank);
  const std::uint32_t seq = rm.coll_seq_for(comm)++;
  const int tag = internal_tag(kCollBcast, 0, seq);
  const int vr = ((me - root) % n + n) % n;  // rank relative to root

  // Binomial tree: receive from the parent, then relay down the subtree.
  int mask = 1;
  while (mask < n) {
    if ((vr & mask) != 0) {
      do_recv(rm, buf, bytes, ((vr - mask) + root) % n, tag, comm);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n)
      do_send(rm, buf, bytes, (vr + mask + root) % n, tag, comm);
    mask >>= 1;
  }
}

void Runtime::do_reduce(RankMpi& rm, const void* sbuf, void* rbuf, int count,
                        Datatype dt, const Op& op, int root, CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  const int me = ci.local_of(rm.world_rank);
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  CollScope gate(*this, rm, "reduce", check::kColorReduce, comm, n, root,
                 static_cast<int>(op.kind), datatype_size(dt), bytes);
  if (n == 1) {
    if (me == root && rbuf != sbuf) std::memcpy(rbuf, sbuf, bytes);
    return;
  }
  if (coll_hier_ && hier_reduce(rm, sbuf, rbuf, count, dt, op, root, comm))
    return;
  const std::uint32_t seq = rm.coll_seq_for(comm)++;

  if (!op.commutative) {
    // Non-commutative operators need the canonical rank order. Rank-ordered
    // binomial fold over absolute comm-local indices: after round k, index
    // i holds the fold of contributions [i, min(i + 2^k, n)) iff 2^k
    // divides i — associativity makes the result equal the left-assoc MPI
    // definition with O(log n) critical path and O(bytes) memory (the old
    // algorithm serialized n-1 receives into an n x bytes staging buffer
    // at the root).
    std::vector<std::byte> acc(bytes);
    std::vector<std::byte> incoming(bytes);
    std::memcpy(acc.data(), sbuf, bytes);
    int round = 0;
    for (int mask = 1; mask < n; mask <<= 1, ++round) {
      const int tag = internal_tag(kCollReduce, round & 0x3f, seq);
      if ((me & mask) != 0) {
        // acc covers [me, me+mask): hand it to the left neighbour, done.
        do_send(rm, acc.data(), bytes, me - mask, tag, comm);
        break;
      }
      if (me + mask < n) {
        // incoming covers [me+mask, ...): acc = acc op incoming, keeping
        // rank order (acc is the left operand).
        do_recv(rm, incoming.data(), bytes, me + mask, tag, comm);
        apply_op(rm, op, dt, acc.data(), incoming.data(), count);
        acc.swap(incoming);
      }
    }
    const int fwd_tag = internal_tag(kCollReduce, 63, seq);
    if (root == 0) {
      if (me == 0) std::memcpy(rbuf, acc.data(), bytes);
    } else if (me == 0) {
      do_send(rm, acc.data(), bytes, root, fwd_tag, comm);
    } else if (me == root) {
      do_recv(rm, rbuf, bytes, 0, fwd_tag, comm);
    }
    return;
  }
  const int tag = internal_tag(kCollReduce, 0, seq);

  // Commutative: binomial-tree combine toward the root.
  const int vr = ((me - root) % n + n) % n;
  std::vector<std::byte> acc(bytes);
  std::memcpy(acc.data(), sbuf, bytes);
  std::vector<std::byte> incoming(bytes);
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((vr & mask) != 0) {
      do_send(rm, acc.data(), bytes, ((vr - mask) + root) % n, tag, comm);
      break;
    }
    if (vr + mask < n) {
      do_recv(rm, incoming.data(), bytes, (vr + mask + root) % n, tag, comm);
      apply_op(rm, op, dt, incoming.data(), acc.data(), count);
    }
  }
  if (me == root) std::memcpy(rbuf, acc.data(), bytes);
}

void Runtime::do_allreduce(RankMpi& rm, const void* sbuf, void* rbuf,
                           int count, Datatype dt, const Op& op,
                           CommId comm) {
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  const int n = comm_info(comm).size();
  CollScope gate(*this, rm, "allreduce", check::kColorAllreduce, comm, n,
                 /*root=*/-1, static_cast<int>(op.kind), datatype_size(dt),
                 bytes);
  if (n > 1 && coll_hier_ && hier_allreduce(rm, sbuf, rbuf, count, dt, op,
                                            comm))
    return;
  do_reduce(rm, sbuf, rbuf, count, dt, op, /*root=*/0, comm);
  do_bcast(rm, rbuf, bytes, /*root=*/0, comm);
}

void Runtime::do_scan(RankMpi& rm, const void* sbuf, void* rbuf, int count,
                      Datatype dt, const Op& op, CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  const int me = ci.local_of(rm.world_rank);
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  CollScope gate(*this, rm, "scan", check::kColorScan, comm, n, /*root=*/-1,
                 static_cast<int>(op.kind), datatype_size(dt), bytes);
  if (n > 1 && coll_hier_ && hier_scan(rm, sbuf, rbuf, count, dt, op, comm))
    return;
  const std::uint32_t seq = rm.coll_seq_for(comm)++;
  const int tag = internal_tag(kCollScan, 0, seq);

  std::vector<std::byte> acc(bytes);
  std::memcpy(acc.data(), sbuf, bytes);
  if (me > 0) {
    std::vector<std::byte> partial(bytes);
    do_recv(rm, partial.data(), bytes, me - 1, tag, comm);
    // acc = partial op acc keeps rank order: partial is s_0..s_{me-1}.
    apply_op(rm, op, dt, partial.data(), acc.data(), count);
  }
  if (me + 1 < n) do_send(rm, acc.data(), bytes, me + 1, tag, comm);
  std::memcpy(rbuf, acc.data(), bytes);
}

void Runtime::do_gatherv(RankMpi& rm, const void* sbuf, int scount,
                         Datatype sdt, void* rbuf, const int* rcounts,
                         const int* displs, Datatype rdt, int root,
                         CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  const int me = ci.local_of(rm.world_rank);
  // Per-rank counts/displacements legitimately differ: gate on the entry
  // point and root only (esize/bytes stay 0 = unverified).
  CollScope gate(*this, rm, "gatherv", check::kColorGatherv, comm, n, root);
  const std::size_t sbytes =
      static_cast<std::size_t>(scount) * datatype_size(sdt);
  // Dispatch to the hierarchical algorithm only when this is the outermost
  // collective (depth 1 = our own gate): a delegated call — e.g. do_gather's
  // flat fallback after its size-based selection — must not be re-routed
  // back into the leader staging it just opted out of.
  if (n > 1 && coll_hier_ && rm.coll_depth == 1 &&
      hier_gatherv(rm, sbuf, sbytes, rbuf, rcounts, displs,
                   datatype_size(rdt), root, comm))
    return;
  const std::uint32_t seq = rm.coll_seq_for(comm)++;
  const int tag = internal_tag(kCollGather, 0, seq);

  if (me != root) {
    do_send(rm, sbuf, sbytes, root, tag, comm);
    return;
  }
  // Pre-post every irecv before draining any of them: contributions land
  // in their final rbuf positions as they arrive instead of serializing on
  // the lowest outstanding sender.
  const std::size_t esize = datatype_size(rdt);
  std::vector<Request> reqs(static_cast<std::size_t>(n), kRequestNull);
  for (int i = 0; i < n; ++i) {
    auto* dst = static_cast<std::byte*>(rbuf) +
                static_cast<std::size_t>(displs[i]) * esize;
    const std::size_t want = static_cast<std::size_t>(rcounts[i]) * esize;
    if (i == me) {
      require(want == sbytes, ErrorCode::InvalidArgument,
              "gather: root's own count mismatch");
      std::memcpy(dst, sbuf, sbytes);
    } else {
      reqs[static_cast<std::size_t>(i)] =
          do_irecv(rm, dst, want, i, tag, comm);
    }
  }
  for (int i = 0; i < n; ++i) {
    if (i != me) do_wait(rm, reqs[static_cast<std::size_t>(i)]);
  }
}

void Runtime::do_scatterv(RankMpi& rm, const void* sbuf, const int* scounts,
                          const int* displs, Datatype sdt, void* rbuf,
                          int rcount, Datatype rdt, int root, CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  const int me = ci.local_of(rm.world_rank);
  CollScope gate(*this, rm, "scatterv", check::kColorScatterv, comm, n, root);
  const std::size_t rbytes =
      static_cast<std::size_t>(rcount) * datatype_size(rdt);
  if (n > 1 && coll_hier_ && rm.coll_depth == 1 &&
      hier_scatterv(rm, sbuf, scounts, displs, datatype_size(sdt), rbuf,
                    rbytes, root, comm))
    return;
  const std::uint32_t seq = rm.coll_seq_for(comm)++;
  const int tag = internal_tag(kCollScatter, 0, seq);

  if (me == root) {
    const std::size_t esize = datatype_size(sdt);
    for (int i = 0; i < n; ++i) {
      const auto* src = static_cast<const std::byte*>(sbuf) +
                        static_cast<std::size_t>(displs[i]) * esize;
      const std::size_t len = static_cast<std::size_t>(scounts[i]) * esize;
      if (i == me) {
        require(len <= rbytes, ErrorCode::InvalidArgument,
                "scatter: root receive buffer too small");
        std::memcpy(rbuf, src, len);
      } else {
        do_send(rm, src, len, i, tag, comm);
      }
    }
  } else {
    do_recv(rm, rbuf, rbytes, root, tag, comm);
  }
}

void Runtime::do_gather(RankMpi& rm, const void* sbuf, int scount,
                        Datatype sdt, void* rbuf, int rcount, Datatype rdt,
                        int root, CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  const int me = ci.local_of(rm.world_rank);
  const std::size_t sblock =
      static_cast<std::size_t>(scount) * datatype_size(sdt);
  // Uniform counts: esize/bytes are fully verified at the entry gate.
  CollScope gate(*this, rm, "gather", check::kColorGather, comm, n, root,
                 /*opkind=*/-1, datatype_size(sdt), sblock);
  if (n == 1) {
    if (me == root && rbuf != sbuf) std::memcpy(rbuf, sbuf, sblock);
    return;
  }
  if (coll_hier_ && hier_gather(rm, sbuf, sblock, rbuf, root, comm)) return;
  // Naive fallback: uniform gatherv (the inner gate no-ops at depth > 0).
  std::vector<int> counts;
  std::vector<int> displs;
  if (me == root) {
    counts.assign(static_cast<std::size_t>(n), rcount);
    displs.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      displs[static_cast<std::size_t>(i)] = i * rcount;
  }
  do_gatherv(rm, sbuf, scount, sdt, rbuf, counts.data(), displs.data(), rdt,
             root, comm);
}

void Runtime::do_scatter(RankMpi& rm, const void* sbuf, int scount,
                         Datatype sdt, void* rbuf, int rcount, Datatype rdt,
                         int root, CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  const int me = ci.local_of(rm.world_rank);
  const std::size_t sblock =
      static_cast<std::size_t>(scount) * datatype_size(sdt);
  const std::size_t rblock =
      static_cast<std::size_t>(rcount) * datatype_size(rdt);
  CollScope gate(*this, rm, "scatter", check::kColorScatter, comm, n, root,
                 /*opkind=*/-1, datatype_size(rdt), rblock);
  if (n == 1) {
    if (me == root && rbuf != sbuf)
      std::memcpy(rbuf, sbuf, std::min(sblock, rblock));
    return;
  }
  if (coll_hier_ &&
      hier_scatter(rm, sbuf, me == root ? sblock : rblock, rbuf, root, comm))
    return;
  std::vector<int> counts;
  std::vector<int> displs;
  if (me == root) {
    counts.assign(static_cast<std::size_t>(n), scount);
    displs.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      displs[static_cast<std::size_t>(i)] = i * scount;
  }
  do_scatterv(rm, sbuf, counts.data(), displs.data(), sdt, rbuf, rcount, rdt,
              root, comm);
}

void Runtime::do_allgather(RankMpi& rm, const void* sbuf, int scount,
                           Datatype sdt, void* rbuf, int rcount, Datatype rdt,
                           CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  const int me = ci.local_of(rm.world_rank);
  const std::size_t sblock =
      static_cast<std::size_t>(scount) * datatype_size(sdt);
  const std::size_t rblock =
      static_cast<std::size_t>(rcount) * datatype_size(rdt);
  CollScope gate(*this, rm, "allgather", check::kColorAllgather, comm, n,
                 /*root=*/-1, /*opkind=*/-1, datatype_size(sdt), sblock);
  if (n == 1) {
    if (rbuf != sbuf) std::memcpy(rbuf, sbuf, std::min(sblock, rblock));
    return;
  }
  if (coll_hier_ && hier_allgather(rm, sbuf, sblock, rbuf, comm)) return;
  // Naive fallback: pre-post every irecv, self-copy, then fan the block
  // out to all peers — each contribution lands straight in rbuf.
  const std::uint32_t seq = rm.coll_seq_for(comm)++;
  const int tag = internal_tag(kCollGather, 1, seq);
  auto* rp = static_cast<std::byte*>(rbuf);
  std::vector<Request> reqs(static_cast<std::size_t>(n), kRequestNull);
  for (int i = 0; i < n; ++i) {
    if (i == me) continue;
    reqs[static_cast<std::size_t>(i)] =
        do_irecv(rm, rp + static_cast<std::size_t>(i) * rblock, rblock, i,
                 tag, comm);
  }
  std::memcpy(rp + static_cast<std::size_t>(me) * rblock, sbuf,
              std::min(sblock, rblock));
  for (int i = 0; i < n; ++i) {
    if (i != me) do_send(rm, sbuf, sblock, i, tag, comm);
  }
  for (int i = 0; i < n; ++i) {
    if (i != me) do_wait(rm, reqs[static_cast<std::size_t>(i)]);
  }
}

void Runtime::do_alltoall(RankMpi& rm, const void* sbuf, int scount,
                          Datatype sdt, void* rbuf, int rcount, Datatype rdt,
                          CommId comm) {
  const CommInfo& ci = comm_info(comm);
  const int n = ci.size();
  const int me = ci.local_of(rm.world_rank);
  const std::size_t sblock =
      static_cast<std::size_t>(scount) * datatype_size(sdt);
  CollScope gate(*this, rm, "alltoall", check::kColorAlltoall, comm, n,
                 /*root=*/-1, /*opkind=*/-1, datatype_size(sdt), sblock);
  if (n > 1 && coll_hier_ &&
      hier_alltoall(rm, sbuf, sblock, rbuf,
                    static_cast<std::size_t>(rcount) * datatype_size(rdt),
                    comm))
    return;
  const std::uint32_t seq = rm.coll_seq_for(comm)++;
  const std::size_t rblock =
      static_cast<std::size_t>(rcount) * datatype_size(rdt);

  // Shifted pairwise exchange; sends are eager (buffered), so the schedule
  // cannot deadlock. All irecvs are pre-posted before the send loop: every
  // incoming block lands directly in rbuf instead of staging through the
  // unexpected queue while this rank works through earlier steps.
  std::vector<Request> reqs(static_cast<std::size_t>(n), kRequestNull);
  for (int s = 1; s < n; ++s) {
    const int src = ((me - s) % n + n) % n;
    auto* rblk = static_cast<std::byte*>(rbuf) +
                 static_cast<std::size_t>(src) * rblock;
    reqs[static_cast<std::size_t>(s)] =
        do_irecv(rm, rblk, rblock, src, internal_tag(kCollAlltoall, s & 0x3f, seq),
                 comm);
  }
  for (int s = 0; s < n; ++s) {
    const int dst = (me + s) % n;
    const auto* sblk = static_cast<const std::byte*>(sbuf) +
                       static_cast<std::size_t>(dst) * sblock;
    if (dst == me) {
      auto* rblk = static_cast<std::byte*>(rbuf) +
                   static_cast<std::size_t>(me) * rblock;
      std::memcpy(rblk, sblk, std::min(sblock, rblock));
      continue;
    }
    do_send(rm, sblk, sblock, dst, internal_tag(kCollAlltoall, s & 0x3f, seq),
            comm);
  }
  for (int s = 1; s < n; ++s) do_wait(rm, reqs[static_cast<std::size_t>(s)]);
}

CommId Runtime::do_comm_split(RankMpi& rm, CommId parent, int color,
                              int key) {
  const int n = comm_info(parent).size();
  // color/key legitimately differ per rank — the gate checks only that
  // everyone entered a split on this parent.
  CollScope gate(*this, rm, "comm_split", check::kColorCommSplit, parent, n);
  const std::uint32_t seq = rm.comm_seq_for(parent)++;

  // Allgather (color, key, world) over the parent.
  struct Item {
    int color, key, world;
  };
  std::vector<Item> table(static_cast<std::size_t>(n));
  const Item mine{color, key, rm.world_rank};
  do_allgather(rm, &mine, sizeof(Item), Datatype::Byte, table.data(),
               sizeof(Item), Datatype::Byte, parent);

  if (color < 0) return kCommNull;  // MPI_UNDEFINED

  std::vector<Item> members;
  for (const Item& it : table) {
    if (it.color == color) members.push_back(it);
  }
  std::sort(members.begin(), members.end(), [](const Item& a, const Item& b) {
    return a.key != b.key ? a.key < b.key : a.world < b.world;
  });
  std::vector<int> world_ranks;
  world_ranks.reserve(members.size());
  for (const Item& it : members) world_ranks.push_back(it.world);
  return comms_->intern(parent, seq, color, std::move(world_ranks));
}

void Runtime::do_comm_free(RankMpi& rm, CommId comm) {
  (void)rm;
  comms_->release(comm);
}

}  // namespace apv::mpi
