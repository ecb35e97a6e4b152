#include "check/checker.hpp"

#include <cstdio>
#include <sstream>

namespace apv::check {

const char* mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::Warn: return "warn";
    case Mode::Abort: return "abort";
  }
  return "?";
}

const char* coll_color_name(std::int32_t color) noexcept {
  switch (color) {
    case kColorBarrier: return "barrier";
    case kColorBcast: return "bcast";
    case kColorReduce: return "reduce";
    case kColorAllreduce: return "allreduce";
    case kColorScan: return "scan";
    case kColorGatherv: return "gatherv";
    case kColorScatterv: return "scatterv";
    case kColorAlltoall: return "alltoall";
    case kColorCommSplit: return "comm_split";
    case kColorGather: return "gather";
    case kColorScatter: return "scatter";
    case kColorAllgather: return "allgather";
    default: return "collective";
  }
}

Checker::Checker(Mode mode, double deadlock_s)
    : mode_(mode),
      deadlock_s_(deadlock_s),
      // 256 slots holds every realistic in-flight gate population (one per
      // communicator with an active collective); the overflow map catches
      // the rest. Power of two for mask indexing.
      slots_(256) {}

namespace {

void describe_field(std::ostringstream& os, const char* field, long long mine,
                    long long ref, int ref_rank) {
  os << " field=" << field << " mine=" << mine << " rank-" << ref_rank
     << "=" << ref;
}

}  // namespace

std::string Checker::gate_mismatch(util::CounterBlock& ctr, int world_rank,
                                   const char* name, std::int32_t comm,
                                   std::uint32_t seq, const CollDesc& mine,
                                   const GateEntry& e) {
  ctr.add(util::Ctr::CheckCollMismatches);
  const CollDesc& ref = e.ref;
  std::ostringstream os;
  os << "collective mismatch: rank " << world_rank << " entered " << name
     << " (comm=" << comm << " seq=" << seq << ") but rank " << e.ref_rank
     << " entered " << e.name << ":";
  if (mine.color != ref.color) {
    os << " field=collective mine=" << coll_color_name(mine.color)
       << " rank-" << e.ref_rank << "=" << coll_color_name(ref.color);
  }
  if (mine.root != ref.root)
    describe_field(os, "root", mine.root, ref.root, e.ref_rank);
  if (mine.op != ref.op)
    describe_field(os, "op", mine.op, ref.op, e.ref_rank);
  if (mine.esize != 0 && ref.esize != 0 && mine.esize != ref.esize)
    describe_field(os, "element-size", mine.esize, ref.esize, e.ref_rank);
  if (mine.bytes != 0 && ref.bytes != 0 && mine.bytes != ref.bytes)
    describe_field(os, "bytes", static_cast<long long>(mine.bytes),
                   static_cast<long long>(ref.bytes), e.ref_rank);
  return os.str();
}

std::string Checker::coll_gate_locked(util::CounterBlock& ctr, int world_rank,
                                      const char* name, std::int32_t comm,
                                      std::uint32_t seq, int expected,
                                      const CollDesc& mine) {
  const std::uint64_t key = gate_key(comm, seq);
  const std::size_t mask = slots_.size() - 1;
  const std::size_t home = home_slot(key);
  std::unique_lock<std::mutex> lk(gate_mutex_);
  // A racing depositor may have published while we fell through to the
  // lock; re-probe before claiming.
  for (int p = 0; p < kProbeLen; ++p) {
    GateSlot& s = slots_[(home + static_cast<std::size_t>(p)) & mask];
    if (s.key.load(std::memory_order_acquire) != key) continue;
    lk.unlock();
    return coll_gate(ctr, world_rank, name, comm, seq, expected, mine);
  }
  if (overflow_count_.load(std::memory_order_relaxed) != 0 &&
      overflow_.count(key) != 0)
    return gate_overflow(ctr, world_rank, name, comm, seq, expected, mine);
  // Deposit: claim the first free probe slot (frees only happen lock-free,
  // claims only here under the mutex, so a free slot stays free).
  for (int p = 0; p < kProbeLen; ++p) {
    GateSlot& s = slots_[(home + static_cast<std::size_t>(p)) & mask];
    if (s.key.load(std::memory_order_acquire) != kEmptyKey) continue;
    s.store_desc(mine, name, world_rank);
    s.arrived.store(1, std::memory_order_relaxed);
    s.key.store(key, std::memory_order_release);
    return {};
  }
  // All candidate slots busy with other gates: park in the overflow map.
  return gate_overflow(ctr, world_rank, name, comm, seq, expected, mine);
}

/// Deposit/compare through the overflow map; called with gate_mutex_ held.
std::string Checker::gate_overflow(util::CounterBlock& ctr, int world_rank,
                                   const char* name, std::int32_t comm,
                                   std::uint32_t seq, int expected,
                                   const CollDesc& mine) {
  const std::uint64_t key = gate_key(comm, seq);
  auto it = overflow_.find(key);
  if (it == overflow_.end()) {
    GateEntry e;
    e.ref = mine;
    e.name = name;
    e.ref_rank = world_rank;
    e.arrived = 1;
    overflow_.emplace(key, e);
    overflow_count_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  GateEntry& e = it->second;
  std::string mismatch;
  if (desc_matches(mine, e.ref)) {
    ctr.bump(util::Ctr::CheckCollVerified);
  } else {
    mismatch = gate_mismatch(ctr, world_rank, name, comm, seq, mine, e);
  }
  if (++e.arrived >= expected) {
    overflow_.erase(it);
    overflow_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  return mismatch;
}

std::string Checker::block_mismatch(util::CounterBlock& ctr, int world_rank,
                                    const char* name,
                                    std::uint64_t block_bytes,
                                    const char* my_name,
                                    std::uint64_t my_bytes) {
  ctr.add(util::Ctr::CheckBlockMismatches);
  std::ostringstream os;
  os << "collective block mismatch: rank " << world_rank << " joined a "
     << name << " rendezvous with " << my_name << "(" << my_bytes
     << " bytes), block expects " << block_bytes << " bytes";
  return os.str();
}

void Checker::record(const char* kind, int rank, std::string message) {
  std::fprintf(stderr, "[apv-check:%s] %s\n", mode_name(mode_),
               message.c_str());
  std::lock_guard<std::mutex> lk(diag_mutex_);
  diagnoses_.push_back(Diagnosis{kind, rank, std::move(message)});
}

std::vector<Diagnosis> Checker::diagnoses() const {
  std::lock_guard<std::mutex> lk(diag_mutex_);
  return diagnoses_;
}

std::size_t Checker::diagnosis_count() const {
  std::lock_guard<std::mutex> lk(diag_mutex_);
  return diagnoses_.size();
}

}  // namespace apv::check
