#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/counters.hpp"

namespace apv::check {

/// Checker operating mode (check.mode option). Off costs nothing on the
/// message path; Warn records and prints located diagnoses but lets the job
/// keep running (and usually hang or corrupt, as the real MPI would); Abort
/// throws CheckFailed from the offending rank's context so the job fails
/// fast with the diagnosis attached.
enum class Mode : std::uint8_t { Off, Warn, Abort };

const char* mode_name(Mode m) noexcept;

/// User-level collective colors: one per MPI collective entry point (not
/// per internal algorithm step). PARCOACH-style dynamic verification
/// reduces this color — plus the call-site operands — with an all-equal
/// operator across the communicator.
enum CollColor : std::int32_t {
  kColorBarrier = 1,
  kColorBcast,
  kColorReduce,
  kColorAllreduce,
  kColorScan,
  kColorGatherv,
  kColorScatterv,
  kColorAlltoall,
  kColorCommSplit,
  kColorGather,
  kColorScatter,
  kColorAllgather,
};

/// Call-site descriptor for one user-level collective entry. Every field
/// must agree across all members of the communicator; fields that MPI
/// allows to legitimately differ per rank (gatherv counts, split colors)
/// are left at their "not applicable" defaults by the caller.
struct CollDesc {
  std::int32_t color = 0;   ///< CollColor of the entry point
  std::int32_t root = -1;   ///< root local rank, -1 = rootless collective
  std::int32_t op = -1;     ///< reduction OpKind value, -1 = no operator
  std::uint32_t esize = 0;  ///< element size, 0 = not uniform across ranks
  std::uint64_t bytes = 0;  ///< count * esize, 0 = may differ per rank
};

/// One recorded check failure. `message` is the full located text (rank,
/// collective name, seq#, field, both values — or peer/tag/bytes for p2p).
struct Diagnosis {
  std::string kind;  ///< "collective-mismatch" | "collective-block-mismatch"
                     ///< | "p2p-type-mismatch" | "p2p-truncation" | "deadlock"
  int rank = -1;     ///< offending world rank, -1 = job-wide (deadlock)
  std::string message;
};

/// Outcome of a point-to-point match-time verification.
enum class P2pVerdict : std::uint8_t { Ok, TypeMismatch, Truncation };

/// The runtime correctness checker: collective-descriptor matching,
/// point-to-point type/size verification, and deadlock diagnosis state.
/// One instance per Runtime; all state lives on the host heap, so it
/// survives rank migration, checkpoint rewinds, and failure recovery
/// untouched (descriptors never live inside a packed slot image).
///
/// Hot-path design (the abort-mode overhead budget is <= 5% over off on a
/// workload that is nothing but small collectives):
/// - The gate table is open-addressed with lock-free probes. A depositor
///   writes the descriptor first and publishes the (comm, seq) key with a
///   release store; comparers re-load the key after reading the descriptor,
///   which is sound because a (comm, seq) pair is never reused (check_seq
///   is monotonic per communicator). Only deposits take a mutex, i.e. one
///   lock per collective instead of one per member.
/// - Counts go to the calling PE's counter block (util/counters.hpp), which
///   every check takes as `ctr`: verifications are bumped by the PE's own
///   thread, the rare mismatches added.
class Checker {
 public:
  Checker(Mode mode, double deadlock_s);

  Mode mode() const noexcept { return mode_; }
  bool enabled() const noexcept { return mode_ != Mode::Off; }
  double deadlock_s() const noexcept { return deadlock_s_; }

  /// Collective gate: the first member arriving at (comm, seq) deposits
  /// its descriptor; every later member compares against it. Returns an
  /// empty string when the descriptors agree, else the full located
  /// mismatch text (the caller records / warns / aborts per mode). The
  /// entry is reclaimed once `expected` members arrived, so steady-state
  /// memory stays O(in-flight collectives). Defined inline below: the
  /// comparer probe is the hottest check in the runtime (one per member
  /// per user-level collective) and must not pay a cross-TU call.
  std::string coll_gate(util::CounterBlock& ctr, int world_rank,
                        const char* name, std::int32_t comm,
                        std::uint32_t seq, int expected,
                        const CollDesc& mine);

  /// Match-time p2p verification: sender-declared element size/count vs
  /// the receiver's declared element size and buffer capacity. Element
  /// sizes must agree (size-based datatype check); the payload must fit.
  P2pVerdict p2p_verify(util::CounterBlock& ctr, std::uint32_t send_esize,
                        std::uint64_t send_bytes, std::uint32_t recv_esize,
                        std::uint64_t recv_cap) noexcept {
    ctr.bump(util::Ctr::CheckP2pVerified);
    if (send_bytes > recv_cap) [[unlikely]] {
      ctr.add(util::Ctr::CheckP2pTruncations);
      return P2pVerdict::Truncation;
    }
    if (send_esize != recv_esize) [[unlikely]] {
      ctr.add(util::Ctr::CheckP2pTypeMismatches);
      return P2pVerdict::TypeMismatch;
    }
    return P2pVerdict::Ok;
  }

  /// Shared-block compare for the hierarchical fast path: returns empty
  /// when (color, bytes) agree with the block's first arriver, else the
  /// located mismatch text. A second line of defense under the gate — it
  /// still fires for composite collectives whose inner steps are not
  /// gated, and catches size divergence before a shared-block memcpy
  /// could overrun.
  std::string block_compare(util::CounterBlock& ctr, int world_rank,
                            const char* name, std::int32_t block_color,
                            std::uint64_t block_bytes, std::int32_t my_color,
                            const char* my_name, std::uint64_t my_bytes) {
    ctr.bump(util::Ctr::CheckBlockCompares);
    if (my_color == block_color && my_bytes == block_bytes) [[likely]]
      return {};
    return block_mismatch(ctr, world_rank, name, block_bytes, my_name,
                          my_bytes);
  }

  /// Records a diagnosis and prints it to stderr (both warn and abort
  /// mode; abort additionally throws at the call site, not here).
  void record(const char* kind, int rank, std::string message);

  std::vector<Diagnosis> diagnoses() const;
  std::size_t diagnosis_count() const;

 private:
  struct GateEntry {
    CollDesc ref;
    const char* name = nullptr;  ///< static string of the first arriver
    int ref_rank = -1;
    int arrived = 0;
  };

  /// One open-addressed gate slot. `key` doubles as the publication flag:
  /// kEmpty means free; anything else means the descriptor cells are
  /// immutable until the slot is reclaimed (key back to kEmpty by the last
  /// arriver).
  ///
  /// The descriptor cells are atomics rather than plain fields: a
  /// comparer's snapshot can race with a re-deposit after the slot was
  /// reclaimed mid-read. The seqlock-style key re-check already discards
  /// such torn snapshots *logically*, but the racing loads themselves must
  /// be atomic for the program to be data-race-free (and TSan-clean).
  /// Deposits release-store the key after writing the cells; comparers
  /// acquire-load the key before reading them, and load the cells
  /// themselves with acquire so the validating key re-check cannot be
  /// hoisted above them (see load_entry — this replaces a read fence,
  /// which TSan does not model).
  struct alignas(64) GateSlot {
    std::atomic<std::uint64_t> key{~0ull};
    std::atomic<std::int32_t> arrived{0};
    std::atomic<std::int32_t> ref_color{0};
    std::atomic<std::int32_t> ref_root{-1};
    std::atomic<std::int32_t> ref_op{-1};
    std::atomic<std::uint32_t> ref_esize{0};
    std::atomic<std::uint64_t> ref_bytes{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::int32_t> ref_rank{-1};

    void store_desc(const CollDesc& d, const char* n,
                    std::int32_t rank) noexcept {
      ref_color.store(d.color, std::memory_order_relaxed);
      ref_root.store(d.root, std::memory_order_relaxed);
      ref_op.store(d.op, std::memory_order_relaxed);
      ref_esize.store(d.esize, std::memory_order_relaxed);
      ref_bytes.store(d.bytes, std::memory_order_relaxed);
      name.store(n, std::memory_order_relaxed);
      ref_rank.store(rank, std::memory_order_relaxed);
    }
    /// Every cell load is acquire (not relaxed + trailing fence): the
    /// caller's key re-check must not be hoisted above ANY cell read for
    /// the torn-snapshot discard to work, acquire loads forbid exactly
    /// that, and TSan does not model standalone fences. Acquire loads cost
    /// the same plain mov as relaxed on x86.
    GateEntry load_entry() const noexcept {
      GateEntry e;
      e.ref.color = ref_color.load(std::memory_order_acquire);
      e.ref.root = ref_root.load(std::memory_order_acquire);
      e.ref.op = ref_op.load(std::memory_order_acquire);
      e.ref.esize = ref_esize.load(std::memory_order_acquire);
      e.ref.bytes = ref_bytes.load(std::memory_order_acquire);
      e.name = name.load(std::memory_order_acquire);
      e.ref_rank = ref_rank.load(std::memory_order_acquire);
      return e;
    }
  };

  static constexpr std::uint64_t kEmptyKey = ~0ull;
  static constexpr int kProbeLen = 8;  ///< home + 7 linear-probe slots

  static std::uint64_t gate_key(std::int32_t comm,
                                std::uint32_t seq) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm))
            << 32) |
           seq;
  }
  std::size_t home_slot(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ull) &
           (slots_.size() - 1);
  }

  static bool desc_matches(const CollDesc& mine,
                           const CollDesc& ref) noexcept {
    return mine.color == ref.color && mine.root == ref.root &&
           mine.op == ref.op &&
           (mine.esize == 0 || ref.esize == 0 || mine.esize == ref.esize) &&
           (mine.bytes == 0 || ref.bytes == 0 || mine.bytes == ref.bytes);
  }

  /// Builds the located mismatch text and counts it (cold path).
  std::string gate_mismatch(util::CounterBlock& ctr, int world_rank,
                            const char* name, std::int32_t comm,
                            std::uint32_t seq, const CollDesc& mine,
                            const GateEntry& ref);

  /// Builds the located block-compare mismatch text and counts it.
  std::string block_mismatch(util::CounterBlock& ctr, int world_rank,
                             const char* name, std::uint64_t block_bytes,
                             const char* my_name, std::uint64_t my_bytes);

  /// First-arriver / racing-deposit path of coll_gate, under gate_mutex_.
  std::string coll_gate_locked(util::CounterBlock& ctr, int world_rank,
                               const char* name, std::int32_t comm,
                               std::uint32_t seq, int expected,
                               const CollDesc& mine);

  /// Slow path under gate_mutex_: deposit/compare via the overflow map
  /// (all kProbeLen candidate slots were taken by other gates).
  std::string gate_overflow(util::CounterBlock& ctr, int world_rank,
                            const char* name, std::int32_t comm,
                            std::uint32_t seq, int expected,
                            const CollDesc& mine);

  Mode mode_;
  double deadlock_s_;
  std::vector<GateSlot> slots_;

  std::mutex gate_mutex_;  ///< serializes deposits + the overflow map
  std::map<std::uint64_t, GateEntry> overflow_;
  std::atomic<int> overflow_count_{0};

  mutable std::mutex diag_mutex_;
  std::vector<Diagnosis> diagnoses_;
};

inline std::string Checker::coll_gate(util::CounterBlock& ctr, int world_rank,
                                      const char* name, std::int32_t comm,
                                      std::uint32_t seq, int expected,
                                      const CollDesc& mine) {
  if (expected <= 1) {  // self-collective: trivially matched
    ctr.bump(util::Ctr::CheckCollVerified);
    return {};
  }
  const std::uint64_t key = gate_key(comm, seq);
  const std::size_t mask = slots_.size() - 1;
  const std::size_t home = home_slot(key);

  // Lock-free comparer fast path: find the published entry for (comm, seq).
  for (int p = 0; p < kProbeLen; ++p) {
    GateSlot& s = slots_[(home + static_cast<std::size_t>(p)) & mask];
    if (s.key.load(std::memory_order_acquire) != key) continue;
    // The depositor wrote the descriptor cells before the release-store of
    // key, so seeing `key` makes them readable. Re-check key after the
    // reads: if the slot was reclaimed (and possibly re-deposited for a
    // different gate) mid-read, the key changed — (comm, seq) pairs are
    // never reused, so an unchanged key proves the snapshot is ours.
    // Fence-free seqlock validation: every cell load in load_entry is
    // acquire, so this re-check cannot be hoisted above any of the cell
    // reads (equivalently: no cell read can sink below it). A trailing
    // read fence would do the same, but TSan does not model fences — the
    // acquire loads keep the fast path warning-free and sanitizer-visible.
    const GateEntry snap = s.load_entry();
    if (s.key.load(std::memory_order_relaxed) != key) break;  // reclaimed
    std::string mismatch;
    if (desc_matches(mine, snap.ref)) [[likely]]
      ctr.bump(util::Ctr::CheckCollVerified);
    else
      mismatch = gate_mismatch(ctr, world_rank, name, comm, seq, mine, snap);
    // Count the arrival only after the compare: the slot cannot be
    // reclaimed before all `expected` arrivals bumped the counter.
    if (s.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 >= expected)
      s.key.store(kEmptyKey, std::memory_order_release);
    return mismatch;
  }

  // Not found: first arriver (common) or an overflow-parked gate (rare).
  return coll_gate_locked(ctr, world_rank, name, comm, seq, expected, mine);
}

/// Stable display name for a CollColor ("barrier", "bcast", ...).
const char* coll_color_name(std::int32_t color) noexcept;

}  // namespace apv::check
