#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace apv::lb {

/// Measured input to a rebalancing decision: one load value per rank
/// (seconds of busy time since the last LB step) and the current placement.
/// This is the runtime-agnostic core of Charm++'s LB database — the same
/// struct feeds both the real runtime's AMPI_Migrate path and the
/// virtual-time cluster simulator, so strategies are tested once and used
/// everywhere.
struct LbStats {
  std::vector<double> rank_load;  ///< indexed by rank
  std::vector<int> rank_pe;       ///< current PE per rank
  int num_pes = 1;

  int num_ranks() const noexcept {
    return static_cast<int>(rank_load.size());
  }
  /// Aggregated per-PE loads under the current placement.
  std::vector<double> pe_loads() const;
};

/// A rank→PE assignment (same indexing as LbStats::rank_load).
using Assignment = std::vector<int>;

/// Rebalancing strategy interface. Implementations must be deterministic:
/// in the real runtime every rank runs the strategy independently on
/// identical stats and must reach the identical assignment.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual const char* name() const noexcept = 0;
  virtual Assignment assign(const LbStats& stats) const = 0;
};

/// Charm++-style GreedyLB: sort ranks by decreasing load, place each on the
/// currently least-loaded PE. Produces near-optimal balance but ignores
/// current placement, so it migrates almost everything.
class GreedyLb final : public Strategy {
 public:
  const char* name() const noexcept override { return "greedy"; }
  Assignment assign(const LbStats& stats) const override;
};

/// GreedyRefineLB (the strategy the paper's ADCIRC runs use): start from
/// the current placement and greedily move ranks off overloaded PEs onto
/// underloaded ones only while that reduces the maximum PE load. Balances
/// nearly as well as GreedyLb with far fewer migrations.
class GreedyRefineLb final : public Strategy {
 public:
  /// `tolerance` is the accepted overshoot above the average PE load
  /// (0.05 = stop refining within 5% of perfect balance).
  explicit GreedyRefineLb(double tolerance = 0.05) : tolerance_(tolerance) {}
  const char* name() const noexcept override { return "greedyrefine"; }
  Assignment assign(const LbStats& stats) const override;

 private:
  double tolerance_;
};

/// RotateLB: every rank moves to (pe+1) mod P. Useless for balance; used to
/// stress the migration machinery (Charm++ ships the same).
class RotateLb final : public Strategy {
 public:
  const char* name() const noexcept override { return "rotate"; }
  Assignment assign(const LbStats& stats) const override;
};

/// Deterministic pseudo-random placement (seeded from the stats), for
/// baseline comparisons.
class RandLb final : public Strategy {
 public:
  const char* name() const noexcept override { return "rand"; }
  Assignment assign(const LbStats& stats) const override;
};

/// Identity placement (LB disabled).
class NullLb final : public Strategy {
 public:
  const char* name() const noexcept override { return "none"; }
  Assignment assign(const LbStats& stats) const override;
};

/// Factory by name: "greedy", "greedyrefine", "rotate", "rand", "none".
/// Throws InvalidArgument for unknown names.
std::unique_ptr<Strategy> make_strategy(const std::string& name);

/// Runs `strategy` over only the PEs marked alive: loads and placements are
/// compacted onto the live PEs, the strategy runs in that compacted space,
/// and the result is expanded back to real PE ids. Ranks currently placed
/// on a dead PE are seeded onto the least-loaded live PE first, so
/// placement-refining strategies (GreedyRefine) start from a valid
/// placement. With every PE alive this is exactly strategy.assign(stats).
/// Throws InvalidArgument if no PE is alive or the mask size disagrees.
Assignment assign_on_live(const Strategy& strategy, const LbStats& stats,
                          const std::vector<bool>& pe_alive);

/// max/mean PE load ratio of an assignment (1.0 = perfect balance).
double assignment_imbalance(const LbStats& stats,
                            const Assignment& assignment);

/// Number of ranks whose PE differs from the current placement.
int moved_ranks(const LbStats& stats, const Assignment& assignment);

/// Victim selection for idle-PE rank stealing: ranks PEs by *estimated
/// queue wait time* — ready-queue depth × the PE's recent per-ULT service
/// time (an EWMA of run-slice durations, in ns) — instead of raw depth. A
/// queue of 8 quick ULTs can clear before a queue of 3 hogs; the thief
/// wants the backlog that will take longest to drain, because that is where
/// a stolen rank buys the most. PEs whose service estimate is 0 or missing
/// (nothing measured yet; `service_ns` may be shorter than `ready_depth`,
/// or empty) fall back to a neutral 1 ns, so depth alone ranks them. Equal
/// waits go to the deeper queue, then to the lowest PE id. `ready_depth`
/// is indexed by PE (callers zero out dead PEs and themselves); a PE
/// qualifies only with at least `min_ready` queued ranks — stealing the
/// victim's sole runnable rank would just relocate the imbalance. The
/// inputs are advisory snapshots: the victim re-validates before
/// surrendering anything. Returns -1 when no PE qualifies.
int pick_steal_victim(const std::vector<std::size_t>& ready_depth,
                      const std::vector<std::uint64_t>& service_ns, int self,
                      std::size_t min_ready = 1);

}  // namespace apv::lb
