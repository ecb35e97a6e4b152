#include "lb/strategy.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace apv::lb {

using util::ApvError;
using util::ErrorCode;
using util::require;

std::vector<double> LbStats::pe_loads() const {
  std::vector<double> loads(static_cast<std::size_t>(num_pes), 0.0);
  for (int r = 0; r < num_ranks(); ++r) {
    loads[static_cast<std::size_t>(rank_pe[static_cast<std::size_t>(r)])] +=
        rank_load[static_cast<std::size_t>(r)];
  }
  return loads;
}

namespace {

void validate(const LbStats& stats) {
  require(stats.num_pes >= 1, ErrorCode::InvalidArgument, "no PEs");
  require(stats.rank_load.size() == stats.rank_pe.size(),
          ErrorCode::InvalidArgument, "LbStats vectors disagree");
  for (int pe : stats.rank_pe) {
    require(pe >= 0 && pe < stats.num_pes, ErrorCode::InvalidArgument,
            "rank assigned to invalid PE");
  }
}

// Index of the minimum element; ties broken toward lower PE for
// determinism.
int argmin(const std::vector<double>& v) {
  return static_cast<int>(
      std::min_element(v.begin(), v.end()) - v.begin());
}

}  // namespace

Assignment GreedyLb::assign(const LbStats& stats) const {
  validate(stats);
  const int n = stats.num_ranks();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return stats.rank_load[static_cast<std::size_t>(a)] >
           stats.rank_load[static_cast<std::size_t>(b)];
  });
  std::vector<double> pe_load(static_cast<std::size_t>(stats.num_pes), 0.0);
  Assignment out(static_cast<std::size_t>(n));
  for (int r : order) {
    const int pe = argmin(pe_load);
    out[static_cast<std::size_t>(r)] = pe;
    pe_load[static_cast<std::size_t>(pe)] +=
        stats.rank_load[static_cast<std::size_t>(r)];
  }
  return out;
}

Assignment GreedyRefineLb::assign(const LbStats& stats) const {
  validate(stats);
  const int n = stats.num_ranks();
  Assignment out(stats.rank_pe.begin(), stats.rank_pe.end());
  std::vector<double> pe_load = stats.pe_loads();
  const double total = std::accumulate(pe_load.begin(), pe_load.end(), 0.0);
  const double avg = total / stats.num_pes;
  const double ceiling = avg * (1.0 + tolerance_);

  // Move work off the most loaded PE while it exceeds the ceiling and a
  // strictly improving move exists. Each iteration moves the largest rank
  // that fits under the ceiling on the least loaded PE (or the smallest
  // rank if none fits — progress beats perfection).
  for (int guard = 0; guard < 4 * n + 16; ++guard) {
    const int src = static_cast<int>(
        std::max_element(pe_load.begin(), pe_load.end()) - pe_load.begin());
    if (pe_load[static_cast<std::size_t>(src)] <= ceiling) break;
    const int dst = argmin(pe_load);
    if (dst == src) break;

    int best = -1;
    double best_load = -1.0;
    int smallest = -1;
    double smallest_load = 0.0;
    for (int r = 0; r < n; ++r) {
      if (out[static_cast<std::size_t>(r)] != src) continue;
      const double load = stats.rank_load[static_cast<std::size_t>(r)];
      if (load <= 0.0) continue;
      if (pe_load[static_cast<std::size_t>(dst)] + load <= ceiling &&
          load > best_load) {
        best = r;
        best_load = load;
      }
      if (smallest < 0 || load < smallest_load) {
        smallest = r;
        smallest_load = load;
      }
    }
    int move = best >= 0 ? best : smallest;
    if (move < 0) break;
    const double load = stats.rank_load[static_cast<std::size_t>(move)];
    // Refuse moves that would just trade places of the hot spot.
    if (pe_load[static_cast<std::size_t>(dst)] + load >=
        pe_load[static_cast<std::size_t>(src)]) {
      break;
    }
    out[static_cast<std::size_t>(move)] = dst;
    pe_load[static_cast<std::size_t>(src)] -= load;
    pe_load[static_cast<std::size_t>(dst)] += load;
  }
  return out;
}

Assignment RotateLb::assign(const LbStats& stats) const {
  validate(stats);
  Assignment out(static_cast<std::size_t>(stats.num_ranks()));
  for (int r = 0; r < stats.num_ranks(); ++r) {
    out[static_cast<std::size_t>(r)] =
        (stats.rank_pe[static_cast<std::size_t>(r)] + 1) % stats.num_pes;
  }
  return out;
}

Assignment RandLb::assign(const LbStats& stats) const {
  validate(stats);
  // Seed from the stats so every rank derives the same "random" placement.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (double v : stats.rank_load) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    seed = (seed ^ bits) * 0x100000001b3ULL;
  }
  util::SplitMix64 rng(seed);
  Assignment out(static_cast<std::size_t>(stats.num_ranks()));
  for (auto& pe : out)
    pe = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(stats.num_pes)));
  return out;
}

Assignment NullLb::assign(const LbStats& stats) const {
  validate(stats);
  return Assignment(stats.rank_pe.begin(), stats.rank_pe.end());
}

Assignment assign_on_live(const Strategy& strategy, const LbStats& stats,
                          const std::vector<bool>& pe_alive) {
  validate(stats);
  require(static_cast<int>(pe_alive.size()) == stats.num_pes,
          ErrorCode::InvalidArgument, "alive mask size != num_pes");
  std::vector<int> live;                  // compact index -> real PE id
  std::vector<int> compact(static_cast<std::size_t>(stats.num_pes), -1);
  for (int pe = 0; pe < stats.num_pes; ++pe) {
    if (!pe_alive[static_cast<std::size_t>(pe)]) continue;
    compact[static_cast<std::size_t>(pe)] = static_cast<int>(live.size());
    live.push_back(pe);
  }
  require(!live.empty(), ErrorCode::InvalidArgument, "no live PE");
  if (static_cast<int>(live.size()) == stats.num_pes)
    return strategy.assign(stats);

  LbStats sub = stats;
  sub.num_pes = static_cast<int>(live.size());
  std::vector<double> load(live.size(), 0.0);
  for (int r = 0; r < stats.num_ranks(); ++r) {
    const int c = compact[static_cast<std::size_t>(
        stats.rank_pe[static_cast<std::size_t>(r)])];
    if (c >= 0)
      load[static_cast<std::size_t>(c)] +=
          stats.rank_load[static_cast<std::size_t>(r)];
  }
  for (int r = 0; r < stats.num_ranks(); ++r) {
    int c = compact[static_cast<std::size_t>(
        stats.rank_pe[static_cast<std::size_t>(r)])];
    if (c < 0) {  // stranded on a dead PE: seed on the least-loaded live PE
      c = argmin(load);
      load[static_cast<std::size_t>(c)] +=
          stats.rank_load[static_cast<std::size_t>(r)];
    }
    sub.rank_pe[static_cast<std::size_t>(r)] = c;
  }
  Assignment out = strategy.assign(sub);
  for (auto& pe : out) pe = live[static_cast<std::size_t>(pe)];
  return out;
}

std::unique_ptr<Strategy> make_strategy(const std::string& name) {
  if (name == "greedy") return std::make_unique<GreedyLb>();
  if (name == "greedyrefine" || name == "greedyrefinelb")
    return std::make_unique<GreedyRefineLb>();
  if (name == "rotate") return std::make_unique<RotateLb>();
  if (name == "rand") return std::make_unique<RandLb>();
  if (name == "none") return std::make_unique<NullLb>();
  throw ApvError(ErrorCode::InvalidArgument,
                 "unknown LB strategy: " + name);
}

double assignment_imbalance(const LbStats& stats,
                            const Assignment& assignment) {
  std::vector<double> loads(static_cast<std::size_t>(stats.num_pes), 0.0);
  for (int r = 0; r < stats.num_ranks(); ++r) {
    loads[static_cast<std::size_t>(assignment[static_cast<std::size_t>(r)])] +=
        stats.rank_load[static_cast<std::size_t>(r)];
  }
  const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
  if (total <= 0.0) return 1.0;
  const double avg = total / stats.num_pes;
  return *std::max_element(loads.begin(), loads.end()) / avg;
}

int moved_ranks(const LbStats& stats, const Assignment& assignment) {
  int moves = 0;
  for (int r = 0; r < stats.num_ranks(); ++r) {
    if (assignment[static_cast<std::size_t>(r)] !=
        stats.rank_pe[static_cast<std::size_t>(r)])
      ++moves;
  }
  return moves;
}

// `ready_depth` entries are advisory snapshots (relaxed scheduler counter
// reads taken by the caller, possibly already stale); this function must
// therefore only ever *rank* PEs, never assume a depth is still accurate.
// The chosen victim re-validates before surrendering a rank.
int pick_steal_victim(const std::vector<std::size_t>& ready_depth,
                      const std::vector<std::uint64_t>& service_ns, int self,
                      std::size_t min_ready) {
  int victim = -1;
  std::uint64_t best_wait = 0;
  std::size_t best_depth = 0;
  for (std::size_t p = 0; p < ready_depth.size(); ++p) {
    if (static_cast<int>(p) == self) continue;
    const std::size_t d = ready_depth[p];
    if (d < min_ready) continue;
    // Estimated time for p's queue to drain. An unmeasured PE gets the
    // neutral 1 ns estimate so it still competes on depth; the product
    // cannot realistically overflow (depth is rank-count sized, service a
    // few ms at most).
    const std::uint64_t svc =
        p < service_ns.size() && service_ns[p] > 0 ? service_ns[p] : 1;
    const std::uint64_t wait = static_cast<std::uint64_t>(d) * svc;
    // Strictly-greater keeps the lowest-id tie-break; equal waits first
    // prefer the deeper queue (more slack for the victim to re-validate a
    // surrender).
    if (wait > best_wait || (wait == best_wait && d > best_depth)) {
      best_wait = wait;
      best_depth = d;
      victim = static_cast<int>(p);
    }
  }
  return victim;
}

}  // namespace apv::lb
