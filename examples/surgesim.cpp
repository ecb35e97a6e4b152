// surgesim: the ADCIRC-proxy storm-surge application (paper §4.6) on the
// *real* virtualized runtime. A wet front sweeps across a 1-D coastal
// domain; wet cells are expensive, dry cells are nearly free, so the load
// hotspot moves — overdecomposition plus GreedyRefineLB keeps PEs busy and
// drives real rank migrations under PIEglobals.
//
// Note on what this example can show: wall-clock speedup from load
// balancing needs real parallel hardware (PE threads here may share one
// physical core). This example demonstrates the *mechanism* — live
// migrations, per-epoch imbalance reduction, correct execution across
// moves. The paper's Figure 9 / Table 2 strong-scaling shape is reproduced
// by bench/fig9_table2_adcirc on the virtual-time cluster simulator.
//
// Usage: surgesim [pes] [virt_ratio] [steps]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/surge_app.hpp"
#include "lb/strategy.hpp"
#include "mpi/runtime.hpp"
#include "sim/surge.hpp"
#include "util/timer.hpp"

using namespace apv;

namespace {

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t migrations = 0;
};

RunResult run(int pes, int vps, int lb_period, int steps) {
  apps::SurgeAppParams params;
  params.surge.cells = 2048;
  params.surge.steps = steps;
  params.lb_period = lb_period;
  params.real_compute_scale = 0.05;
  params.code_bytes = std::size_t{4} << 20;
  const img::ProgramImage image = apps::build_surge_app(params);

  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = pes;
  cfg.vps = vps;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{32} << 20;
  mpi::Runtime rt(image, cfg);
  const util::WallTimer timer;
  rt.run();
  return {timer.elapsed_s(), rt.cluster().totals()[util::Ctr::Migrations]};
}

// Modelled per-PE imbalance over the whole run for a static block map vs.
// periodically rebalanced placement (same strategy code the runtime runs).
void print_imbalance_profile(int pes, int vps, int steps) {
  sim::SurgeConfig cfg;
  cfg.cells = 2048;
  cfg.steps = steps;
  lb::LbStats stats;
  stats.num_pes = pes;
  stats.rank_load.assign(static_cast<std::size_t>(vps), 0.0);
  stats.rank_pe.resize(static_cast<std::size_t>(vps));
  for (int r = 0; r < vps; ++r)
    stats.rank_pe[static_cast<std::size_t>(r)] =
        static_cast<int>(static_cast<long>(r) * pes / vps);

  double static_imb = 0.0;
  double lb_imb = 0.0;
  int epochs = 0;
  const int period = 20;
  for (int s0 = 0; s0 < steps; s0 += period) {
    std::fill(stats.rank_load.begin(), stats.rank_load.end(), 0.0);
    for (int s = s0; s < std::min(steps, s0 + period); ++s) {
      for (int r = 0; r < vps; ++r) {
        stats.rank_load[static_cast<std::size_t>(r)] +=
            sim::surge_work_us(cfg, vps, r, s);
      }
    }
    static_imb += lb::assignment_imbalance(
        stats, lb::Assignment(stats.rank_pe.begin(), stats.rank_pe.end()));
    const lb::Assignment dest = lb::GreedyRefineLb().assign(stats);
    lb_imb += lb::assignment_imbalance(stats, dest);
    stats.rank_pe.assign(dest.begin(), dest.end());
    ++epochs;
  }
  std::printf("modelled PE imbalance (max/mean, 1.0 = perfect):\n");
  std::printf("  static block map       : %.2f\n", static_imb / epochs);
  std::printf("  with GreedyRefineLB    : %.2f\n", lb_imb / epochs);
}

}  // namespace

int main(int argc, char** argv) {
  const int pes = argc > 1 ? std::atoi(argv[1]) : 2;
  const int ratio = argc > 2 ? std::atoi(argv[2]) : 4;
  const int steps = argc > 3 ? std::atoi(argv[3]) : 120;

  std::printf("surgesim: %d PE(s), wet front over 2048 cells, %d steps\n\n",
              pes, steps);
  const RunResult base = run(pes, pes, /*lb_period=*/0, steps);
  std::printf("baseline    (vps=%2d, no LB)          : %6.3f s wall, "
              "0 migrations\n",
              pes, base.wall_s);
  const RunResult virt = run(pes, pes * ratio, /*lb_period=*/20, steps);
  std::printf("virtualized (vps=%2d, GreedyRefineLB) : %6.3f s wall, "
              "%llu migrations\n\n",
              pes * ratio, virt.wall_s,
              static_cast<unsigned long long>(virt.migrations));
  print_imbalance_profile(pes, pes * ratio, steps);
  std::printf(
      "\n(wall-clock LB speedup needs real cores; the Figure 9 / Table 2\n"
      " strong-scaling reproduction is bench/fig9_table2_adcirc)\n");
  return 0;
}
