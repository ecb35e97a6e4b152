// Figure 5: startup/initialization overhead per privatization method at 8x
// virtualization (8 VPs in one OS process), lower is better.
//
// What each method pays at startup in this runtime (as in the paper):
//   none/tlsglobals  load the program once; TLS copies one block per rank
//   swapglobals      per-rank GOT + per-variable copies
//   pipglobals       dlmopen-style segment materialization + ctors per rank
//   fsglobals        binary copy to/from the shared filesystem per rank
//   pieglobals       segment memcpy into Isomalloc + pointer fix-up per rank
//                    (the paper's copy per rank: pie.share_code=off)
//   pieglobals (map) data memcpy + fix-up; code mapped from one descriptor
//                    (pie.share_code=on, the default)
//
// The paper's result: the worst new method is ~9% above the unprivatized
// baseline (FSglobals excepted — it scales with filesystem speed).

#include <cstdio>

#include "apps/jacobi.hpp"
#include "mpi/runtime.hpp"
#include "util/stats.hpp"

using namespace apv;

int main(int argc, char** argv) {
  const int vps = argc > 1 ? std::atoi(argv[1]) : 8;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 5;

  // A program with a realistic (paper Jacobi-like, 3 MB) code segment and
  // some constructor work, so segment duplication has real bytes to move.
  apps::JacobiParams params;
  params.code_bytes = std::size_t{3} << 20;

  std::printf("Figure 5: startup time, %d VPs in 1 process (%d reps)\n\n",
              vps, reps);
  std::printf("%-16s %12s %12s %12s\n", "method", "mean (ms)", "stddev",
              "vs baseline");

  struct Row {
    core::Method method;
    bool share_code;  // pie.share_code; only PIEglobals reads it
    const char* label;
  };
  const Row rows[] = {
      {core::Method::None, false, "none"},
      {core::Method::TLSglobals, false, "tlsglobals"},
      {core::Method::Swapglobals, false, "swapglobals"},
      {core::Method::PIPglobals, false, "pipglobals"},
      {core::Method::FSglobals, false, "fsglobals"},
      {core::Method::PIEglobals, false, "pieglobals"},
      {core::Method::PIEglobals, true, "pieglobals (map)"},
  };
  double baseline_ms = 0.0;
  for (const Row& row : rows) {
    params.tag_tls = row.method == core::Method::TLSglobals;
    const img::ProgramImage image = apps::build_jacobi(params);
    util::RunningStats stats;
    for (int rep = 0; rep < reps; ++rep) {
      mpi::RuntimeConfig cfg;
      cfg.nodes = 1;
      cfg.pes_per_node = 1;
      cfg.vps = vps;
      cfg.method = row.method;
      cfg.slot_bytes = std::size_t{16} << 20;
      cfg.options.set_bool("pie.share_code", row.share_code);
      mpi::Runtime rt(image, cfg);
      stats.add(rt.init_time_s() * 1e3);
      // Runtime never started: destructor tears ranks straight down.
    }
    if (row.method == core::Method::None) baseline_ms = stats.mean();
    std::printf("%-16s %12.3f %12.3f %11.1f%%\n", row.label, stats.mean(),
                stats.stddev(), (stats.mean() / baseline_ms - 1.0) * 100.0);
  }
  std::printf(
      "\n(cost is per-process and does not grow with node count, except\n"
      " FSglobals, whose per-rank file I/O contends on a shared FS)\n");
  return 0;
}
