// Figure 6: user-level thread context-switch time per privatization method
// (nanoseconds, lower is better). Reproduces the paper's microbenchmark:
// two ULTs yield back and forth; the time includes scheduling costs, since
// each yield returns through the scheduler.
//
// Expected shape (paper): TLSglobals and PIEglobals slowest (they repoint
// the TLS segment at every switch), everything within ~tens of ns of the
// unprivatized baseline, independent of program size.

#include <benchmark/benchmark.h>

#include "apps/jacobi.hpp"
#include "core/privatizer.hpp"
#include "image/loader.hpp"
#include "isomalloc/arena.hpp"
#include "ult/scheduler.hpp"
#include "util/timer.hpp"

using namespace apv;

namespace {

struct YieldTask {
  int iters = 0;
};

void yield_body(void* arg) {
  auto* task = static_cast<YieldTask*>(arg);
  ult::Scheduler* sched = ult::current_scheduler();
  for (int i = 0; i < task->iters; ++i) sched->yield();
}

void bm_ctxswitch(benchmark::State& state, core::Method method) {
  const int yields = 50000;
  iso::IsoArena arena({.slot_size = std::size_t{16} << 20, .max_slots = 4});
  // Rank pairs are recreated every iteration; lift the dlmopen namespace
  // cap so PIPglobals can run the full benchmark (PiP's patched glibc).
  util::Options loader_options;
  loader_options.set_bool("loader.patched_glibc", true);
  img::Loader loader(loader_options);
  apps::JacobiParams params;
  params.code_bytes = 1 << 20;
  params.tag_tls = method == core::Method::TLSglobals;
  const img::ProgramImage image = apps::build_jacobi(params);

  core::ProcessEnv env;
  env.process_id = 0;
  env.pes_in_process = 1;
  env.image = &image;
  env.loader = &loader;
  env.arena = &arena;
  // Rank pairs are recreated every iteration; lift the dlmopen namespace
  // cap so PIPglobals can run the full benchmark (PiP's patched glibc).
  env.options.set_bool("loader.patched_glibc", true);
  core::Privatizer priv(method, env);

  ult::Scheduler sched;
  priv.install_switch_hook(sched);

  YieldTask task{yields};
  std::uint64_t switches = 0;
  double total_s = 0.0;
  for (auto _ : state) {
    core::Privatizer::RankParams rp;
    rp.body = &yield_body;
    rp.arg = &task;
    rp.world_rank = 0;
    core::RankContext* a = priv.create_rank(rp);
    rp.world_rank = 1;
    core::RankContext* b = priv.create_rank(rp);
    sched.ready(a->ult);
    sched.ready(b->ult);
    const std::uint64_t before =
        sched.counters().get(util::Ctr::ContextSwitches);
    const util::WallTimer timer;
    sched.run_until_quiescent();
    const double elapsed = timer.elapsed_s();
    state.SetIterationTime(elapsed);
    total_s += elapsed;
    switches = sched.counters().get(util::Ctr::ContextSwitches) - before;
    priv.destroy_rank(a);
    priv.destroy_rank(b);
  }
  state.counters["ns_per_switch"] =
      total_s * 1e9 /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(switches));
}

}  // namespace

BENCHMARK_CAPTURE(bm_ctxswitch, none, core::Method::None)->UseManualTime()->Iterations(10);
BENCHMARK_CAPTURE(bm_ctxswitch, tlsglobals, core::Method::TLSglobals)
    ->UseManualTime()->Iterations(10);
BENCHMARK_CAPTURE(bm_ctxswitch, swapglobals, core::Method::Swapglobals)
    ->UseManualTime()->Iterations(10);
BENCHMARK_CAPTURE(bm_ctxswitch, pipglobals, core::Method::PIPglobals)
    ->UseManualTime()->Iterations(10);
BENCHMARK_CAPTURE(bm_ctxswitch, fsglobals, core::Method::FSglobals)
    ->UseManualTime()->Iterations(10);
BENCHMARK_CAPTURE(bm_ctxswitch, pieglobals, core::Method::PIEglobals)
    ->UseManualTime()->Iterations(10);

BENCHMARK_MAIN();
