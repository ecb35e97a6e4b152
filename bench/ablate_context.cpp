// Ablation: context-switch backend — hand-written assembly vs POSIX
// ucontext. The assembly path saves only callee-saved registers and the FP
// control words; glibc's swapcontext additionally makes a sigprocmask
// system call per switch, which is why Charm++-family runtimes ship their
// own switchers. This bound matters: Figure 6's ~100 ns budget is
// unreachable on the ucontext path.

#include <benchmark/benchmark.h>

#include <vector>

#include "ult/scheduler.hpp"
#include "util/timer.hpp"

using namespace apv;

namespace {

struct YieldTask {
  int iters;
};

void yield_body(void* arg) {
  auto* task = static_cast<YieldTask*>(arg);
  ult::Scheduler* sched = ult::current_scheduler();
  for (int i = 0; i < task->iters; ++i) sched->yield();
}

void bm_backend(benchmark::State& state, ult::ContextBackend backend) {
  if (!ult::context_backend_available(backend)) {
    state.SkipWithError("backend not built on this platform");
    return;
  }
  const int yields = 50000;
  ult::Scheduler sched(backend);
  std::vector<char> s1(1 << 16), s2(1 << 16);
  YieldTask task{yields};
  double total_s = 0.0;
  std::uint64_t switches = 0;
  for (auto _ : state) {
    ult::Ult a(1, &yield_body, &task, s1.data(), s1.size(), backend);
    ult::Ult b(2, &yield_body, &task, s2.data(), s2.size(), backend);
    sched.ready(&a);
    sched.ready(&b);
    const std::uint64_t before =
        sched.counters().get(util::Ctr::ContextSwitches);
    const util::WallTimer timer;
    sched.run_until_quiescent();
    const double elapsed = timer.elapsed_s();
    state.SetIterationTime(elapsed);
    total_s += elapsed;
    switches = sched.counters().get(util::Ctr::ContextSwitches) - before;
  }
  state.counters["ns_per_switch"] =
      total_s * 1e9 /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(switches));
}

}  // namespace

BENCHMARK_CAPTURE(bm_backend, asm, ult::ContextBackend::Asm)
    ->UseManualTime()
    ->Iterations(10);
BENCHMARK_CAPTURE(bm_backend, ucontext, ult::ContextBackend::Ucontext)
    ->UseManualTime()
    ->Iterations(10);

BENCHMARK_MAIN();
