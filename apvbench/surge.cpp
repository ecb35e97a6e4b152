// surge_lb: the ADCIRC proxy on 24 ranks under PIEglobals. A wet front
// sweeps the 1-D domain during each rep; a rank's modelled cost per step
// comes from sim::surge_work_us, 5% of which is spun for real through
// Env::compute and the rest reported through add_load. Per step: 64 B
// halos with both neighbours and a Min-allreduce of the timestep;
// GreedyRefine load_balance every 20 steps and checkpoint_all every 150.
// An op is one step on rank 0. The front's course is fixed so every seed
// does the same work; the seed sets the halo payloads. Halos are checked
// on receipt, and rank 0's per-step Min and every rank's total modelled
// work against closed form.

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "mpi/env.hpp"
#include "sim/surge.hpp"

namespace apvbench {

namespace {

using mpi::Datatype;
using mpi::Op;
using mpi::OpKind;

constexpr int kRanks = 24;
constexpr int kSteps = 1200;
constexpr int kLbEvery = 20;
// Checkpoints are rarer than 1% of steps, so op_p99_us falls among the LB
// steps (5% of steps) rather than on the edge of the checkpoint steps.
constexpr int kCkptEvery = 150;
constexpr double kComputeScale = 0.05;
constexpr int kHalo = 8;  // doubles: 64 B
constexpr int kTagHalo = 7;

// Halo value i that rank `from` sends at `step`.
inline double halo_value(std::uint64_t seed, int from, int step, int i) {
  return static_cast<double>(
      mix(seed, static_cast<std::uint64_t>(from) * kSteps + step,
          static_cast<std::uint64_t>(i)) >>
      20);
}

inline double dt_of(double work_us) { return 1.0 / (1.0 + work_us); }

sim::SurgeConfig surge_config() {
  sim::SurgeConfig cfg;
  cfg.cells = 8192;
  cfg.steps = kSteps;
  return cfg;
}

void* surge_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  const int nranks = env->size();
  RankLog& log = log_of(me);
  const auto g_cells = env->global<int>("cells");
  const auto g_steps = env->global<int>("steps");
  const auto g_wet = env->global<double>("wet_cost_us");
  const auto g_dry = env->global<double>("dry_cost_us");
  const auto g_front0 = env->global<double>("front_start");
  const auto g_front1 = env->global<double>("front_end");
  const auto g_scale = env->global<double>("compute_scale");
  const auto g_lb = env->global<int>("lb_every");
  const auto g_ckpt = env->global<int>("ckpt_every");
  const std::uint64_t seed = env->global<std::uint64_t>("seed").get();
  if (me == 0) log.values.reserve(static_cast<std::size_t>(g_steps.get()));

  double total_work_us = 0.0;
  double mine[kHalo];
  double incoming[2][kHalo];
  env->barrier();
  for (int step = 0; step < g_steps.get(); ++step) {
    log.op_begin(static_cast<std::uint32_t>(step));
    sim::SurgeConfig cfg;
    cfg.cells = g_cells.get();
    cfg.steps = g_steps.get();
    cfg.wet_cost_us = g_wet.get();
    cfg.dry_cost_us = g_dry.get();
    cfg.front_start_frac = g_front0.get();
    cfg.front_end_frac = g_front1.get();
    const double work_us = sim::surge_work_us(cfg, nranks, me, step);
    total_work_us += work_us;
    log.call(Span::Kernel,
             [&] { env->compute(work_us * g_scale.get() * 1e-6); });
    log.call(Span::AddLoad,
             [&] { env->add_load(work_us * (1.0 - g_scale.get()) * 1e-6); });

    mpi::Request reqs[2] = {mpi::kRequestNull, mpi::kRequestNull};
    int nreq = 0;
    log.call(Span::Irecv, [&] {
      if (me > 0)
        reqs[nreq++] = env->irecv(incoming[0], kHalo, Datatype::Double,
                                  me - 1, kTagHalo);
      if (me + 1 < nranks)
        reqs[nreq++] = env->irecv(incoming[1], kHalo, Datatype::Double,
                                  me + 1, kTagHalo);
    });
    for (int i = 0; i < kHalo; ++i) mine[i] = halo_value(seed, me, step, i);
    log.call(Span::Send, [&] {
      if (me > 0) env->send(mine, kHalo, Datatype::Double, me - 1, kTagHalo);
      if (me + 1 < nranks)
        env->send(mine, kHalo, Datatype::Double, me + 1, kTagHalo);
    });
    log.call(Span::Waitall, [&] { env->waitall(nreq, reqs); });

    const double dt_local = dt_of(work_us);
    double dt = 0.0;
    log.call(Span::Allreduce8, [&] {
      env->allreduce(&dt_local, &dt, 1, Datatype::Double,
                     Op::builtin(OpKind::Min));
    });
    const bool last = step + 1 == g_steps.get();
    if ((step + 1) % g_lb.get() == 0 && !last)
      log.call(Span::LoadBalance, [&] { env->load_balance("greedyrefine"); });
    if ((step + 1) % g_ckpt.get() == 0 && !last)
      log.call(Span::Checkpoint, [&] { env->checkpoint_all(); });
    log.op_end();

    bool ok = true;
    for (int i = 0; i < kHalo; ++i) {
      if (me > 0 && incoming[0][i] != halo_value(seed, me - 1, step, i))
        ok = false;
      if (me + 1 < nranks && incoming[1][i] != halo_value(seed, me + 1, step, i))
        ok = false;
    }
    if (!ok) log.op_failed();
    if (me == 0) log.values.push_back(dt);
  }
  log.result = total_work_us;
  return nullptr;
}

}  // namespace

Workload make_surge(std::uint64_t seed) {
  const sim::SurgeConfig cfg = surge_config();
  img::ImageBuilder b("apvbench-surge");
  b.add_global<int>("cells", cfg.cells);
  b.add_global<int>("steps", cfg.steps);
  b.add_global<double>("wet_cost_us", cfg.wet_cost_us);
  b.add_global<double>("dry_cost_us", cfg.dry_cost_us);
  b.add_global<double>("front_start", cfg.front_start_frac);
  b.add_global<double>("front_end", cfg.front_end_frac);
  b.add_global<double>("compute_scale", kComputeScale);
  b.add_global<int>("lb_every", kLbEvery);
  b.add_global<int>("ckpt_every", kCkptEvery);
  b.add_global<std::uint64_t>("seed", seed);
  b.add_function("mpi_main", &surge_main);
  // Every migration ships the rank's code copy and re-faults it page by
  // page. 1 MiB keeps that from swamping the LB steps (and so op_p99_us)
  // with page-fault time, which swings with the host far more than the
  // rest of the step does.
  b.set_code_size(std::size_t{1} << 20);

  Workload w;
  w.name = "surge_lb";
  w.shape =
      "24 ranks, pieglobals, 8192-cell moving wet front over 1200 steps, 64 B "
      "halos, Min-allreduce per step, greedyrefine every 20, checkpoint_all "
      "every 150, 5% of modelled cost spun; op = step";
  w.method = core::Method::PIEglobals;
  w.vps = kRanks;
  w.image = b.build();
  w.timing_ranks = {0};
  w.ops_per_rep = kSteps;

  // Closed form: the per-step Min of dt over ranks, and each rank's total.
  auto dt_min = std::make_shared<std::vector<double>>();
  auto totals = std::make_shared<std::vector<double>>(kRanks, 0.0);
  for (int step = 0; step < kSteps; ++step) {
    double m = INFINITY;
    for (int r = 0; r < kRanks; ++r) {
      const double work = sim::surge_work_us(cfg, kRanks, r, step);
      (*totals)[static_cast<std::size_t>(r)] += work;
      m = std::min(m, dt_of(work));
    }
    dt_min->push_back(m);
  }
  w.verify = [dt_min, totals](const std::vector<RankLog>& logs) {
    for (int r = 0; r < kRanks; ++r) {
      const double want = (*totals)[static_cast<std::size_t>(r)];
      if (std::abs(logs[static_cast<std::size_t>(r)].result - want) >
          1e-9 * want)
        return static_cast<std::uint64_t>(logs[0].values.size());
    }
    std::uint64_t bad = 0;
    const std::vector<double>& got = logs[0].values;
    for (std::size_t i = 0; i < got.size() && i < dt_min->size(); ++i)
      if (got[i] != (*dt_min)[i]) ++bad;
    return bad;
  };
  return w;
}

}  // namespace apvbench
