// Checker overhead A/B: the same mixed collective + point-to-point workload
// run with check.mode=off, warn, and abort. The acceptance bar is that the
// fully armed checker (abort) costs at most 5% over off — the gate is one
// lock-free slot probe per user-level collective and the p2p stamp is a
// 4-byte header field, so the fast path should barely notice. Each rep runs
// all three modes back to back and yields the paired ratios warn/off and
// abort/off; the bar applies to the median ratio over reps.
//
// 32 virtual ranks on 4 PEs (8-way overdecomposition), each iteration:
// 8 B allreduce + ring sendrecv + 1 KiB bcast + barrier — every check layer
// (gate, shared-block compare, p2p verify) engages every iteration. Prints
// a table and writes BENCH_check.json; `--quick` shrinks iterations for CI.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/stats.hpp"

using namespace apv;

namespace {

constexpr int kVps = 32;
constexpr int kPes = 4;
constexpr int kChunk = 20;  ///< iterations per timed chunk (see mix_main)

// Each iteration: 8 B allreduce + ring sendrecv + 1 KiB bcast + barrier.
// A run's figure is the MINIMUM over many kChunk-iteration windows: noise
// from a shared host (steal, preemption) is strictly additive, so the
// fastest short window approaches the noise-free cost, where a mean over
// the whole run absorbs every steal burst that lands inside it.
void* mix_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int iters = env->global<int>("iters").get();
  const int me = env->rank();
  const int n = env->size();
  int acc = 0, sum = 0;
  std::vector<int> blob(256, me);  // 1 KiB bcast payload

  env->barrier();
  double best = 1e300;
  for (int c = 0; c < iters / kChunk; ++c) {
    const double t0 = env->wtime();
    for (int i = c * kChunk; i < (c + 1) * kChunk; ++i) {
      int v = me + i;
      env->allreduce(&v, &sum, 1, mpi::Datatype::Int,
                     mpi::Op::builtin(mpi::OpKind::Sum));
      int x = me, y = -1;
      env->sendrecv(&x, 1, mpi::Datatype::Int, (me + 1) % n, 7, &y, 1,
                    mpi::Datatype::Int, (me + n - 1) % n, 7);
      env->bcast(blob.data(), 256, mpi::Datatype::Int, i % n);
      env->barrier();
      acc += sum + y;
    }
    const double dt = env->wtime() - t0;
    if (dt < best) best = dt;
  }
  const double us = best / kChunk * 1e6;
  env->barrier();
  if (me != 0) return nullptr;
  (void)acc;
  const auto packed = static_cast<float>(us);
  void* ret = nullptr;
  std::memcpy(&ret, &packed, sizeof packed);
  return ret;
}

struct ModeResult {
  double us = 0.0;
  util::Counters counters;  ///< all_counters(), for the JSON dump
  util::CounterValues totals;
};

ModeResult run_mode(const char* mode, int iters) {
  img::ImageBuilder b("checkbench");
  b.add_global<int>("iters", iters);
  b.add_function("mpi_main", &mix_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = kPes;
  cfg.vps = kVps;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{4} << 20;
  cfg.options.set("check.mode", mode);
  mpi::Runtime rt(image, cfg);
  rt.run();
  ModeResult r;
  float us = 0.0f;
  void* ret = rt.rank_return(0);
  std::memcpy(&us, &ret, sizeof us);
  r.us = us;
  r.counters = rt.all_counters();
  r.totals = rt.cluster().totals();
  return r;
}

// Per-mode ratios to off, one per rep, and their quartiles.
struct Ratios {
  std::vector<double> per_rep;
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

// Each rep runs every mode once, rotating which mode goes first: slow
// background-load drift then hits every mode alike, and no mode is
// systematically the last (each run_mode dirties the process heap a
// little, taxing whoever always ran behind it). A mode's ratio to off is
// taken within the rep, so a rep that lands in a noisy stretch moves both
// sides of its ratio, and the median over reps discards the outliers.
// `last` receives the last mode's final run, for its counters.
std::vector<Ratios> sweep_modes(const std::vector<const char*>& modes,
                                int iters, int reps, ModeResult& last) {
  const std::size_t n = modes.size();
  std::vector<Ratios> ratios(n);
  std::vector<double> us(n);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t m = (static_cast<std::size_t>(rep) + j) % n;
      ModeResult r = run_mode(modes[m], iters);
      us[m] = r.us;
      if (m == n - 1) last = std::move(r);
    }
    for (std::size_t m = 0; m < n; ++m)
      ratios[m].per_rep.push_back(us[m] / us[0]);
  }
  for (Ratios& r : ratios) {
    r.q1 = util::quantile(r.per_rep, 0.25);
    r.median = util::quantile(r.per_rep, 0.5);
    r.q3 = util::quantile(r.per_rep, 0.75);
  }
  return ratios;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const int iters = quick ? 1000 : 2000;
  const int reps = quick ? 9 : 21;

  std::printf("checker overhead: %d ranks on %d PEs, "
              "allreduce+sendrecv+bcast+barrier per iteration\n\n",
              kVps, kPes);

  // Abort goes last: its run's counters show every check layer engaged.
  ModeResult abort_run;
  const std::vector<Ratios> ratios =
      sweep_modes({"off", "warn", "abort"}, iters, reps, abort_run);
  const Ratios& warn = ratios[1];
  const Ratios& abort_m = ratios[2];
  const auto pct = [](double ratio) { return (ratio - 1.0) * 100.0; };
  const bool pass = pct(abort_m.median) <= 5.0;

  std::printf("(overhead = median over %d reps of the per-rep ratio to off; "
              "a run's time is its fastest %d-iteration chunk)\n",
              reps, kChunk);
  std::printf("%-7s | %9s %9s %9s\n", "mode", "q1", "median", "q3");
  std::printf("%-7s | %+8.2f%% %+8.2f%% %+8.2f%%\n", "warn", pct(warn.q1),
              pct(warn.median), pct(warn.q3));
  std::printf("%-7s | %+8.2f%% %+8.2f%% %+8.2f%%\n", "abort",
              pct(abort_m.q1), pct(abort_m.median), pct(abort_m.q3));
  std::printf("\nchecks per run (abort): coll_verified=%llu "
              "block_compares=%llu p2p_verified=%llu\n",
              static_cast<unsigned long long>(
                  abort_run.totals[util::Ctr::CheckCollVerified]),
              static_cast<unsigned long long>(
                  abort_run.totals[util::Ctr::CheckBlockCompares]),
              static_cast<unsigned long long>(
                  abort_run.totals[util::Ctr::CheckP2pVerified]));
  std::printf("acceptance: median abort overhead <= 5%% -> %s\n",
              pass ? "PASS" : "FAIL");

  std::FILE* json = std::fopen("BENCH_check.json", "w");
  if (json) {
    std::fprintf(
        json,
        "{\n  \"bench\": \"check_overhead\",\n  \"quick\": %s,\n"
        "  \"estimator\": \"median over %d interleaved reps of the "
        "per-rep ratio to off; a run's time is its fastest %d-iteration "
        "chunk\",\n"
        "  \"vps\": %d,\n  \"pes\": %d,\n  \"iters\": %d,\n"
        "  \"warn_overhead_pct\": {\"q1\": %.2f, \"median\": %.2f, "
        "\"q3\": %.2f},\n"
        "  \"abort_overhead_pct\": {\"q1\": %.2f, \"median\": %.2f, "
        "\"q3\": %.2f},\n"
        "  \"target_abort_overhead_pct\": 5.0,\n  \"pass\": %s,\n"
        "  \"abort_counters\": %s\n}\n",
        quick ? "true" : "false", reps, kChunk, kVps, kPes, iters,
        pct(warn.q1), pct(warn.median), pct(warn.q3), pct(abort_m.q1),
        pct(abort_m.median), pct(abort_m.q3), pass ? "true" : "false",
        abort_run.counters.to_json().c_str());
    std::fclose(json);
    std::printf("wrote BENCH_check.json\n");
  }
  return 0;
}
