// Scheduler tail-latency A/B under skewed load: a latency-sensitive ping
// pair shares its server PE with compute hogs, and the same workload runs
// under three scheduling modes:
//
//   fifo        — the seed's single-lane cooperative FIFO
//   prio        — multi-lane runqueue + cooperative preemption
//   prio+steal  — the above plus idle-PE rank stealing
//
// Shape (6 ranks on 3 PEs): the ping server and three hogs crowd PE 0, the
// ping client and an idler sit on PE 1, PE 2 starts empty (the thief). In
// fifo mode every ping reply queues behind whichever hogs are already
// ready; with lanes the reply wake rides the high-priority lane and
// preemption bounds the running hog's slice; with stealing the empty PE
// drains hogs off the server's PE entirely.
//
// Each run has two phases, split the way mpptest splits measure_latency
// from measure_oper_latency_in_bcast:
//
//   bare   — the hogs wait in a barrier; the client times a fixed number
//            of round trips (the ping path's own latency);
//   in-op  — the hogs run; the client pings back to back and keeps only
//            the round trips that finished while a hog was still running
//            (latency in operation, the number the modes differ on).
//
// Reports p50/p99/p999 round-trip latency of both phases, in-operation
// ping throughput and hog progress per mode, and applies the acceptance
// bar: prio+steal in-operation p99 at least 2x better than fifo.
//
// A second part measures what the idle spin costs when PEs outnumber
// cores: at 2x and 4x the host's cores, half the PEs each run a rank doing
// fixed integer work per step and the other half each run a partner that
// answers one ping per step. It prints wall and process CPU time and
// applies no bar.
//
// Writes BENCH_sched.json. `--quick` shrinks the run for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/stats.hpp"

using namespace apv;

namespace {

constexpr int kVps = 6;
constexpr int kPes = 3;
constexpr int kServer = 0;   // PE 0 (block map: ranks 0,1 -> PE 0)
constexpr int kClient = 2;   // PE 1
constexpr int kHogs = 3;
constexpr double kHogChunkS = 0.0005;  // one hog slice between yields

// Rank bodies run in-process under Method::None (no segment duplication),
// so plain file statics are shared collection buffers. Reset per run.
std::vector<double> g_bare_rtts;              // written by the client only
std::vector<double> g_op_rtts;                // written by the client only
std::atomic<int> g_hogs_running{0};           // hogs still in their loop
std::atomic<std::uint64_t> g_hog_span_ns{0};  // max per-hog wall clock

bool is_hog(int rank) { return rank == 1 || rank == 4 || rank == 5; }

// One round trip from the client; returns its wall time in seconds.
double ping(mpi::Env* env, int v) {
  const double t0 = env->wtime();
  env->send(&v, 1, mpi::Datatype::Int, kServer, 5);
  env->recv(&v, 1, mpi::Datatype::Int, kServer, 6);
  return env->wtime() - t0;
}

// Server side: echo until the client sends a negative token.
void serve(mpi::Env* env) {
  for (;;) {
    int v = 0;
    env->recv(&v, 1, mpi::Datatype::Int, kClient, 5);
    if (v < 0) return;
    env->send(&v, 1, mpi::Datatype::Int, kClient, 6);
  }
}

void* tail_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  const int pings = env->global<int>("pings").get();
  const int hog_iters = env->global<int>("hog_iters").get();
  const int stop = -1;

  // Crowd the server's PE: the two ranks block-mapped onto PE 2 join the
  // hog already co-resident with the server on PE 0.
  if (me == 4 || me == 5) env->migrate_to(0);
  env->barrier();

  // Bare phase: only the ping pair runs.
  if (me == kServer) {
    serve(env);
  } else if (me == kClient) {
    for (int i = 0; i < pings; ++i) g_bare_rtts.push_back(ping(env, i));
    env->send(&stop, 1, mpi::Datatype::Int, kServer, 5);
  }
  env->barrier();

  // In-operation phase: the hogs run, and only pings that complete while
  // at least one of them is still running are kept.
  if (is_hog(me)) {
    const double t0 = env->wtime();
    for (int i = 0; i < hog_iters; ++i) {
      env->compute(kHogChunkS);
      env->yield();  // seed-style cooperative hog: yields between slices
    }
    const auto ns =
        static_cast<std::uint64_t>((env->wtime() - t0) * 1e9);
    std::uint64_t prev = g_hog_span_ns.load(std::memory_order_relaxed);
    while (prev < ns && !g_hog_span_ns.compare_exchange_weak(
                            prev, ns, std::memory_order_relaxed)) {
    }
    g_hogs_running.fetch_sub(1, std::memory_order_release);
  } else if (me == kServer) {
    serve(env);
  } else if (me == kClient) {
    for (int i = 0; g_hogs_running.load(std::memory_order_acquire) > 0; ++i) {
      const double rtt = ping(env, i);
      if (g_hogs_running.load(std::memory_order_acquire) > 0)
        g_op_rtts.push_back(rtt);
    }
    env->send(&stop, 1, mpi::Datatype::Int, kServer, 5);
  }
  env->barrier();
  return nullptr;
}

struct Tail {
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
};

Tail tail_of(const std::vector<double>& rtts) {
  Tail t;
  if (rtts.empty()) return t;
  t.p50_us = util::quantile(rtts, 0.50) * 1e6;
  t.p99_us = util::quantile(rtts, 0.99) * 1e6;
  t.p999_us = util::quantile(rtts, 0.999) * 1e6;
  return t;
}

struct ModeResult {
  Tail bare, op;
  std::size_t op_pings = 0;
  double ping_rate = 0.0;  // in-op pings/s over the client's ping time
  double hog_rate = 0.0;   // hog slices/s (per hog, worst hog)
  util::CounterValues sched;
};

mpi::RuntimeConfig base_config(int pes, int vps) {
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = pes;
  cfg.vps = vps;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{4} << 20;
  return cfg;
}

ModeResult run_mode(const std::string& mode, int pings, int hog_iters) {
  img::ImageBuilder b("schedtail");
  b.add_global<int>("pings", pings);
  b.add_global<int>("hog_iters", hog_iters);
  b.add_function("mpi_main", &tail_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg = base_config(kPes, kVps);
  if (mode == "fifo") {
    cfg.options.set("sched.policy", "fifo");
  } else {
    cfg.options.set("sched.preempt", "on");
    cfg.options.set_int("sched.quantum_us", 100);
  }
  if (mode == "prio+steal") {
    cfg.options.set("sched.steal", "on");
    cfg.options.set_int("sched.steal_idle_us", 100);
  }

  g_bare_rtts.clear();
  g_bare_rtts.reserve(static_cast<std::size_t>(pings));
  g_op_rtts.clear();
  g_hogs_running.store(kHogs, std::memory_order_relaxed);
  g_hog_span_ns.store(0, std::memory_order_relaxed);

  mpi::Runtime rt(image, cfg);
  rt.run();

  ModeResult r;
  r.bare = tail_of(g_bare_rtts);
  r.op = tail_of(g_op_rtts);
  r.op_pings = g_op_rtts.size();
  double span = 0.0;
  for (double x : g_op_rtts) span += x;
  r.ping_rate = span > 0.0 ? static_cast<double>(g_op_rtts.size()) / span
                           : 0.0;
  const double hog_s =
      static_cast<double>(g_hog_span_ns.load(std::memory_order_relaxed)) /
      1e9;
  r.hog_rate = hog_s > 0.0 ? hog_iters / hog_s : 0.0;
  r.sched = rt.cluster().totals();
  return r;
}

// Interleave reps across modes with a rotating lead (the repo's standard
// estimator on shared hosts): background-load drift hits every mode
// alike, and the kept run per mode is the one with the cleanest
// in-operation tail.
std::vector<ModeResult> sweep(const std::vector<std::string>& modes,
                              int pings, int hog_iters, int reps) {
  const std::size_t n = modes.size();
  std::vector<ModeResult> best(n);
  for (int rep = 0; rep < reps; ++rep)
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t m = (static_cast<std::size_t>(rep) + j) % n;
      ModeResult r = run_mode(modes[m], pings, hog_iters);
      if (rep == 0 || r.op.p99_us < best[m].op.p99_us) best[m] = r;
    }
  return best;
}

// --- spin cost with more PEs than cores -----------------------------------

// Fixed integer work (a xorshift chain): its cost is CPU time, so unlike
// Env::compute, which spins to a wall-clock deadline, it takes longer when
// a spinning PE steals its core.
std::atomic<std::uint64_t> g_work_sink{0};

void* oversub_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  const int half = env->size() / 2;
  const int steps = env->global<int>("steps").get();
  const int work = env->global<int>("work").get();
  env->barrier();
  int v = 0;
  if (me < half) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(me);
    for (int s = 0; s < steps; ++s) {
      for (int i = 0; i < work; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      v = s;
      env->send(&v, 1, mpi::Datatype::Int, me + half, 7);
      env->recv(&v, 1, mpi::Datatype::Int, me + half, 8);
    }
    g_work_sink.fetch_add(x, std::memory_order_relaxed);
  } else {
    for (int s = 0; s < steps; ++s) {
      env->recv(&v, 1, mpi::Datatype::Int, me - half, 7);
      env->send(&v, 1, mpi::Datatype::Int, me - half, 8);
    }
  }
  env->barrier();
  return nullptr;
}

// CPU time of every thread in the process, PE threads included.
double process_cpu_s() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

struct OversubResult {
  int pes = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

OversubResult run_oversub(int pes, int steps, int work) {
  img::ImageBuilder b("oversub");
  b.add_global<int>("steps", steps);
  b.add_global<int>("work", work);
  b.add_function("mpi_main", &oversub_main);
  const img::ProgramImage image = b.build();
  // One rank per PE (block map), default scheduling.
  mpi::Runtime rt(image, base_config(pes, pes));
  const auto w0 = std::chrono::steady_clock::now();
  const double c0 = process_cpu_s();
  rt.run();
  OversubResult r;
  r.pes = pes;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           w0)
                 .count();
  r.cpu_s = process_cpu_s() - c0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const int pings = quick ? 400 : 1500;
  const int hog_iters = quick ? 150 : 500;
  const int reps = quick ? 5 : 11;

  std::printf("sched tail latency: %d ranks on %d PEs, ping pair vs %d "
              "compute hogs (%.0f us hog slices)\n\n",
              kVps, kPes, kHogs, kHogChunkS * 1e6);

  const std::vector<std::string> modes = {"fifo", "prio", "prio+steal"};
  const std::vector<ModeResult> best = sweep(modes, pings, hog_iters, reps);

  std::printf("(per mode: rep with the best in-operation p99 of %d "
              "interleaved reps; bare = %d pings with the hogs parked, "
              "in-op = pings that finished while a hog ran)\n",
              reps, pings);
  std::printf("%-11s | %-26s | %-33s | %10s %10s %7s\n", "",
              "bare round trip (us)", "in-operation round trip (us)", "", "",
              "");
  std::printf("%-11s | %8s %8s %8s | %6s %8s %8s %8s | %10s %10s %7s\n",
              "mode", "p50", "p99", "p999", "n", "p50", "p99", "p999",
              "pings/s", "hog it/s", "steals");
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const ModeResult& r = best[m];
    std::printf(
        "%-11s | %8.1f %8.1f %8.1f | %6zu %8.1f %8.1f %8.1f | %10.0f %10.0f "
        "%7llu\n",
        modes[m].c_str(), r.bare.p50_us, r.bare.p99_us, r.bare.p999_us,
        r.op_pings, r.op.p50_us, r.op.p99_us, r.op.p999_us, r.ping_rate,
        r.hog_rate,
        static_cast<unsigned long long>(r.sched[util::Ctr::SchedStealsIn]));
  }

  const double speedup = best[2].op.p99_us > 0.0
                             ? best[0].op.p99_us / best[2].op.p99_us
                             : 0.0;
  const bool pass = speedup >= 2.0;
  std::printf("\nin-operation p99: fifo %.1f us, prio %.1f us, prio+steal "
              "%.1f us\n",
              best[0].op.p99_us, best[1].op.p99_us, best[2].op.p99_us);
  std::printf("in-operation p999: prio+steal %.1f us vs prio %.1f us "
              "(reported, not gated)\n",
              best[2].op.p999_us, best[1].op.p999_us);
  std::printf("acceptance: prio+steal in-operation p99 >= 2x better than "
              "fifo (%.1fx) -> %s\n",
              speedup, pass ? "PASS" : "FAIL");

  // Spin cost with more PEs than cores.
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int steps = quick ? 300 : 1000;
  const int work = 200000;  // xorshift rounds per worker step
  const int oreps = quick ? 3 : 5;
  std::printf("\nspin cost, PEs > cores: %d cores; half the PEs run %d "
              "steps of %d xorshift rounds, half answer one ping per step "
              "(median of %d interleaved reps)\n",
              cores, steps, work, oreps);
  std::printf("%5s | %8s %8s %9s\n", "PEs", "wall s", "cpu s", "cpu/wall");
  const std::vector<int> pe_counts = {2 * cores, 4 * cores};
  std::vector<std::vector<double>> walls(pe_counts.size());
  std::vector<std::vector<double>> cpus(pe_counts.size());
  for (int rep = 0; rep < oreps; ++rep)
    for (std::size_t j = 0; j < pe_counts.size(); ++j) {
      const std::size_t k = (static_cast<std::size_t>(rep) + j) %
                            pe_counts.size();
      const OversubResult r = run_oversub(pe_counts[k], steps, work);
      walls[k].push_back(r.wall_s);
      cpus[k].push_back(r.cpu_s);
    }
  std::vector<OversubResult> oversub;
  for (std::size_t k = 0; k < pe_counts.size(); ++k) {
    OversubResult r;
    r.pes = pe_counts[k];
    r.wall_s = util::quantile(walls[k], 0.5);
    r.cpu_s = util::quantile(cpus[k], 0.5);
    oversub.push_back(r);
    std::printf("%5d | %8.3f %8.3f %9.2f\n", r.pes, r.wall_s, r.cpu_s,
                r.wall_s > 0.0 ? r.cpu_s / r.wall_s : 0.0);
  }

  std::FILE* json = std::fopen("BENCH_sched.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n  \"bench\": \"sched_tail\",\n  \"quick\": %s,\n"
                 "  \"vps\": %d,\n  \"pes\": %d,\n  \"pings\": %d,\n"
                 "  \"hog_iters\": %d,\n  \"reps\": %d,\n",
                 quick ? "true" : "false", kVps, kPes, pings, hog_iters,
                 reps);
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const ModeResult& r = best[m];
      std::string key = modes[m] == "prio+steal" ? "prio_steal" : modes[m];
      std::fprintf(
          json,
          "  \"%s\": {\"bare_p50_us\": %.2f, \"bare_p99_us\": %.2f, "
          "\"bare_p999_us\": %.2f, \"op_pings\": %zu, \"p50_us\": %.2f, "
          "\"p99_us\": %.2f, \"p999_us\": %.2f, \"ping_rate\": %.0f, "
          "\"hog_rate\": %.0f, \"steals\": %llu},\n",
          key.c_str(), r.bare.p50_us, r.bare.p99_us, r.bare.p999_us,
          r.op_pings, r.op.p50_us, r.op.p99_us, r.op.p999_us, r.ping_rate,
          r.hog_rate,
          static_cast<unsigned long long>(r.sched[util::Ctr::SchedStealsIn]));
    }
    std::fprintf(json, "  \"oversubscribed\": [");
    for (std::size_t k = 0; k < oversub.size(); ++k)
      std::fprintf(json,
                   "%s{\"pes\": %d, \"cores\": %d, \"steps\": %d, "
                   "\"wall_s\": %.4f, \"cpu_s\": %.4f}",
                   k == 0 ? "" : ", ", oversub[k].pes, cores, steps,
                   oversub[k].wall_s, oversub[k].cpu_s);
    std::fprintf(json,
                 "],\n  \"p99_speedup_vs_fifo\": %.2f,\n"
                 "  \"target_speedup\": 2.0,\n  \"pass\": %s\n}\n",
                 speedup, pass ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_sched.json\n");
  }
  return 0;
}
