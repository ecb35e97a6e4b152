// Collective-latency microbenchmark for the hierarchical (two-level
// PE-leader) algorithms.
//
// Runs 64 virtual ranks on 4 PEs — 16-way overdecomposition, the regime the
// paper's process virtualization targets — and times barrier / bcast /
// reduce / allreduce plus the vector family gather / allgather / alltoall
// at 8 B and 64 KiB blocks (the 64 KiB vector cases drop to 16 ranks so the
// n-block aggregates stay a few MiB) under:
//
//   hier  — coll.algo=hier (default): co-resident ranks combine through a
//           shared per-PE contribution block, one leader per PE runs the
//           inter-PE phase (recursive doubling, Rabenseifner above the
//           size cutoff)
//   naive — coll.algo=naive: the seed's flat rank-level algorithms
//
// Also times a same-PE inline ping-pong (pre-posted receives, so every send
// hits the user-buffer fast path) against comm.inline=off, and runs an
// mpptest-style sweep: bcast / reduce / gather / allgather / alltoall over
// every combination of root position (first / middle / last, where rooted),
// aggregate size (4 B .. 64 KiB), and communicator subset (world,
// contiguous halves, contiguous quarters — the subsets run concurrently,
// so the sweep sees realistic contention).
// Prints a table and writes BENCH_collectives.json; `--quick` shrinks
// iteration counts for CI smoke runs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "comm/payload.hpp"
#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/stats.hpp"

using namespace apv;

namespace {

constexpr int kVps = 64;
constexpr int kPes = 4;

enum CollKind : int {
  kBenchBarrier = 0,
  kBenchBcast = 1,
  kBenchReduce = 2,
  kBenchAllreduce = 3,
  kBenchGather = 4,
  kBenchAllgather = 5,
  kBenchAlltoall = 6,
};

const char* kind_name(int k) {
  switch (k) {
    case kBenchBarrier: return "barrier";
    case kBenchBcast: return "bcast";
    case kBenchReduce: return "reduce";
    case kBenchAllreduce: return "allreduce";
    case kBenchGather: return "gather";
    case kBenchAllgather: return "allgather";
    default: return "alltoall";
  }
}

void* coll_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int kind = env->global<int>("coll_kind").get();
  const int count = env->global<int>("elem_count").get();
  const int iters = env->global<int>("iters").get();
  const int n = env->size();
  // Vector collectives move per-rank blocks: the send side is `count` ints,
  // the aggregate side n*count (allocated only where a rank receives it).
  const bool vec = kind >= kBenchGather;
  const std::size_t inlen =
      static_cast<std::size_t>(count) * (kind == kBenchAlltoall ? n : 1);
  const std::size_t outlen =
      static_cast<std::size_t>(count) *
      (vec && (kind != kBenchGather || env->rank() == 0) ? n : 1);
  std::vector<int> in(inlen, env->rank() + 1);
  std::vector<int> out(outlen, 0);

  env->barrier();
  const double t0 = env->wtime();
  for (int i = 0; i < iters; ++i) {
    switch (kind) {
      case kBenchBarrier:
        env->barrier();
        break;
      case kBenchBcast:
        env->bcast(in.data(), count, mpi::Datatype::Int, 0);
        break;
      case kBenchReduce:
        env->reduce(in.data(), out.data(), count, mpi::Datatype::Int,
                    mpi::Op::builtin(mpi::OpKind::Sum), 0);
        break;
      case kBenchAllreduce:
        env->allreduce(in.data(), out.data(), count, mpi::Datatype::Int,
                       mpi::Op::builtin(mpi::OpKind::Sum));
        break;
      case kBenchGather:
        env->gather(in.data(), count, mpi::Datatype::Int, out.data(), count,
                    mpi::Datatype::Int, 0);
        break;
      case kBenchAllgather:
        env->allgather(in.data(), count, mpi::Datatype::Int, out.data(),
                       count, mpi::Datatype::Int);
        break;
      default:
        env->alltoall(in.data(), count, mpi::Datatype::Int, out.data(), count,
                      mpi::Datatype::Int);
        break;
    }
  }
  const double us = (env->wtime() - t0) / iters * 1e6;
  env->barrier();
  if (env->rank() != 0) return nullptr;
  const auto packed = static_cast<float>(us);
  void* ret = nullptr;
  std::memcpy(&ret, &packed, sizeof packed);
  return ret;
}

struct CollResult {
  double us = 0.0;
  util::Counters counters;
};

CollResult run_coll(int kind, int count, int iters, bool hier,
                    int vps = kVps) {
  img::ImageBuilder b("collbench");
  b.add_global<int>("coll_kind", kind);
  b.add_global<int>("elem_count", count);
  b.add_global<int>("iters", iters);
  b.add_function("mpi_main", &coll_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = kPes;
  cfg.vps = vps;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{4} << 20;
  cfg.options.set("coll.algo", hier ? "hier" : "naive");
  // The baseline is the seed's flat path: no inline fast path either.
  if (!hier) cfg.options.set("comm.inline", "off");
  mpi::Runtime rt(image, cfg);
  rt.run();
  CollResult r;
  float us = 0.0f;
  void* ret = rt.rank_return(0);
  std::memcpy(&us, &ret, sizeof us);
  r.us = us;
  r.counters = rt.all_counters();
  return r;
}

// Same-PE message rate: the receiver pre-posts a window of receives and
// signals readiness with a zero-byte token; the sender then streams the
// window. Every streamed send finds a posted receive, so with the fast path
// on it takes the inline user-buffer copy; with comm.inline=off the same
// messages ride the mailbox + payload pool. Windowing amortizes ULT
// scheduling, so the ratio isolates the per-message delivery path.
constexpr int kPpWindow = 64;

void* inline_pp_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int total = env->global<int>("iters").get();
  const int peer = 1 - env->rank();
  std::vector<int> win(kPpWindow, 0);
  char token = 0;
  env->barrier();
  const double t0 = env->wtime();
  if (env->rank() == 0) {
    for (int sent = 0; sent < total;) {
      const int w = std::min(kPpWindow, total - sent);
      env->recv(&token, 1, mpi::Datatype::Byte, peer, 12);
      for (int i = 0; i < w; ++i)
        env->send(&win[static_cast<std::size_t>(i)], 1, mpi::Datatype::Int,
                  peer, 10);
      sent += w;
    }
  } else {
    std::vector<mpi::Request> reqs(kPpWindow);
    for (int got = 0; got < total;) {
      const int w = std::min(kPpWindow, total - got);
      for (int i = 0; i < w; ++i)
        reqs[static_cast<std::size_t>(i)] = env->irecv(
            &win[static_cast<std::size_t>(i)], 1, mpi::Datatype::Int, peer,
            10);
      env->send(&token, 1, mpi::Datatype::Byte, peer, 12);
      env->waitall(w, reqs.data());
      got += w;
    }
  }
  const double secs = env->wtime() - t0;
  env->barrier();
  if (env->rank() != 0) return nullptr;
  const auto rate = static_cast<float>(total / secs / 1e6);  // Mmsg/s
  void* ret = nullptr;
  std::memcpy(&ret, &rate, sizeof rate);
  return ret;
}

struct PpResult {
  double rate_mps = 0.0;
  util::CounterValues counters;
  comm::PoolStats pool;
};

PpResult run_pingpong(int reps, bool inline_on) {
  img::ImageBuilder b("inlinebench");
  b.add_global<int>("iters", reps);
  b.add_function("mpi_main", &inline_pp_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{4} << 20;
  if (!inline_on) cfg.options.set("comm.inline", "off");
  mpi::Runtime rt(image, cfg);
  comm::pool::reset_stats();  // process-wide: isolate this run's traffic
  rt.run();
  PpResult r;
  float rate = 0.0f;
  void* ret = rt.rank_return(0);
  std::memcpy(&rate, &ret, sizeof rate);
  r.rate_mps = rate;
  r.counters = rt.cluster().totals();
  r.pool = comm::pool::stats();
  return r;
}

// --- mpptest-style sweep ----------------------------------------------------
//
// One Runtime run per (collective, subset shape); inside it every rank
// joins its subset communicator and the whole grid of root positions x
// sizes is timed back to back. Results land in a process-level array (the
// ranks are ULTs in this address space) written only by rank 0's subset,
// read by main after the runtime joins.

constexpr int kSweepRoots = 3;             // first, middle, last
constexpr int kSweepSizes = 4;             // 4 B, 256 B, 4 KiB, 64 KiB
const int kSweepCounts[kSweepSizes] = {1, 64, 1024, 16384};
double g_sweep_us[kSweepRoots * kSweepSizes];

void* sweep_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int kind = env->global<int>("coll_kind").get();
  const int parts = env->global<int>("subset_parts").get();
  const int iters = env->global<int>("iters").get();
  const int per = env->size() / parts;
  const int color = env->rank() / per;

  mpi::CommId comm = mpi::kCommWorld;
  if (parts > 1)
    comm = env->comm_split(mpi::kCommWorld, color, env->rank() % per);
  const int csize = env->size(comm);
  const int roots[kSweepRoots] = {0, csize / 2, csize - 1};

  // For the vector collectives the sweep size is the *aggregate* payload
  // (mpptest convention: total bytes moved per rank), so the per-rank block
  // is count/csize; root position only matters for the rooted gather.
  const bool vec = kind >= kBenchGather;
  const int nroots =
      kind == kBenchAllgather || kind == kBenchAlltoall ? 1 : kSweepRoots;
  std::vector<int> in(static_cast<std::size_t>(kSweepCounts[kSweepSizes - 1]),
                      env->rank() + 1);
  std::vector<int> out(in.size(), 0);
  for (int ri = 0; ri < nroots; ++ri) {
    for (int si = 0; si < kSweepSizes; ++si) {
      const int count = kSweepCounts[si];
      const int block = vec ? std::max(1, count / csize) : count;
      const int reps = count > 1024 ? std::max(1, iters / 8) : iters;
      env->barrier(comm);
      const double t0 = env->wtime();
      for (int i = 0; i < reps; ++i) {
        switch (kind) {
          case kBenchBcast:
            env->bcast(in.data(), count, mpi::Datatype::Int, roots[ri], comm);
            break;
          case kBenchReduce:
            env->reduce(in.data(), out.data(), count, mpi::Datatype::Int,
                        mpi::Op::builtin(mpi::OpKind::Sum), roots[ri], comm);
            break;
          case kBenchGather:
            env->gather(in.data(), block, mpi::Datatype::Int, out.data(),
                        block, mpi::Datatype::Int, roots[ri], comm);
            break;
          case kBenchAllgather:
            env->allgather(in.data(), block, mpi::Datatype::Int, out.data(),
                           block, mpi::Datatype::Int, comm);
            break;
          default:
            env->alltoall(in.data(), block, mpi::Datatype::Int, out.data(),
                          block, mpi::Datatype::Int, comm);
            break;
        }
      }
      const double us = (env->wtime() - t0) / reps * 1e6;
      env->barrier(comm);
      // The subset containing world rank 0 reports; the others exist to
      // contend for the PEs, as concurrent subsets do in a real job.
      if (env->rank() == 0) g_sweep_us[ri * kSweepSizes + si] = us;
    }
  }
  if (parts > 1) env->comm_free(comm);
  env->barrier();
  return nullptr;
}

void run_sweep_case(int kind, int parts, int iters) {
  img::ImageBuilder b("collsweep");
  b.add_global<int>("coll_kind", kind);
  b.add_global<int>("subset_parts", parts);
  b.add_global<int>("iters", iters);
  b.add_function("mpi_main", &sweep_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = kPes;
  cfg.vps = kVps;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{4} << 20;
  mpi::Runtime rt(image, cfg);
  rt.run();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  std::FILE* json = std::fopen("BENCH_collectives.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n  \"bench\": \"collectives\",\n  \"quick\": %s,\n"
                 "  \"vps\": %d,\n  \"pes\": %d,\n  \"cases\": [\n",
                 quick ? "true" : "false", kVps, kPes);
  }

  std::printf("collectives: hierarchical (PE-leader) vs naive (flat), "
              "%d ranks on %d PEs\n\n", kVps, kPes);
  std::printf("%-10s %-7s | %10s %10s %8s\n", "collective", "bytes",
              "hier us", "naive us", "speedup");

  // 8 B = 2 ints (latency-bound), 64 KiB = 16384 ints (bandwidth-bound,
  // above the Rabenseifner cutoff for allreduce).
  const std::vector<int> counts = {2, 16384};
  double allred_speedup[2] = {0.0, 0.0};
  double allgather_speedup[2] = {0.0, 0.0};
  double alltoall_speedup[2] = {0.0, 0.0};
  bool first = true;
  for (const int kind :
       {kBenchBarrier, kBenchBcast, kBenchReduce, kBenchAllreduce,
        kBenchGather, kBenchAllgather, kBenchAlltoall}) {
    for (std::size_t ci = 0; ci < counts.size(); ++ci) {
      const int count = counts[ci];
      if (kind == kBenchBarrier && count != counts.front()) continue;
      const int bytes = count * 4;
      // The vector collectives carry n of these blocks per operation; at
      // 64 KiB blocks run them on 16 ranks (still 4-way overdecomposed on
      // 4 PEs) so the aggregate buffers stay a few MiB per rank.
      const bool vec = kind >= kBenchGather;
      const int vps = vec && count > 1024 ? 16 : kVps;
      const int iters = quick ? (bytes > 1024 ? 10 : 40)
                              : (bytes > 1024 ? 60 : 400);
      const CollResult hier = run_coll(kind, count, iters, true, vps);
      const CollResult naive = run_coll(kind, count, iters, false, vps);
      const double speedup = hier.us > 0.0 ? naive.us / hier.us : 0.0;
      if (kind == kBenchAllreduce) allred_speedup[ci] = speedup;
      if (kind == kBenchAllgather) allgather_speedup[ci] = speedup;
      if (kind == kBenchAlltoall) alltoall_speedup[ci] = speedup;
      std::printf("%-10s %-7d | %10.1f %10.1f %7.2fx\n", kind_name(kind),
                  kind == kBenchBarrier ? 0 : bytes, hier.us, naive.us,
                  speedup);
      if (json) {
        if (!first) std::fprintf(json, ",\n");
        first = false;
        std::fprintf(json,
                     "    {\"collective\": \"%s\", \"bytes\": %d,"
                     " \"iters\": %d, \"vps\": %d,\n"
                     "     \"hier_us\": %.2f, \"naive_us\": %.2f,"
                     " \"speedup\": %.3f,\n"
                     "     \"hier_counters\": %s}",
                     kind_name(kind), kind == kBenchBarrier ? 0 : bytes,
                     iters, vps, hier.us, naive.us, speedup,
                     hier.counters.to_json().c_str());
      }
    }
  }

  // --- same-PE inline message rate --------------------------------------
  const int reps = quick ? 4000 : 100000;
  const PpResult fast = run_pingpong(reps, true);
  const PpResult off = run_pingpong(reps, false);
  const double pp_speedup =
      off.rate_mps > 0.0 ? fast.rate_mps / off.rate_mps : 0.0;
  const std::uint64_t inline_pool_acquires =
      fast.pool.hits + fast.pool.misses;
  std::printf("\nsame-PE ping-pong (pre-posted receives, %d reps):\n", reps);
  std::printf("  inline on : %8.3f Mmsg/s  (inline_hits=%llu, "
              "pool acquires=%llu)\n",
              fast.rate_mps,
              static_cast<unsigned long long>(
                  fast.counters[util::Ctr::InlineHits]),
              static_cast<unsigned long long>(inline_pool_acquires));
  std::printf("  inline off: %8.3f Mmsg/s\n", off.rate_mps);
  std::printf("  speedup   : %7.2fx (acceptance: >= 3x)\n", pp_speedup);
  std::printf("allreduce speedup at 8 B: %.2fx, at 64 KiB: %.2fx "
              "(acceptance: >= 2x)\n",
              allred_speedup[0], allred_speedup[1]);
  std::printf("allgather speedup at 8 B: %.2fx, at 64 KiB: %.2fx "
              "(acceptance: >= 2x)\n",
              allgather_speedup[0], allgather_speedup[1]);
  std::printf("alltoall  speedup at 8 B: %.2fx, at 64 KiB: %.2fx "
              "(acceptance: >= 2x)\n",
              alltoall_speedup[0], alltoall_speedup[1]);

  if (json) {
    std::fprintf(
        json,
        "\n  ],\n  \"same_pe_pingpong\": {\"reps\": %d,\n"
        "    \"inline_msgs_per_s\": %.0f, \"routed_msgs_per_s\": %.0f,"
        " \"speedup\": %.3f,\n"
        "    \"inline_hits\": %llu, \"inline_misses\": %llu,"
        " \"inline_pool_acquires\": %llu},\n"
        "  \"allreduce_8B_speedup\": %.3f,\n"
        "  \"allreduce_64KiB_speedup\": %.3f,\n",
        reps, fast.rate_mps * 1e6, off.rate_mps * 1e6, pp_speedup,
        static_cast<unsigned long long>(fast.counters[util::Ctr::InlineHits]),
        static_cast<unsigned long long>(
            fast.counters[util::Ctr::InlineMisses]),
        static_cast<unsigned long long>(inline_pool_acquires),
        allred_speedup[0], allred_speedup[1]);
    std::fprintf(json,
                 "  \"allgather_8B_speedup\": %.3f,\n"
                 "  \"allgather_64KiB_speedup\": %.3f,\n"
                 "  \"alltoall_8B_speedup\": %.3f,\n"
                 "  \"alltoall_64KiB_speedup\": %.3f,\n",
                 allgather_speedup[0], allgather_speedup[1],
                 alltoall_speedup[0], alltoall_speedup[1]);
  }

  // --- mpptest-style sweep: roots x sizes x comm subsets ------------------
  const int sweep_iters = quick ? 20 : 200;
  std::printf("\nsweep: bcast/reduce/gather/allgather/alltoall x root "
              "position x aggregate size x comm subset (hier algo, "
              "concurrent subsets)\n");
  std::printf("%-7s %-9s %-5s | %10s %10s %10s %10s\n", "coll", "subset",
              "root", "4 B us", "256 B us", "4 KiB us", "64 KiB us");
  if (json) std::fprintf(json, "  \"sweep\": [\n");
  const char* root_name[kSweepRoots] = {"first", "mid", "last"};
  bool sweep_first = true;
  for (const int kind : {kBenchBcast, kBenchReduce, kBenchGather,
                         kBenchAllgather, kBenchAlltoall}) {
    const int nroots =
        kind == kBenchAllgather || kind == kBenchAlltoall ? 1 : kSweepRoots;
    for (const int parts : {1, 2, 4}) {
      const char* subset =
          parts == 1 ? "world" : (parts == 2 ? "halves" : "quarters");
      run_sweep_case(kind, parts, sweep_iters);
      for (int ri = 0; ri < nroots; ++ri) {
        const char* rn = nroots == 1 ? "n/a" : root_name[ri];
        std::printf("%-7s %-9s %-5s | %10.1f %10.1f %10.1f %10.1f\n",
                    kind_name(kind), subset, rn,
                    g_sweep_us[ri * kSweepSizes + 0],
                    g_sweep_us[ri * kSweepSizes + 1],
                    g_sweep_us[ri * kSweepSizes + 2],
                    g_sweep_us[ri * kSweepSizes + 3]);
        if (json == nullptr) continue;
        for (int si = 0; si < kSweepSizes; ++si) {
          if (!sweep_first) std::fprintf(json, ",\n");
          sweep_first = false;
          std::fprintf(json,
                       "    {\"collective\": \"%s\", \"subset\": \"%s\","
                       " \"comm_size\": %d, \"root\": \"%s\","
                       " \"bytes\": %d, \"us\": %.2f}",
                       kind_name(kind), subset, kVps / parts, rn,
                       kSweepCounts[si] * 4,
                       g_sweep_us[ri * kSweepSizes + si]);
        }
      }
    }
  }

  if (json) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_collectives.json\n");
  }
  return 0;
}
