// Message-rate microbenchmark for the zero-copy transport fast path.
//
// Measures point-to-point message rate (windowed stream, acked) and one-way
// latency (blocking ping-pong) between two virtual ranks, across payload
// sizes, privatization methods, and rank placements (same PE vs. two PEs),
// plus the raw cluster rate underneath (ring mailbox + payload pool +
// small-message aggregation, no MPI matching on top).
//
// Prints a table and writes BENCH_msgrate.json (machine-readable: rates,
// latencies, and the cluster's per-PE comm/pool counters). `--quick`
// shrinks the sweep for CI smoke runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/payload.hpp"
#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/stats.hpp"

using namespace apv;

namespace {

// rank_return carries one void*; pack the two measurements as floats.
struct Packed {
  float rate_mps;  // rate phase: messages per second (millions)
  float lat_us;    // latency phase: one-way microseconds
};
static_assert(sizeof(Packed) <= sizeof(void*));

constexpr int kWindow = 32;  // stream window: bounds in-flight buffers so
                             // the payload pool actually recycles

void* msgrate_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int bytes = env->global<int>("msg_bytes").get();
  const int nmsgs = env->global<int>("nmsgs").get();
  const int reps = env->global<int>("lat_reps").get();
  const int peer = 1 - env->rank();
  std::vector<char> buf(static_cast<std::size_t>(bytes), 'x');
  char ack = 0;

  env->barrier();
  Packed out{0.0f, 0.0f};

  // --- rate: windowed stream rank0 -> rank1, one ack per window ---------
  if (env->rank() == 0) {
    const double t0 = env->wtime();
    for (int sent = 0; sent < nmsgs;) {
      const int w = std::min(kWindow, nmsgs - sent);
      for (int i = 0; i < w; ++i)
        env->send(buf.data(), bytes, mpi::Datatype::Byte, peer, 1);
      sent += w;
      env->recv(&ack, 1, mpi::Datatype::Byte, peer, 2);
    }
    const double secs = env->wtime() - t0;
    out.rate_mps = static_cast<float>(nmsgs / secs / 1e6);
  } else {
    for (int got = 0; got < nmsgs;) {
      const int w = std::min(kWindow, nmsgs - got);
      for (int i = 0; i < w; ++i)
        env->recv(buf.data(), bytes, mpi::Datatype::Byte, peer, 1);
      got += w;
      env->send(&ack, 1, mpi::Datatype::Byte, peer, 2);
    }
  }

  env->barrier();

  // --- latency: blocking ping-pong, half round-trip -------------------
  if (env->rank() == 0) {
    const double t0 = env->wtime();
    for (int i = 0; i < reps; ++i) {
      env->send(buf.data(), bytes, mpi::Datatype::Byte, peer, 3);
      env->recv(buf.data(), bytes, mpi::Datatype::Byte, peer, 4);
    }
    const double rtt_us = (env->wtime() - t0) / reps * 1e6;
    out.lat_us = static_cast<float>(rtt_us / 2.0);
  } else {
    for (int i = 0; i < reps; ++i) {
      env->recv(buf.data(), bytes, mpi::Datatype::Byte, peer, 3);
      env->send(buf.data(), bytes, mpi::Datatype::Byte, peer, 4);
    }
  }

  env->barrier();
  void* ret = nullptr;
  std::memcpy(&ret, &out, sizeof out);
  return ret;
}

struct CaseResult {
  double rate_mps = 0.0;
  double lat_us = 0.0;
  util::Counters stats;  // comm.* + pool.* counters from the cluster
};

img::ProgramImage build_program(int msg_bytes, int nmsgs, int lat_reps,
                                bool tag_tls) {
  img::ImageBuilder b("msgrate");
  b.add_global<int>("msg_bytes", msg_bytes, {.is_tls = tag_tls});
  b.add_global<int>("nmsgs", nmsgs, {.is_tls = tag_tls});
  b.add_global<int>("lat_reps", lat_reps, {.is_tls = tag_tls});
  b.add_function("mpi_main", &msgrate_main);
  return b.build();
}

CaseResult run_case(core::Method method, int pes, int msg_bytes, int nmsgs,
                    int lat_reps) {
  const img::ProgramImage image = build_program(
      msg_bytes, nmsgs, lat_reps, method == core::Method::TLSglobals);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = pes;
  cfg.vps = 2;
  cfg.method = method;
  cfg.slot_bytes = std::size_t{8} << 20;
  mpi::Runtime rt(image, cfg);
  comm::pool::reset_stats();
  rt.run();
  CaseResult r;
  Packed p;
  void* ret = rt.rank_return(0);
  std::memcpy(&p, &ret, sizeof p);
  r.rate_mps = p.rate_mps;
  r.lat_us = p.lat_us;
  r.stats = rt.all_counters();
  return r;
}

// Raw transport rate: PE0's loop thread floods PE1 with user-data messages
// through the cluster (no MPI matching, no ULT wakeups on top), so what's
// timed is exactly the mailbox + pool + aggregation path. Returns delivered
// messages per second (millions).
double raw_rate_mps(int bytes, int nmsgs) {
  comm::Cluster::Config cc;
  cc.nodes = 1;
  cc.pes_per_node = 2;
  comm::Cluster cluster(cc);
  std::atomic<int> received{0};
  std::atomic<std::int64_t> finish_ns{0};
  cluster.pe(1).set_dispatcher([&](comm::Message&& m) {
    if (m.kind != comm::Message::Kind::UserData) return;
    // Single-writer count (only PE1's loop thread runs this dispatcher);
    // the dispatcher stamps the finish time itself so the main thread can
    // wait coarsely without stealing cycles from the PE loops (this
    // matters on small core counts).
    const int n = received.load(std::memory_order_relaxed) + 1;
    received.store(n, std::memory_order_relaxed);
    if (n == nmsgs) {
      finish_ns.store(std::chrono::steady_clock::now()
                          .time_since_epoch()
                          .count(),
                      std::memory_order_release);
    }
  });
  cluster.pe(0).set_dispatcher([&](comm::Message&& m) {
    if (m.kind != comm::Message::Kind::Control) return;
    for (int i = 0; i < nmsgs; ++i) {
      comm::Message u;
      u.kind = comm::Message::Kind::UserData;
      u.dst_pe = 1;
      u.tag = 5;
      u.seq = static_cast<std::uint64_t>(i);
      u.payload = comm::Payload::acquire(static_cast<std::size_t>(bytes));
      cluster.send(std::move(u));
    }
  });
  cluster.start();
  const auto t0 = std::chrono::steady_clock::now();
  comm::Message kick;
  kick.kind = comm::Message::Kind::Control;
  kick.dst_pe = 0;
  cluster.send(std::move(kick));
  while (finish_ns.load(std::memory_order_acquire) == 0)
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  const double secs =
      static_cast<double>(finish_ns.load(std::memory_order_acquire) -
                          t0.time_since_epoch().count()) *
      1e-9;
  cluster.stop_and_join();
  return nmsgs / secs / 1e6;
}

const char* bench_method_name(core::Method m) {
  switch (m) {
    case core::Method::TLSglobals: return "tlsglobals";
    case core::Method::PIEglobals: return "pieglobals";
    default: return "none";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const std::vector<core::Method> methods =
      quick ? std::vector<core::Method>{core::Method::None}
            : std::vector<core::Method>{core::Method::None,
                                        core::Method::TLSglobals,
                                        core::Method::PIEglobals};
  const std::vector<int> sizes =
      quick ? std::vector<int>{16, 64, 4096}
            : std::vector<int>{16, 64, 512, 4096, 65536};
  const int base_msgs = quick ? 2000 : 30000;
  const int lat_reps = quick ? 200 : 2000;

  std::FILE* json = std::fopen("BENCH_msgrate.json", "w");
  if (json) {
    std::fprintf(json, "{\n  \"bench\": \"msgrate\",\n  \"quick\": %s,\n"
                 "  \"window\": %d,\n  \"raw_cases\": [\n",
                 quick ? "true" : "false", kWindow);
  }

  std::printf("msgrate: ring mailbox + payload pool + aggregation\n\n");

  // --- raw transport rate: the cluster path alone ------------------------
  const int raw_msgs = quick ? 20000 : 200000;
  std::printf("raw transport rate (PE0 loop floods PE1 through the "
              "cluster, %d msgs):\n", raw_msgs);
  std::printf("%-7s | %10s %10s\n", "bytes", "Mmsg/s", "ns/msg");
  bool first_raw = true;
  for (int bytes : sizes) {
    const int nm = (bytes >= 65536) ? raw_msgs / 8 : raw_msgs;
    const double rate = raw_rate_mps(bytes, nm);
    const double ns = rate > 0 ? 1e3 / rate : 0.0;
    std::printf("%-7d | %10.3f %10.1f\n", bytes, rate, ns);
    if (json) {
      if (!first_raw) std::fprintf(json, ",\n");
      first_raw = false;
      std::fprintf(json,
                   "    {\"bytes\": %d, \"nmsgs\": %d,"
                   " \"msgs_per_s\": %.0f, \"ns_per_msg\": %.1f}",
                   bytes, nm, rate * 1e6, ns);
    }
  }
  if (json) std::fprintf(json, "\n  ],\n  \"cases\": [\n");

  // --- end-to-end MPI rate/latency: the per-recv ULT scheduling cost sits
  // on top of the transport, so rates here are below the raw slice.
  std::printf("\nend-to-end MPI p2p (window=%d, rate msgs=%d, latency "
              "reps=%d):\n", kWindow, base_msgs, lat_reps);
  std::printf("%-9s %-11s %-7s | %10s %10s\n", "placement", "method",
              "bytes", "Mmsg/s", "lat us");
  bool first_case = true;

  for (int pes : {1, 2}) {
    const char* placement = (pes == 1) ? "intra_pe" : "inter_pe";
    for (core::Method method : methods) {
      for (int bytes : sizes) {
        const int nmsgs = (bytes >= 65536) ? base_msgs / 8 : base_msgs;
        const CaseResult r = run_case(method, pes, bytes, nmsgs, lat_reps);
        std::printf("%-9s %-11s %-7d | %10.3f %10.3f\n", placement,
                    bench_method_name(method), bytes, r.rate_mps, r.lat_us);
        if (json) {
          if (!first_case) std::fprintf(json, ",\n");
          first_case = false;
          std::fprintf(
              json,
              "    {\"placement\": \"%s\", \"method\": \"%s\","
              " \"bytes\": %d, \"nmsgs\": %d,\n"
              "     \"msgs_per_s\": %.0f, \"ns_per_msg\": %.1f,"
              " \"latency_us\": %.3f,\n"
              "     \"counters\": %s}",
              placement, bench_method_name(method), bytes, nmsgs,
              r.rate_mps * 1e6, r.rate_mps > 0 ? 1e3 / r.rate_mps : 0.0,
              r.lat_us, r.stats.to_json().c_str());
        }
      }
    }
  }

  if (json) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_msgrate.json\n");
  }
  return 0;
}
