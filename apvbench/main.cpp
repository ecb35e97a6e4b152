// apvbench: the end-to-end benchmark of the apv runtime.
//
//   apvbench --workload p2p|stencil|surge_lb|collectives --seed N
//            --seconds S --trace 0|1 [--out DIR] [--commit SHA]
//
// One process runs one workload on one mpi::Runtime configuration: 1 node,
// 3 PEs, block map, defaults for every option. It builds the workload's
// program image from the seed, runs one warm-up rep, then reps until S
// seconds are spent (at least kMinReps). A rep constructs a Runtime (timed:
// setup_s), runs it (timed: ops_per_s), checks every op's result, and
// snapshots Runtime::all_counters() and init_time_s().
//
// --trace 0 reports the end-to-end metrics from untraced reps. --trace 1
// alternates untraced and traced reps and reports the per-layer metrics
// from the traced ones, plus trace.overhead (untraced vs traced ops_per_s).
// The last stdout line is one JSON object with correct / attempted /
// failed / metrics; a human-readable table goes to stderr, and the full
// result (configuration, raw counters, metrics) to DIR.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "comm/payload.hpp"
#include "mpi/runtime.hpp"
#include "util/sanitizers.hpp"
#include "util/stats.hpp"

using namespace apvbench;
namespace comm = apv::comm;

namespace {

constexpr int kPes = 3;
constexpr int kMinReps = 3;

// Environment overrides the runtime reads; CI exports some of them for
// ctest. The benchmark measures the defaults, so it clears them.
constexpr const char* kEnvOverrides[] = {"APV_TRANSPORT", "APV_SCHED_PREEMPT",
                                         "APV_SCHED_STEAL", "APV_CHECK_MODE",
                                         "APV_SHM_JOB"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string commit = "unknown";
};

/// One constructed-and-run Runtime.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  double init_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::string error;
  double p50_us = 0.0;  ///< op latency quantiles over this rep's ops
  double p99_us = 0.0;
  double rss_mb = 0.0;  ///< peak resident set while this rep ran
  util::Counters counters;
  // Trace aggregates summed over the timing ranks.
  double kind_us[kSpanKinds] = {};
  std::uint64_t kind_calls[kSpanKinds] = {};
  double layer_self_us[kLayers] = {};
  double op_total_us = 0.0;
  double op_covered_us = 0.0;
  std::uint64_t spans_dropped = 0;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "p2p") return make_p2p(seed);
  if (name == "stencil") return make_stencil(seed);
  if (name == "surge_lb") return make_surge(seed);
  if (name == "collectives") return make_collectives(seed);
  throw std::runtime_error("unknown workload '" + name + "'");
}

mpi::RuntimeConfig runtime_config(const Workload& w) {
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = kPes;
  cfg.vps = w.vps;
  cfg.method = w.method;
  cfg.map = "block";
  return cfg;
}

double median(std::vector<double> v) { return util::quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count or the base of a ratio
};

// Peak resident set since the last reset_peak_rss(): VmHWM. (getrusage's
// ru_maxrss cannot be reset, and it also carries the high-water mark of
// the process that forked this one, here the Python launcher.)
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

// Constructs and runs one Runtime; writes its spans to `trace_path` unless
// that is empty.
Rep run_rep(const Workload& w, const mpi::RuntimeConfig& cfg, bool traced,
            const std::string& trace_path) {
  Rep rep;
  rep.traced = traced;
  rep.attempted = w.ops_per_rep;
  const std::size_t per_rank = w.ops_per_rep / w.timing_ranks.size();
  // About 64k spans per traced rep in all, however many ranks are timed.
  const std::size_t span_cap =
      std::max<std::size_t>(1024, (std::size_t{1} << 16) / w.timing_ranks.size());
  std::vector<RankLog>& ls = logs();
  ls.assign(static_cast<std::size_t>(w.vps), RankLog{});
  for (int r = 0; r < w.vps; ++r) {
    const bool timing = std::find(w.timing_ranks.begin(), w.timing_ranks.end(),
                                  r) != w.timing_ranks.end();
    ls[static_cast<std::size_t>(r)].reset(timing, traced, per_rank,
                                          span_cap);
  }

  reset_peak_rss();
  const double t0 = now_us();
  try {
    mpi::Runtime rt(w.image, cfg);
    rep.setup_s = (now_us() - t0) * 1e-6;
    rep.init_s = rt.init_time_s();
    comm::pool::reset_stats();
    const double t1 = now_us();
    try {
      rt.run();
    } catch (const std::exception& e) {
      rep.error = e.what();
    }
    rep.run_s = (now_us() - t1) * 1e-6;
    rep.counters = rt.all_counters();
  } catch (const std::exception& e) {
    if (rep.error.empty()) rep.error = e.what();
  }

  rep.rss_mb = peak_rss_mb();

  std::vector<double> samples;
  samples.reserve(w.ops_per_rep);
  for (const RankLog& l : ls) {
    if (!l.timing()) continue;
    rep.completed += l.ops();
    rep.failed += l.failed();
    samples.insert(samples.end(), l.op_us().begin(), l.op_us().end());
    for (int k = 0; k < kSpanKinds; ++k) {
      rep.kind_us[k] += l.kind_us(static_cast<Span>(k));
      rep.kind_calls[k] += l.kind_calls(static_cast<Span>(k));
    }
    for (int k = 0; k < kLayers; ++k)
      rep.layer_self_us[k] += l.layer_self_us(static_cast<Layer>(k));
    rep.op_total_us += l.op_total_us();
    rep.op_covered_us += l.op_covered_us();
    rep.spans_dropped += l.dropped();
  }
  rep.p50_us = util::quantile(samples, 0.50);
  rep.p99_us = util::quantile(std::move(samples), 0.99);
  if (w.verify) rep.failed += w.verify(ls);
  // Ops that never completed (a throw, an abandoned rank) failed too.
  rep.failed += rep.attempted - std::min(rep.attempted, rep.completed);
  rep.failed = std::min(rep.failed, rep.attempted);
  if (!trace_path.empty()) write_chrome_trace(trace_path, ls, t0);
  return rep;
}

// Every end-to-end metric is the median over the untraced reps of that
// rep's own figure, so a rep slowed by a noisy neighbour moves no metric.
std::vector<Metric> end_to_end(const Workload& w, const std::vector<Rep>& reps,
                               std::uint64_t attempted,
                               std::uint64_t failed) {
  std::vector<double> setup, rate, p50, p99, rss;
  for (const Rep& r : reps) {
    if (r.traced) continue;
    setup.push_back(r.setup_s);
    rate.push_back(ratio(static_cast<double>(r.completed), r.run_s));
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
    rss.push_back(r.rss_mb);
  }
  const std::string n_reps = "median of " + std::to_string(setup.size()) +
                             " reps of " + std::to_string(w.ops_per_rep) +
                             " ops";
  const auto beyond_p99 =
      w.ops_per_rep - static_cast<std::uint64_t>(
                          std::ceil(0.99 * static_cast<double>(w.ops_per_rep)));
  return {
      {"setup_s", median(setup), "s", n_reps},
      {"ops_per_s", median(rate), "op/s", n_reps},
      {"op_p50_us", median(p50), "us", n_reps},
      {"op_p99_us", median(p99), "us",
       n_reps + ", " + std::to_string(beyond_p99) + " beyond p99 in each"},
      {"error_rate", ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
       "fraction", std::to_string(failed) + " of " + std::to_string(attempted)},
      {"peak_rss_mb", median(rss), "MiB", n_reps + ", VmHWM"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const std::vector<Rep>& reps) {
  Rep t;  // sums over traced reps
  std::vector<double> init, rate_on, rate_off;
  std::map<std::string, double> c;
  double run_s = 0.0;
  for (const Rep& r : reps) {
    const double rate = ratio(static_cast<double>(r.completed), r.run_s);
    if (!r.traced) {
      rate_off.push_back(rate);
      continue;
    }
    rate_on.push_back(rate);
    init.push_back(r.init_s);
    run_s += r.run_s;
    t.completed += r.completed;
    for (int k = 0; k < kSpanKinds; ++k) {
      t.kind_us[k] += r.kind_us[k];
      t.kind_calls[k] += r.kind_calls[k];
    }
    for (int k = 0; k < kLayers; ++k) t.layer_self_us[k] += r.layer_self_us[k];
    t.op_total_us += r.op_total_us;
    t.op_covered_us += r.op_covered_us;
    t.spans_dropped += r.spans_dropped;
    for (const auto& [name, v] : r.counters.all())
      c[name] += static_cast<double>(v);
  }
  const double ops = static_cast<double>(t.completed);
  const std::string base_ops = "per op, " + std::to_string(t.completed) +
                               " ops in " + std::to_string(rate_on.size()) +
                               " traced reps";
  auto per_op = [&](const char* counter) { return ratio(c[counter], ops); };
  auto us = [&](Span s) { return t.kind_us[static_cast<int>(s)]; };
  auto calls = [&](Span s) {
    return static_cast<double>(t.kind_calls[static_cast<int>(s)]);
  };
  auto per_call = [&](Span s) { return ratio(us(s), calls(s)); };
  auto calls_note = [&](Span s) {
    return "per call, " + std::to_string(t.kind_calls[static_cast<int>(s)]) +
           " calls";
  };
  const double init_s = median(init);
  const double inline_all =
      c["inline_hits"] + c["inline_misses"] + c["inline_fifo_fallbacks"];
  const double pool_all = c["pool.hits"] + c["pool.misses"];
  const double full_img = ratio(c["ckpt_bytes_full"], c["ckpt_images_full"]);
  const double delta_img =
      ratio(c["ckpt_bytes_delta"], c["ckpt_images_delta"]);

  std::vector<Metric> m = {
      {"apps.kernel_us", ratio(us(Span::Kernel), ops), "us", base_ops},
      {"apps.kernel_flops", w.flops_per_op, "flop", "computed, per op"},
      {"apps.kernel_bytes", w.bytes_per_op, "B", "computed, per op"},
      {"core.init_s", init_s, "s", "init_time_s(), median"},
      {"core.init_per_rank_us", init_s / w.vps * 1e6, "us",
       std::to_string(w.vps) + " ranks"},
      {"mpi.send_us", ratio(us(Span::Send), ops), "us", base_ops},
      {"mpi.wait_us", ratio(us(Span::Recv) + us(Span::Waitall), ops), "us",
       base_ops},
      {"mpi.p2p_calls",
       ratio(calls(Span::Send) + calls(Span::Recv) + calls(Span::Irecv) +
                 calls(Span::Waitall),
             ops),
       "count", base_ops},
      {"mpi.inline_hit_ratio", ratio(c["inline_hits"], inline_all), "ratio",
       "of " + std::to_string(static_cast<std::uint64_t>(inline_all)) +
           " same-PE hits+misses+fifo fallbacks"},
  };
  for (Span s : {Span::Allreduce8, Span::Allreduce64K, Span::Bcast4K,
                 Span::Allgather64, Span::Alltoall64, Span::Gatherv,
                 Span::Barrier})
    m.push_back({std::string("mpi.coll_us.") + span_name(s), per_call(s),
                 "us", calls_note(s)});
  const std::vector<Metric> rest = {
      {"mpi.coll_leader_msgs", per_op("coll_leader_msgs"), "count", base_ops},
      {"mpi.coll_shared_rendezvous", per_op("coll_shared_rendezvous"),
       "count", base_ops},
      {"mpi.coll_vec_bytes", per_op("coll_vec_bytes"), "B", base_ops},
      {"comm.sends", per_op("comm.sends"), "count", base_ops},
      {"comm.msgs_per_s", ratio(c["comm.sends"], run_s), "1/s",
       "over traced run time"},
      {"comm.agg_ratio", ratio(c["comm.aggregated"], c["comm.sends"]),
       "ratio", "aggregated of all sends"},
      {"comm.flushes_idle", per_op("comm.flushes_idle"), "count", base_ops},
      {"comm.mailbox_overflow", per_op("comm.mailbox_overflow_pushes"),
       "count", base_ops},
      {"comm.pool_hit_ratio", ratio(c["pool.hits"], pool_all), "ratio",
       "of " + std::to_string(static_cast<std::uint64_t>(pool_all)) +
           " pool acquires"},
      {"comm.pool_bytes_copied", per_op("pool.bytes_copied"), "B", base_ops},
      {"ult.context_switches", per_op("context_switches"), "count", base_ops},
      {"ult.remote_readies", per_op("sched_remote_readies"), "count",
       base_ops},
      {"lb.call_us", per_call(Span::LoadBalance), "us",
       calls_note(Span::LoadBalance)},
      {"lb.migrations", per_op("migrations"), "count", base_ops},
      {"isomalloc.migration_bytes", per_op("migration_bytes"), "B", base_ops},
      {"isomalloc.dirty_pages", per_op("ckpt_pages_dirty"), "count",
       base_ops},
      {"isomalloc.barrier_faults", per_op("ckpt_tracker_faults"), "count",
       base_ops},
      {"ft.ckpt_us", per_call(Span::Checkpoint), "us",
       calls_note(Span::Checkpoint)},
      {"ft.ckpt_bytes_full", per_op("ckpt_bytes_full"), "B", base_ops},
      {"ft.ckpt_bytes_delta", per_op("ckpt_bytes_delta"), "B", base_ops},
      {"ft.delta_ratio", ratio(delta_img, full_img), "ratio",
       "mean delta image over mean full image bytes"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (int l = 0; l < kLayers; ++l)
    m.push_back({std::string("self.") + layer_name(static_cast<Layer>(l)),
                 ratio(t.layer_self_us[l], t.op_total_us), "fraction",
                 "of op time on the timing ranks"});
  m.push_back({"trace.coverage", ratio(t.op_covered_us, t.op_total_us),
               "fraction",
               "child spans over op time, " +
                   std::to_string(t.spans_dropped) + " spans not buffered"});
  m.push_back({"trace.overhead",
               ratio(median(rate_off), median(rate_on)) - 1.0, "fraction",
               "untraced over traced ops_per_s, minus 1"});
  return m;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += ch;
  }
  return o;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string o = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    o += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return o + "}";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--out") a.out = v;
    else if (k == "--commit") a.commit = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (argc % 2 != 1) throw std::runtime_error("arguments come in pairs");
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
#if APV_ASAN || APV_TSAN
  std::fprintf(stderr, "apvbench: refusing to time a sanitizer build\n");
  return 2;
#endif
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apvbench: %s\n", e.what());
    return 2;
  }
  std::string cleared;
  for (const char* var : kEnvOverrides) {
    if (std::getenv(var) == nullptr) continue;
    cleared += (cleared.empty() ? "" : ",") + std::string(var);
    unsetenv(var);
  }

  Workload w;
  try {
    w = make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apvbench: %s\n", e.what());
    return 2;
  }
  const mpi::RuntimeConfig cfg = runtime_config(w);
  const std::string stem = args.out.empty()
                               ? std::string()
                               : args.out + "/" + w.name + "-seed" +
                                     std::to_string(args.seed) + "-trace" +
                                     (args.trace ? "1" : "0");

  // Warm-up rep: caches, page tables and the payload pool settle; its ops
  // count toward correctness but not toward any metric.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  std::vector<Rep> reps;
  {
    const Rep warm = run_rep(w, cfg, false, "");
    attempted += warm.attempted;
    failed += warm.failed;
    error = warm.error;
  }
  const double deadline = now_us() + args.seconds * 1e6;
  const std::size_t min_reps = args.trace ? 2 * kMinReps : kMinReps;
  while (error.empty() && (reps.size() < min_reps || now_us() < deadline)) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    reps.push_back(run_rep(w, cfg, traced,
                           // Spans of the first traced rep only.
                           traced && reps.size() == 1 && !stem.empty()
                               ? stem + ".trace.json"
                               : ""));
    attempted += reps.back().attempted;
    failed += reps.back().failed;
    error = reps.back().error;
  }

  const std::vector<Metric> e2e = end_to_end(w, reps, attempted, failed);
  const std::vector<Metric> layer =
      args.trace ? per_layer(w, reps) : std::vector<Metric>{};
  const std::vector<Metric>& shown = args.trace ? layer : e2e;
  const bool correct = failed == 0 && error.empty();

  std::fprintf(stderr, "apvbench %s (seed %llu, %s, commit %s): %s\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               APVBENCH_BUILD_TYPE, args.commit.c_str(), w.shape.c_str());
  if (!error.empty()) std::fprintf(stderr, "  rep failed: %s\n", error.c_str());
  for (const Metric& m : shown)
    std::fprintf(stderr, "  %-30s %16.6g %-9s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.note.c_str());

  if (!stem.empty()) {
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
      std::string reps_json;
      for (const Rep& r : reps) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"traced\": %s, \"setup_s\": %.9g, \"run_s\": %.9g, "
                      "\"p50_us\": %.9g, \"p99_us\": %.9g, \"rss_mb\": %.9g, "
                      "\"ops\": %llu, \"failed\": %llu}",
                      reps_json.empty() ? "" : ", ", r.traced ? "true" : "false",
                      r.setup_s, r.run_s, r.p50_us, r.p99_us, r.rss_mb,
                      static_cast<unsigned long long>(r.completed),
                      static_cast<unsigned long long>(r.failed));
        reps_json += buf;
      }
      std::fprintf(
          f,
          "{\"workload\": \"%s\", \"shape\": \"%s\", \"seed\": %llu, "
          "\"seconds\": %g, \"trace\": %d, \"commit\": \"%s\", "
          "\"build_type\": \"%s\", \"nproc\": %u,\n"
          " \"config\": {\"nodes\": %d, \"pes_per_node\": %d, \"vps\": %d, "
          "\"method\": \"%s\", \"map\": \"%s\", \"slot_bytes\": %zu, "
          "\"stack_bytes\": %zu, \"options\": {}, \"env_cleared\": \"%s\"},\n"
          " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
          "\"error\": \"%s\",\n \"metrics\": %s,\n \"reps\": [%s],\n"
          " \"counters_last_rep\": %s}\n",
          w.name.c_str(), w.shape.c_str(),
          static_cast<unsigned long long>(args.seed), args.seconds,
          args.trace ? 1 : 0, json_escape(args.commit).c_str(),
          APVBENCH_BUILD_TYPE, std::thread::hardware_concurrency(), cfg.nodes,
          cfg.pes_per_node, cfg.vps, core::method_name(cfg.method),
          cfg.map.c_str(), cfg.slot_bytes, cfg.stack_bytes, cleared.c_str(),
          correct ? "true" : "false",
          static_cast<unsigned long long>(attempted),
          static_cast<unsigned long long>(failed),
          json_escape(error).c_str(), metrics_json(shown).c_str(),
          reps_json.c_str(),
          reps.empty() ? "{}" : reps.back().counters.to_json().c_str());
      std::fclose(f);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(shown).c_str());
  return correct ? 0 : 1;
}
