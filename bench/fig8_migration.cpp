// Figure 8: migration time of a virtual rank vs. its allocated memory,
// comparing TLSglobals against PIEglobals (lower is better).
//
// The paper's PIEglobals copies the code segment into each rank's
// Isomalloc slot (pie.share_code=off, pinned here), so migration moves a
// private code+data copy (~14 MB for an ADCIRC-sized binary) on top of the
// heap. As heap size grows from 1 MB to 100 MB the code segment becomes a
// proportionally smaller share and the two methods converge — the paper's
// observation. A third column maps the code from one descriptor per node
// instead (pie.share_code=on, the default): no image carries it.
//
// Bytes per move are the measured Ctr::MigrationBytes over Ctr::Migrations.
// Acceptance: at the smallest heap the mapped-code payload is at least 70%
// below the copied one (exit status 1 otherwise).

#include <cstdio>
#include <cstring>
#include <vector>

#include "comm/payload.hpp"
#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/counters.hpp"

using namespace apv;

namespace {

void* migrate_bench_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  if (env->rank() != 0) {
    env->barrier();
    return nullptr;
  }
  const int heap_mb = env->global<int>("heap_mb").get();
  const int reps = env->global<int>("reps").get();
  const std::size_t bytes = static_cast<std::size_t>(heap_mb) << 20;
  char* buf = static_cast<char*>(env->rank_malloc(bytes));
  std::memset(buf, 0xAB, bytes);  // commit the pages: they must all move

  env->migrate_to((env->my_pe() + 1) % env->num_pes());  // warm-up move

  const double t0 = env->wtime();
  for (int k = 0; k < reps; ++k) {
    env->migrate_to((env->my_pe() + 1) % env->num_pes());
  }
  const double per_move_ms = (env->wtime() - t0) / reps * 1e3;

  env->rank_free(buf);
  env->barrier();
  void* out;
  static_assert(sizeof out == sizeof per_move_ms);
  std::memcpy(&out, &per_move_ms, sizeof out);
  return out;
}

img::ProgramImage build_program(int heap_mb, int reps,
                                std::size_t code_bytes, bool tag_tls) {
  img::ImageBuilder b("migbench");
  b.add_global<int>("heap_mb", heap_mb, {.is_tls = tag_tls});
  b.add_global<int>("reps", reps, {.is_tls = tag_tls});
  b.add_function("mpi_main", &migrate_bench_main);
  b.set_code_size(code_bytes);
  return b.build();
}

struct CaseResult {
  double per_move_ms = 0.0;
  double bytes_per_move = 0.0;
  std::uint64_t pool_bytes_copied = 0;  // payload-to-payload copies: must
                                        // stay 0 on the migration path
};

CaseResult run_case(core::Method method, bool share_code, int heap_mb,
                    std::size_t code_bytes, int reps) {
  const img::ProgramImage image = build_program(
      heap_mb, reps, code_bytes, method == core::Method::TLSglobals);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = method;
  cfg.slot_bytes = std::size_t{192} << 20;  // 100 MB heap + 14 MB segments
  cfg.options.set_bool("net.enabled", true);  // InfiniBand-like pacing
  cfg.options.set_bool("pie.share_code", share_code);
  mpi::Runtime rt(image, cfg);
  comm::pool::reset_stats();
  rt.run();
  CaseResult r;
  void* ret = rt.rank_return(0);
  std::memcpy(&r.per_move_ms, &ret, sizeof r.per_move_ms);
  const util::CounterValues v = rt.cluster().totals();
  r.bytes_per_move = static_cast<double>(v[util::Ctr::MigrationBytes]) /
                     static_cast<double>(v[util::Ctr::Migrations]);
  r.pool_bytes_copied = comm::pool::stats().bytes_copied;
  return r;
}

void json_case(std::FILE* json, const char* name, const CaseResult& r) {
  std::fprintf(json,
               "     \"%s\": {\"per_move_ms\": %.3f, \"moves_per_s\": %.2f,"
               " \"bytes_per_move\": %.0f, \"pool_bytes_copied\": %llu},\n",
               name, r.per_move_ms, 1e3 / r.per_move_ms, r.bytes_per_move,
               static_cast<unsigned long long>(r.pool_bytes_copied));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  // 14 MB models the ADCIRC binary's code segment (paper §4.4); the
  // standalone Jacobi-3D was ~3 MB.
  const std::size_t code_bytes = std::size_t{14} << 20;
  const int reps = quick ? 3 : 6;
  const std::vector<int> heaps =
      quick ? std::vector<int>{1, 10} : std::vector<int>{1, 10, 100};
  std::printf("Figure 8: per-migration time vs rank heap size "
              "(code segment %zu MB under PIEglobals)\n\n",
              code_bytes >> 20);
  std::printf("%-10s %16s %16s %9s %16s %13s %13s\n", "heap (MB)",
              "tlsglobals (ms)", "pie copy (ms)", "pie/tls", "pie map (ms)",
              "copy MB/move", "map MB/move");

  std::FILE* json = std::fopen("BENCH_migration.json", "w");
  if (json) {
    std::fprintf(json, "{\n  \"bench\": \"migration\",\n  \"quick\": %s,\n"
                 "  \"code_mb\": %zu,\n  \"reps\": %d,\n  \"cases\": [\n",
                 quick ? "true" : "false", code_bytes >> 20, reps);
  }
  // Whichever case a process runs first pays ~0.45 ms of one-time warm-up,
  // which would land on the first timed case (TLSglobals at the smallest
  // heap) and halve the printed pie/tls ratio there. One untimed case
  // takes it instead.
  run_case(core::Method::TLSglobals, false, heaps.front(), code_bytes, reps);
  double smallest_reduction_pct = 0.0;
  bool first_case = true;
  for (int heap_mb : heaps) {
    const CaseResult tls =
        run_case(core::Method::TLSglobals, false, heap_mb, code_bytes, reps);
    const CaseResult pie =
        run_case(core::Method::PIEglobals, false, heap_mb, code_bytes, reps);
    const CaseResult map =
        run_case(core::Method::PIEglobals, true, heap_mb, code_bytes, reps);
    std::printf("%-10d %16.3f %16.3f %8.2fx %16.3f %13.2f %13.2f\n", heap_mb,
                tls.per_move_ms, pie.per_move_ms,
                pie.per_move_ms / tls.per_move_ms, map.per_move_ms,
                pie.bytes_per_move / (1 << 20),
                map.bytes_per_move / (1 << 20));
    const double reduction_pct =
        (1.0 - map.bytes_per_move / pie.bytes_per_move) * 100.0;
    if (first_case) smallest_reduction_pct = reduction_pct;
    if (json) {
      if (!first_case) std::fprintf(json, ",\n");
      std::fprintf(json, "    {\"heap_mb\": %d,\n", heap_mb);
      json_case(json, "tlsglobals", tls);
      json_case(json, "pieglobals", pie);
      json_case(json, "pieglobals_map", map);
      std::fprintf(json,
                   "     \"pie_over_tls\": %.3f,"
                   " \"map_payload_reduction_pct\": %.2f}",
                   pie.per_move_ms / tls.per_move_ms, reduction_pct);
    }
    first_case = false;
  }
  const bool pass = smallest_reduction_pct >= 70.0;
  if (json) {
    std::fprintf(json, "\n  ],\n  \"pass\": %s\n}\n",
                 pass ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_migration.json\n");
  }
  std::printf(
      "\n(the copied-code gap is the code+data segment transfer; its share\n"
      " of the rank's memory shrinks as the heap grows. Mapped code is not\n"
      " transferred, so that column tracks tlsglobals)\n");
  std::printf("acceptance: map-mode payload at %d MB heap >= 70%% below "
              "copy (%.1f%% below) -> %s\n",
              heaps.front(), smallest_reduction_pct, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
