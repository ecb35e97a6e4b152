// Ablation: PIEglobals' memory-footprint optimization from the paper's
// future work — mapping each rank's code from one descriptor instead of
// copying it into the rank's slot ("mapping the code segments into virtual
// memory from a single file descriptor", pie.share_code).
//
// Reports per-rank slot heap use and the migration payload each variant
// produces. A mapped code window stays at the rank's own addresses but
// sits above the slot heap, so no image carries it: this removes both the
// code bloat and the dominant term of Figure 8's migration gap.
//
// Acceptance: the mapped-code payload is at least 70% below the copied
// one (exit status 1 otherwise). Writes BENCH_pie_memory.json.

#include <cstdio>
#include <cstring>
#include <iterator>

#include "image/image.hpp"
#include "isomalloc/pack.hpp"
#include "mpi/runtime.hpp"

using namespace apv;

namespace {

void* migrator_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  if (env->rank() == 0) {
    char* buf = static_cast<char*>(env->rank_malloc(1 << 20));
    std::memset(buf, 0x5A, 1 << 20);
    const double t0 = env->wtime();
    for (int k = 0; k < 4; ++k)
      env->migrate_to((env->my_pe() + 1) % env->num_pes());
    const double ms = (env->wtime() - t0) / 4 * 1e3;
    env->rank_free(buf);
    env->barrier();
    void* out;
    std::memcpy(&out, &ms, sizeof out);
    return out;
  }
  env->barrier();
  return nullptr;
}

img::ProgramImage build_image() {
  img::ImageBuilder b("pie_memory");
  b.add_global<int>("mutable_one", 1);
  // A large read-only table, in each rank's data copy like every global.
  std::vector<double> table(4096);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<double>(i);
  b.add_var("big_const_table", table.size() * sizeof(double), 8,
            table.data(), table.size() * sizeof(double), {.is_const = true});
  b.add_function("mpi_main", &migrator_main);
  b.set_code_size(std::size_t{14} << 20);  // ADCIRC-like code bloat
  return b.build();
}

struct Variant {
  bool share_code = false;
  double slot_use_mb = 0.0;
  double payload_mb = 0.0;  // per move
  double migrate_ms = 0.0;
};

Variant run_variant(const img::ProgramImage& image, bool share_code) {
  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{64} << 20;
  cfg.options.set_bool("pie.share_code", share_code);
  cfg.options.set_bool("net.enabled", true);
  mpi::Runtime rt(image, cfg);

  Variant out{share_code};
  out.slot_use_mb =
      static_cast<double>(rt.rank_state(0).rc->heap->bytes_in_use()) /
      (1 << 20);
  rt.run();
  void* ret = rt.rank_return(0);
  std::memcpy(&out.migrate_ms, &ret, sizeof out.migrate_ms);
  const util::CounterValues v = rt.cluster().totals();
  out.payload_mb = static_cast<double>(v[util::Ctr::MigrationBytes]) /
                   static_cast<double>(v[util::Ctr::Migrations]) / (1 << 20);
  std::printf("%-12s %14.2f %14.2f %12.3f\n",
              share_code ? "mapped" : "copied", out.slot_use_mb,
              out.payload_mb, out.migrate_ms);
  return out;
}

}  // namespace

int main() {
  const img::ProgramImage image = build_image();
  std::printf("Ablation: PIEglobals memory optimizations "
              "(14 MB code, 1 MB rank heap)\n\n");
  std::printf("%-12s %14s %14s %12s\n", "code seg", "slot use (MB)",
              "payload (MB)", "migrate ms");
  const Variant variants[] = {
      run_variant(image, false),  // the paper's implementation
      run_variant(image, true),   // future work: code from one fd
  };
  const double reduction_pct =
      (1.0 - variants[1].payload_mb / variants[0].payload_mb) * 100.0;
  const bool pass = reduction_pct >= 70.0;
  std::printf("\nacceptance: map-mode payload >= 70%% below copy "
              "(%.1f%% below) -> %s\n",
              reduction_pct, pass ? "PASS" : "FAIL");

  std::FILE* json = std::fopen("BENCH_pie_memory.json", "w");
  if (json) {
    std::fprintf(json, "{\n  \"bench\": \"pie_memory\",\n"
                       "  \"code_mb\": 14,\n  \"heap_mb\": 1,\n"
                       "  \"variants\": [\n");
    for (std::size_t i = 0; i < std::size(variants); ++i) {
      const Variant& v = variants[i];
      std::fprintf(json,
                   "    {\"code\": \"%s\", \"slot_use_mb\": %.3f, "
                   "\"payload_mb_per_move\": %.3f, \"migrate_ms\": %.3f}%s\n",
                   v.share_code ? "mapped" : "copied", v.slot_use_mb,
                   v.payload_mb, v.migrate_ms,
                   i + 1 < std::size(variants) ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"map_payload_reduction_pct\": %.2f,\n"
                 "  \"target_reduction_pct\": 70.0,\n  \"pass\": %s\n}\n",
                 reduction_pct, pass ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_pie_memory.json\n");
  }
  return pass ? 0 : 1;
}
