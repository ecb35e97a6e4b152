// Ablation: PIEglobals memory-footprint optimizations from the paper's
// future work — sharing the (immutable) code segment across ranks instead
// of duplicating it ("mapping the code segments into virtual memory from a
// single file descriptor"), and serving read-only globals from the shared
// primary ("detect read-only global variables and not duplicate them").
//
// Reports per-rank slot memory and the migration payload each variant
// produces. Sharing the code removes both the code bloat and the dominant
// term of Figure 8's migration gap.

#include <cstdio>
#include <cstring>

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
  // A large read-only table: the share_readonly candidate.
  std::vector<double> table(4096);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<double>(i);
  b.add_var("big_const_table", table.size() * sizeof(double), 8,
            table.data(), table.size() * sizeof(double), {.is_const = true});
  b.add_function("mpi_main", &migrator_main);
  b.set_code_size(std::size_t{14} << 20);  // ADCIRC-like code bloat
  return b.build();
}

void run_variant(const img::ProgramImage& image, bool share_code,
                 bool share_readonly) {
  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{64} << 20;
  cfg.options.set_bool("pie.share_code", share_code);
  cfg.options.set_bool("pie.share_readonly", share_readonly);
  cfg.options.set_bool("net.enabled", true);
  mpi::Runtime rt(image, cfg);

  const std::size_t slot_bytes_per_rank =
      rt.rank_state(0).rc->heap->bytes_in_use();
  rt.run();
  double migrate_ms;
  void* ret = rt.rank_return(0);
  std::memcpy(&migrate_ms, &ret, sizeof migrate_ms);
  const util::CounterValues v = rt.cluster().totals();
  const double payload_mb =
      static_cast<double>(v[util::Ctr::MigrationBytes]) /
      static_cast<double>(v[util::Ctr::Migrations]) / (1 << 20);
  std::printf("%-12s %-14s %14.2f %14.2f %12.3f\n",
              share_code ? "shared" : "per-rank",
              share_readonly ? "shared" : "per-rank",
              static_cast<double>(slot_bytes_per_rank) / (1 << 20),
              payload_mb, migrate_ms);
}

}  // namespace

int main() {
  const img::ProgramImage image = build_image();
  std::printf("Ablation: PIEglobals memory optimizations "
              "(14 MB code, 1 MB rank heap)\n\n");
  std::printf("%-12s %-14s %14s %14s %12s\n", "code seg", "const globals",
              "slot use (MB)", "payload (MB)", "migrate ms");
  run_variant(image, false, false);  // the paper's implementation
  run_variant(image, false, true);
  run_variant(image, true, false);   // future work: code from one mapping
  run_variant(image, true, true);
  return 0;
}
