// Ablation: migration payload selection — full slot vs touched prefix.
//
// The paper's future work proposes migrating "only segments of code that
// differ"; the general form of that idea in this runtime is PackMode:
// FullSlot ships the whole reserved slot, Touched ships only the prefix
// the rank's heap has ever used. For mostly-empty slots the difference is
// the whole game.

#include <cstdio>
#include <cstring>

#include "image/image.hpp"
#include "mpi/runtime.hpp"

using namespace apv;

namespace {

void* migrator_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  if (env->rank() == 0) {
    const int heap_mb = env->global<int>("heap_mb").get();
    char* buf = static_cast<char*>(
        env->rank_malloc(static_cast<std::size_t>(heap_mb) << 20));
    std::memset(buf, 0x5A, static_cast<std::size_t>(heap_mb) << 20);
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

void run_case(const char* mode, int heap_mb) {
  img::ImageBuilder b("packmode");
  b.add_global<int>("heap_mb", heap_mb);
  b.add_function("mpi_main", &migrator_main);
  b.set_code_size(std::size_t{3} << 20);
  const img::ProgramImage image = b.build();

  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{128} << 20;
  cfg.options.set("iso.pack", mode);
  cfg.options.set_bool("net.enabled", true);
  mpi::Runtime rt(image, cfg);
  rt.run();
  double ms;
  void* ret = rt.rank_return(0);
  std::memcpy(&ms, &ret, sizeof ms);
  const util::CounterValues v = rt.cluster().totals();
  std::printf("%-9s %10d %16.2f %14.3f\n", mode, heap_mb,
              static_cast<double>(v[util::Ctr::MigrationBytes]) /
                  static_cast<double>(v[util::Ctr::Migrations]) / (1 << 20),
              ms);
}

}  // namespace

int main() {
  std::printf("Ablation: migration pack mode (128 MB slots, 3 MB code)\n\n");
  std::printf("%-9s %10s %16s %14s\n", "mode", "heap (MB)", "payload (MB)",
              "migrate ms");
  for (int heap_mb : {1, 16}) {
    run_case("touched", heap_mb);
    run_case("full", heap_mb);
  }
  return 0;
}
