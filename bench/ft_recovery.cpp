// Fault-tolerance cost: collective buddy-checkpoint time and full
// kill-a-PE recovery time vs the rank heap size.
//
// Two ranks on two PEs. Epoch 1 is a clean buddy checkpoint (every image
// stored on its own PE and the next one). At epoch 2 the injector kills
// PE 1: rank 1's PE drains and halts, the surviving rank coordinates the
// recovery, and rank 1 is adopted onto PE 0 from its buddy copy. The
// survivor's wall time across the epoch-2 checkpoint_all therefore covers
// the pack, the failure declaration, and the whole recovery protocol.

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "image/image.hpp"
#include "mpi/runtime.hpp"

using namespace apv;

namespace {

// Survivor-side measurements, bit-packed into the entry return pointer.
std::uint64_t pack_ms(double checkpoint_ms, double recovery_ms) {
  const float ck = static_cast<float>(checkpoint_ms);
  const float rc = static_cast<float>(recovery_ms);
  std::uint32_t lo, hi;
  std::memcpy(&lo, &ck, sizeof lo);
  std::memcpy(&hi, &rc, sizeof hi);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

void unpack_ms(std::uint64_t bits, double* checkpoint_ms,
               double* recovery_ms) {
  const auto lo = static_cast<std::uint32_t>(bits);
  const auto hi = static_cast<std::uint32_t>(bits >> 32);
  float ck, rc;
  std::memcpy(&ck, &lo, sizeof ck);
  std::memcpy(&rc, &hi, sizeof rc);
  *checkpoint_ms = ck;
  *recovery_ms = rc;
}

constexpr std::uint64_t kCorrupt = ~std::uint64_t{0};

void* ft_bench_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  const int heap_mb = env->global<int>("heap_mb").get();
  const std::size_t bytes = static_cast<std::size_t>(heap_mb) << 20;
  auto* buf = static_cast<unsigned char*>(env->rank_malloc(bytes));
  for (std::size_t i = 0; i < bytes; ++i) {
    buf[i] = static_cast<unsigned char>(i * 31 + me);
  }

  const double t0 = env->wtime();
  env->checkpoint_all();  // epoch 1: fault-free buddy checkpoint
  const double checkpoint_ms = (env->wtime() - t0) * 1e3;

  // t1 lives on the checkpointed stack, so after the kill the adopted
  // rank's clock still measures from before the failed epoch began.
  const double t1 = env->wtime();
  env->checkpoint_all();  // epoch 2: the injector kills PE 1 here
  const double recovery_ms = (env->wtime() - t1) * 1e3;

  // The whole heap must have survived the recovery byte-for-byte.
  bool intact = true;
  for (std::size_t i = 0; i < bytes; ++i) {
    if (buf[i] != static_cast<unsigned char>(i * 31 + me)) intact = false;
  }
  env->rank_free(buf);
  env->barrier();
  const std::uint64_t out =
      intact ? pack_ms(checkpoint_ms, recovery_ms) : kCorrupt;
  return reinterpret_cast<void*>(static_cast<std::uintptr_t>(out));
}

struct Case {
  double checkpoint_ms = 0;  ///< epoch-1 collective buddy checkpoint
  double recovery_ms = 0;    ///< epoch-2 checkpoint + kill + full recovery
  double image_mb = 0;       ///< one rank's packed image
  std::uint64_t recovered_bytes = 0;
};

Case run_case(int heap_mb) {
  img::ImageBuilder b("ftbench");
  b.add_global<int>("heap_mb", heap_mb);
  b.add_function("mpi_main", &ft_bench_main);
  const img::ProgramImage image = b.build();

  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{192} << 20;
  cfg.options.set("ft.policy", "epoch");
  cfg.options.set("ft.pe", "1");
  cfg.options.set("ft.epoch", "2");
  mpi::Runtime rt(image, cfg);
  rt.run();

  // Rank 0 survives the kill of PE 1; its clock saw the whole recovery.
  const auto bits = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(rt.rank_return(0)));
  Case c;
  if (bits == kCorrupt) {
    std::fprintf(stderr, "heap %d MB: state corrupted across recovery!\n",
                 heap_mb);
    return c;
  }
  unpack_ms(bits, &c.checkpoint_ms, &c.recovery_ms);
  c.recovered_bytes = rt.cluster().totals()[util::Ctr::RecoveryBytes];
  c.image_mb = static_cast<double>(c.recovered_bytes) / (1 << 20);
  return c;
}

}  // namespace

int main() {
  std::printf("Buddy checkpoint and single-PE-failure recovery cost\n");
  std::printf("(2 ranks on 2 PEs, PIEglobals; PE 1 killed at epoch 2,\n");
  std::printf(" rank 1 adopted onto PE 0 from its buddy copy)\n\n");
  std::printf("%-10s %16s %16s %14s\n", "heap (MB)", "checkpoint (ms)",
              "recovery (ms)", "image (MB)");
  for (int heap_mb : {1, 10, 100}) {
    const Case c = run_case(heap_mb);
    std::printf("%-10d %16.3f %16.3f %14.1f\n", heap_mb, c.checkpoint_ms,
                c.recovery_ms, c.image_mb);
  }
  std::printf(
      "\n(checkpoint = one collective buddy checkpoint, fault-free;\n"
      " recovery = checkpoint + PE kill + re-placement + buddy fetch +\n"
      " adoption, measured end-to-end by the surviving rank)\n");
  return 0;
}
