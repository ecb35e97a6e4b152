// fault_demo: the fault-tolerance tier end to end. Four ranks on four PEs
// iterate on a toy computation, taking a collective buddy checkpoint every
// other step. At the second checkpoint the injector kills PE 2. Watch the
// runtime declare the failure, re-place the stranded rank with the load
// balancer, pull its image from the buddy copy, and resume the computation
// as if nothing happened — the final reduction matches a fault-free run.

#include <cstdio>
#include <cstring>

#include "mpi/runtime.hpp"

using namespace apv;

namespace {

constexpr int kIters = 8;
constexpr int kCkptEvery = 2;

void* demo_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();

  // Per-rank state the recovery must preserve: a running sum on the
  // Isomalloc heap.
  auto* sum = static_cast<double*>(env->rank_malloc(sizeof(double)));
  *sum = 0.0;

  for (int it = 0; it < kIters; ++it) {
    // The "computation": each rank contributes a deterministic term, and
    // everyone agrees on the global sum.
    const double term = (me + 1) * (it + 1);
    *sum += term;
    double global = 0.0;
    env->allreduce(sum, &global, 1, mpi::Datatype::Double,
                   mpi::Op::builtin(mpi::OpKind::Sum));
    if (me == 0) {
      std::printf("[it %d] global sum %8.1f   on PE %d of %d live PEs\n",
                  it, global, env->my_pe(), env->num_live_pes());
    }

    if ((it + 1) % kCkptEvery == 0) {
      const int resumed = env->checkpoint_all();
      if (me == 0 && resumed == 0) {
        std::printf("        checkpoint: every rank's image now on its own "
                    "PE and a buddy\n");
      }
      if (resumed == 1) {
        std::printf("        [rank %d] resumed here after the recovery "
                    "(now on PE %d)\n",
                    me, env->my_pe());
      }
    }
  }

  env->barrier();
  const double final_sum = *sum;
  env->rank_free(sum);
  void* out;
  static_assert(sizeof out == sizeof final_sum);
  std::memcpy(&out, &final_sum, sizeof out);
  return out;
}

}  // namespace

int main() {
  img::ImageBuilder b("fault_demo");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &demo_main);
  const img::ProgramImage image = b.build();

  mpi::RuntimeConfig cfg;
  cfg.nodes = 4;
  cfg.pes_per_node = 1;
  cfg.vps = 4;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{16} << 20;
  // Kill PE 2 when the second collective checkpoint (iteration 4) commits.
  cfg.options.set("ft.policy", "epoch");
  cfg.options.set("ft.pe", "2");
  cfg.options.set("ft.epoch", "2");

  std::printf("fault_demo: 4 ranks / 4 PEs, checkpoint every %d iters;\n",
              kCkptEvery);
  std::printf("the injector kills PE 2 at the second checkpoint.\n\n");

  mpi::Runtime rt(image, cfg);
  rt.run();

  double expect = 0.0;
  for (int it = 0; it < kIters; ++it) {
    expect += 1.0 * (it + 1);  // rank 0's terms
  }
  double got;
  void* ret = rt.rank_return(0);
  std::memcpy(&got, &ret, sizeof got);
  std::printf("\nrank 0 final local sum: %.1f (expected %.1f)\n", got,
              expect);
  const util::CounterValues v = rt.cluster().totals();
  std::printf("recoveries: %llu rank(s), %llu bytes fetched from buddies; "
              "%d of %d PEs still alive\n",
              static_cast<unsigned long long>(v[util::Ctr::Recoveries]),
              static_cast<unsigned long long>(v[util::Ctr::RecoveryBytes]),
              rt.cluster().num_live_pes(), rt.cluster().num_pes());
  return 0;
}
