// migration_demo: a tour of the adaptive-runtime features PIEglobals
// unlocks for legacy codes (paper §2.1, §3.3):
//   1. explicit rank migration between PEs with zero serialization code —
//      heap and stack pointers survive because Isomalloc keeps virtual
//      addresses stable;
//   2. in-memory checkpoint and restore (the fault-tolerance hook);
//   3. the pieglobalsfind debug facility, translating a privatized address
//      back to the symbol-bearing primary image.

#include <cstdio>
#include <cstring>

#include "core/methods.hpp"
#include "mpi/runtime.hpp"

using namespace apv;

namespace {

void* demo_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();

  // A linked structure in the rank's Isomalloc heap: migration must keep
  // the internal pointer intact.
  struct Node {
    int value;
    Node* next;
  };
  auto* a = static_cast<Node*>(env->rank_malloc(sizeof(Node)));
  auto* b = static_cast<Node*>(env->rank_malloc(sizeof(Node)));
  a->value = 10 + me;
  a->next = b;
  b->value = 20 + me;
  b->next = nullptr;

  if (me == 0)
    std::printf("[rank 0] before migration: on PE %d, a->next->value = %d\n",
                env->my_pe(), a->next->value);

  env->migrate_to((env->my_pe() + 1) % env->num_pes());

  if (me == 0)
    std::printf("[rank 0] after migration:  on PE %d, a->next->value = %d "
                "(pointer chain intact)\n",
                env->my_pe(), a->next->value);

  // Checkpoint, damage the state, restore.
  const int restored = env->checkpoint();
  if (restored == 0) {
    a->next->value = -1;  // "fault"
    if (me == 0)
      std::printf("[rank 0] corrupted heap (a->next->value = %d); "
                  "restoring from checkpoint...\n",
                  a->next->value);
    env->barrier();
    env->runtime().do_restore(env->state());
  }
  if (me == 0)
    std::printf("[rank 0] after restore:    a->next->value = %d\n",
                a->next->value);

  env->barrier();
  return reinterpret_cast<void*>(
      static_cast<std::intptr_t>(a->next->value));
}

}  // namespace

int main() {
  img::ImageBuilder b("migration_demo");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &demo_main);
  const img::ProgramImage image = b.build();

  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{16} << 20;
  mpi::Runtime rt(image, cfg);
  rt.run();

  // pieglobalsfind: translate a privatized code address back to the
  // primary image for debugger symbol lookup.
  auto& rm = rt.rank_state(0);
  const void* privatized =
      rm.rc->instance->func_addr(rt.image().func_id("mpi_main"));
  // Consult the registry of the node the rank currently resides on.
  const int node = rt.cluster().node_of(rt.cluster().places().pe_of(0));
  const void* original = core::pieglobals_find(
      rt.privatizer(node).env().loader->registry(), privatized);
  std::printf("\npieglobalsfind: privatized mpi_main @ %p -> primary @ %p\n",
              privatized, original);
  const util::CounterValues v = rt.cluster().totals();
  std::printf("migrations performed: %llu, bytes moved: %llu\n",
              static_cast<unsigned long long>(v[util::Ctr::Migrations]),
              static_cast<unsigned long long>(v[util::Ctr::MigrationBytes]));
  return 0;
}
