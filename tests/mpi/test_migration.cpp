// Rank migration, load balancing, and checkpoint/restart tests.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "mpi/runtime.hpp"
#include "test_programs.hpp"
#include "util/counters.hpp"
#include "util/error.hpp"

using namespace apv;
using util::Ctr;

namespace {

mpi::RuntimeConfig cfg_pes(core::Method method, int vps, int pes,
                           int nodes = 0) {
  mpi::RuntimeConfig cfg;
  cfg.nodes = nodes > 0 ? nodes : pes;  // default: one PE per node
  cfg.pes_per_node = nodes > 0 ? pes / nodes : 1;
  cfg.vps = vps;
  cfg.method = method;
  cfg.slot_bytes = std::size_t{16} << 20;
  cfg.options.set("fs.latency_us", "0");
  return cfg;
}

// Program: fill a rank-heap array and a stack array, migrate to the PE
// given by (rank+1) % npes, and verify every byte and the privatized
// global survive at the same virtual addresses.
void* migrate_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  const bool privatized =
      env->rank_context().method != core::Method::None;
  // Unprivatized, the global is one copy per process, which the ranks of a
  // multi-PE node would write from several threads at once.
  auto g = env->global<int>("my_value");
  if (privatized) g.set(1000 + me);

  const int n = 4096;
  int* heap_data = env->rank_alloc_array<int>(n);
  int stack_data[64];
  for (int i = 0; i < n; ++i) heap_data[i] = me * 100000 + i;
  for (int i = 0; i < 64; ++i) stack_data[i] = me * 7 + i;
  int* heap_before = heap_data;

  const int from_pe = env->my_pe();
  env->migrate_to((env->my_pe() + 1) % env->num_pes());
  const int to_pe = env->my_pe();

  std::intptr_t ok = 1;
  if (env->num_pes() > 1 && to_pe == from_pe) ok = 0;        // did not move
  if (heap_data != heap_before) ok = 0;                      // VA changed
  for (int i = 0; i < n; ++i)
    if (heap_data[i] != me * 100000 + i) ok = 0;             // heap lost
  for (int i = 0; i < 64; ++i)
    if (stack_data[i] != me * 7 + i) ok = 0;                 // stack lost
  if (privatized && g.get() != 1000 + me) ok = 0;            // global lost
  env->rank_free(heap_data);
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

img::ProgramImage build_migrate(bool tag_tls = false) {
  img::ImageBuilder b("migrate");
  b.add_global<int>("my_value", 0, {.is_tls = tag_tls});
  b.add_function("mpi_main", &migrate_main);
  return b.build();
}

}  // namespace

// (method, nodes): 4 PEs either as 4 nodes, where every move packs and
// unpacks the slot, or as 1 node, where the slot already sits at its
// addresses on every PE and a move copies nothing.
class MigratePerMethod
    : public ::testing::TestWithParam<std::tuple<core::Method, int>> {};

TEST_P(MigratePerMethod, StatePreservedAcrossPes) {
  const auto [method, nodes] = GetParam();
  const img::ProgramImage image =
      build_migrate(method == core::Method::TLSglobals);
  mpi::Runtime rt(image, cfg_pes(method, 4, 4, nodes));
  rt.run();
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_EQ(v[Ctr::Migrations], 4u);
  if (nodes == 1) {
    EXPECT_EQ(v[Ctr::MigrationBytes], 0u);
  } else {
    EXPECT_GT(v[Ctr::MigrationBytes], 0u);
  }
  // Every move leaves the rank's state and the location table agreeing.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(rt.rank_state(r).resident_pe, rt.cluster().location(r))
        << "rank " << r;
  }
}

namespace {
std::string method_param_name(
    const ::testing::TestParamInfo<std::tuple<core::Method, int>>& info) {
  return core::method_name(std::get<0>(info.param));
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(
    MigratableMethods, MigratePerMethod,
    ::testing::Combine(::testing::Values(core::Method::None,
                                         core::Method::TLSglobals,
                                         core::Method::Swapglobals,
                                         core::Method::PIEglobals),
                       ::testing::Values(4)),
    method_param_name);

// Swapglobals is absent: it cannot run more than one PE per process.
INSTANTIATE_TEST_SUITE_P(
    WithinNode, MigratePerMethod,
    ::testing::Combine(::testing::Values(core::Method::None,
                                         core::Method::TLSglobals,
                                         core::Method::PIEglobals),
                       ::testing::Values(1)),
    method_param_name);

class MigrateRefusedPerMethod : public ::testing::TestWithParam<core::Method> {
};

TEST_P(MigrateRefusedPerMethod, PipAndFsRefuseMigration) {
  // Swapglobals requires non-SMP; use 1 PE per node layouts. PIP/FS rank
  // migration must fail with MigrationRefused, which surfaces as a rank
  // failure from wait_finish.
  const img::ProgramImage image = build_migrate();
  mpi::Runtime rt(image, cfg_pes(GetParam(), 2, 2));
  EXPECT_THROW(rt.run(), util::ApvError);
}

INSTANTIATE_TEST_SUITE_P(
    NonMigratableMethods, MigrateRefusedPerMethod,
    ::testing::Values(core::Method::PIPglobals, core::Method::FSglobals),
    [](const ::testing::TestParamInfo<core::Method>& info) {
      return core::method_name(info.param);
    });

namespace {

void* lb_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int pe_before = env->my_pe();
  env->load_balance("rotate");
  const int pe_after = env->my_pe();
  env->barrier();
  return pe_after != pe_before ? reinterpret_cast<void*>(1) : nullptr;
}

void* greedy_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  // Unbalanced explicit loads: rank 0 is heavy.
  env->add_load(env->rank() == 0 ? 10.0 : 0.1);
  env->load_balance("greedyrefine");
  env->barrier();
  return reinterpret_cast<void*>(
      static_cast<std::intptr_t>(env->my_pe()));
}

img::ProgramImage build_entry(const char* name, img::NativeFn fn) {
  img::ImageBuilder b(name);
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", fn);
  return b.build();
}

}  // namespace

TEST(LoadBalance, RotateMovesEveryRank) {
  const img::ProgramImage image = build_entry("lbrotate", &lb_main);
  mpi::RuntimeConfig cfg = cfg_pes(core::Method::PIEglobals, 4, 2);
  // A steal moves a rank without counting as a migration, which would
  // throw off the count below; the explicit option wins over a suite-wide
  // APV_SCHED_STEAL=on.
  cfg.options.set("sched.steal", "off");
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1);
    EXPECT_EQ(rt.rank_state(r).resident_pe, rt.cluster().location(r))
        << "rank " << r;
  }
  EXPECT_EQ(rt.cluster().totals()[Ctr::Migrations], 4u);
}

TEST(LoadBalance, GreedyRefineSeparatesHeavyRank) {
  const img::ProgramImage image = build_entry("lbgreedy", &greedy_main);
  mpi::Runtime rt(image, cfg_pes(core::Method::PIEglobals, 4, 2));
  rt.run();
  // After balancing, the heavy rank 0 should not share a PE with all
  // three light ranks.
  const auto pe0 = reinterpret_cast<std::intptr_t>(rt.rank_return(0));
  int sharing = 0;
  for (int r = 1; r < 4; ++r) {
    if (reinterpret_cast<std::intptr_t>(rt.rank_return(r)) == pe0) ++sharing;
  }
  EXPECT_LT(sharing, 3);
}

namespace {

void* ckpt_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  int* counter = env->rank_alloc_array<int>(1);
  *counter = 10;
  const int restored = env->checkpoint();
  // First pass: restored == 0; mutate and roll back. Second pass (after
  // restore): restored == 1 and the mutation must be gone.
  if (restored == 0) {
    *counter = 999;
    env->barrier();
    env->runtime().do_restore(env->state());  // collective rewind
    return nullptr;                           // unreachable
  }
  const std::intptr_t ok = (*counter == 10) ? 1 : 0;
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

TEST(Checkpoint, RestoreRewindsHeapAndControlFlow) {
  const img::ProgramImage image = build_entry("ckpt", &ckpt_main);
  mpi::Runtime rt(image, cfg_pes(core::Method::PIEglobals, 2, 2));
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(0)), 1);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 1);
}

namespace {

// Rank 1 migrates away while rank 0 sends to it: the message must be
// forwarded to the new location.
void* forward_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  if (me == 1) {
    env->migrate_to((env->my_pe() + 1) % env->num_pes());
    int value = -1;
    env->recv(&value, 1, mpi::Datatype::Int, 0, 5);
    env->barrier();
    return reinterpret_cast<void*>(static_cast<std::intptr_t>(value));
  }
  if (me == 0) {
    int value = 4242;
    env->send(&value, 1, mpi::Datatype::Int, 1, 5);
  }
  env->barrier();
  return nullptr;
}

}  // namespace

TEST(Migration, MessagesFollowMigratedRank) {
  const img::ProgramImage image = build_entry("forward", &forward_main);
  mpi::Runtime rt(image, cfg_pes(core::Method::PIEglobals, 3, 3));
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 4242);
}
