// Remaining runtime surface: AMPI extensions (wtime, yield, PE queries,
// rank heap), multiple checkpoint generations, startup validation errors,
// SMP refusal through the Runtime, and scheduler fairness.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <iterator>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/counters.hpp"
#include "util/error.hpp"

using namespace apv;
using mpi::Datatype;
using mpi::Env;
using util::Ctr;

namespace {

using EntryFn = void* (*)(void*);

img::ProgramImage entry_image(const char* name, EntryFn fn) {
  img::ImageBuilder b(name);
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", fn);
  return b.build();
}

mpi::RuntimeConfig base_cfg(int vps, int pes = 1) {
  mpi::RuntimeConfig cfg;
  cfg.pes_per_node = pes;
  cfg.vps = vps;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  return cfg;
}

#define ENV() auto* env = static_cast<Env*>(arg)

void* ext_main(void* arg) {
  ENV();
  std::intptr_t ok = 1;
  if (env->my_pe() < 0 || env->my_pe() >= env->num_pes()) ok = 0;
  if (env->my_node() != 0) ok = 0;
  const double t0 = env->wtime();
  env->compute(0.002);
  const double t1 = env->wtime();
  if (t1 - t0 < 0.0015) ok = 0;  // compute() really burned the time
  if (env->wtick() <= 0.0 || env->wtick() > 1e-3) ok = 0;
  // Rank heap allocations are inside the rank's own slot.
  void* p = env->rank_malloc(1024);
  const auto& rc = env->rank_context();
  if (!env->runtime().arena().contains(rc.slot, p)) ok = 0;
  env->rank_free(p);
  return reinterpret_cast<void*>(ok);
}

}  // namespace

TEST(RuntimeMisc, AmpiExtensionSurface) {
  const img::ProgramImage image = entry_image("ext", &ext_main);
  mpi::Runtime rt(image, base_cfg(2, 2));
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(0)), 1);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 1);
}

namespace {
void* yield_fair_main(void* arg) {
  ENV();
  // Both ranks on one PE count in lockstep through yields; after N rounds
  // both must have advanced — cooperative fairness.
  static std::atomic<int> counters[2];
  if (env->rank() == 0) {
    counters[0] = 0;
    counters[1] = 0;
  }
  env->barrier();
  for (int i = 0; i < 100; ++i) {
    counters[env->rank()]++;
    env->yield();
    const int mine = counters[env->rank()].load();
    const int other = counters[1 - env->rank()].load();
    if (std::abs(mine - other) > 2) {
      return nullptr;  // starvation
    }
  }
  env->barrier();
  return reinterpret_cast<void*>(std::intptr_t{1});
}
}  // namespace

TEST(RuntimeMisc, YieldIsFair) {
  const img::ProgramImage image = entry_image("fair", &yield_fair_main);
  mpi::Runtime rt(image, base_cfg(2, 1));
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(0)), 1);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 1);
}

namespace {
void* multi_ckpt_main(void* arg) {
  ENV();
  int* v = env->rank_alloc_array<int>(1);
  *v = 1;
  int r1 = env->checkpoint();  // generation 1: v == 1
  if (r1 == 0) {
    *v = 2;
    const int r2 = env->checkpoint();  // generation 2: v == 2 (overwrites)
    if (r2 == 0) {
      *v = 3;
      env->barrier();
      env->runtime().do_restore(env->state());  // rewinds to generation 2
    }
    // Resumed from generation 2.
    const std::intptr_t ok = (*v == 2) ? 1 : 0;
    env->barrier();
    return reinterpret_cast<void*>(ok);
  }
  return nullptr;  // unreachable: restore lands at the *latest* checkpoint
}
}  // namespace

TEST(RuntimeMisc, RestoreUsesLatestCheckpointGeneration) {
  const img::ProgramImage image = entry_image("multickpt", &multi_ckpt_main);
  mpi::Runtime rt(image, base_cfg(2, 2));
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(0)), 1);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 1);
}

namespace {
void* restore_without_ckpt_main(void* arg) {
  ENV();
  try {
    env->runtime().do_restore(env->state());
  } catch (const util::ApvError& e) {
    // The failed restore throws here, in the rank, and the rank goes on.
    env->barrier();
    return reinterpret_cast<void*>(
        static_cast<std::intptr_t>(e.code() == util::ErrorCode::NotFound));
  }
  return nullptr;
}
}  // namespace

TEST(RuntimeMisc, RestoreWithoutCheckpointThrowsIntoTheRank) {
  const img::ProgramImage image =
      entry_image("nockpt", &restore_without_ckpt_main);
  mpi::Runtime rt(image, base_cfg(2, 2));
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(0)), 1);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 1);
}

TEST(RuntimeMisc, MissingEntryRejectedEarly) {
  img::ImageBuilder b("noentry");
  b.add_global<int>("x", 0);
  b.add_function("not_main", +[](void* a) -> void* { return a; });
  const img::ProgramImage image = b.build();
  EXPECT_THROW(mpi::Runtime(image, base_cfg(1)), util::ApvError);
}

TEST(RuntimeMisc, InvalidShapesRejected) {
  const img::ProgramImage image =
      entry_image("shape", +[](void* a) -> void* { return a; });
  mpi::RuntimeConfig cfg = base_cfg(0);
  EXPECT_THROW(mpi::Runtime(image, cfg), util::ApvError);
  cfg = base_cfg(1);
  cfg.nodes = 0;
  EXPECT_THROW(mpi::Runtime(image, cfg), util::ApvError);
}

TEST(RuntimeMisc, SwapglobalsSmpRefusedThroughRuntime) {
  const img::ProgramImage image =
      entry_image("swapsmp", +[](void* a) -> void* { return a; });
  mpi::RuntimeConfig cfg = base_cfg(4, /*pes=*/2);
  cfg.method = core::Method::Swapglobals;
  try {
    mpi::Runtime rt(image, cfg);
    FAIL() << "SMP Swapglobals not refused";
  } catch (const util::ApvError& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::NotSupported);
  }
}

TEST(RuntimeMisc, PipVirtualizationLimitThroughRuntime) {
  const img::ProgramImage image =
      entry_image("piplimit", +[](void* a) -> void* { return a; });
  mpi::RuntimeConfig cfg = base_cfg(16, 1);
  cfg.method = core::Method::PIPglobals;
  // 16 VPs in one process exceeds the 12-namespace stock-glibc cap...
  EXPECT_THROW(mpi::Runtime(image, cfg), util::ApvError);
  // ...and the PiP-patched glibc lifts it.
  cfg.options.set_bool("loader.patched_glibc", true);
  mpi::Runtime rt(image, cfg);
  rt.run();
}

TEST(RuntimeMisc, RoundRobinAndBlockMapsPlaceAsDocumented) {
  const img::ProgramImage image =
      entry_image("maps", +[](void* arg) -> void* {
        return reinterpret_cast<void*>(
            static_cast<std::intptr_t>(static_cast<Env*>(arg)->my_pe()));
      });
  mpi::RuntimeConfig cfg = base_cfg(4, 2);
  // An idle PE stealing a rank would move it off its mapped PE; the
  // explicit option wins over a suite-wide APV_SCHED_STEAL=on.
  cfg.options.set("sched.steal", "off");
  cfg.map = "rr";
  mpi::Runtime rr(image, cfg);
  rr.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rr.rank_return(0)), 0);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rr.rank_return(1)), 1);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rr.rank_return(2)), 0);

  cfg.map = "block";
  mpi::Runtime blk(image, cfg);
  blk.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(blk.rank_return(0)), 0);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(blk.rank_return(1)), 0);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(blk.rank_return(2)), 1);
}

TEST(RuntimeMisc, StatisticsAccumulate) {
  const img::ProgramImage image = entry_image(
      "stats", +[](void* arg) -> void* {
        auto* env = static_cast<Env*>(arg);
        int v = env->rank();
        int sum = 0;
        env->allreduce(&v, &sum, 1, Datatype::Int,
                       mpi::Op::builtin(mpi::OpKind::Sum));
        return nullptr;
      });
  mpi::Runtime rt(image, base_cfg(4, 2));
  rt.run();
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_GT(v[Ctr::CommSends], 0u);
  EXPECT_GT(v[Ctr::ContextSwitches], 0u);
  EXPECT_EQ(v[Ctr::Migrations], 0u);
}

namespace {
std::ptrdiff_t open_fds() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                       std::filesystem::directory_iterator{});
}
}  // namespace

// Each node's PIEglobals privatizer holds one code descriptor while the
// job lives, and closes it with the job: three jobs leave no fd behind.
TEST(RuntimeMisc, TeardownClosesEveryCodeDescriptor) {
  const img::ProgramImage image = entry_image(
      "fds", +[](void* arg) -> void* {
        static_cast<Env*>(arg)->barrier();
        return nullptr;
      });
  mpi::RuntimeConfig cfg = base_cfg(4);
  cfg.nodes = 2;
  cfg.options.set_bool("pie.share_code", true);
  const std::ptrdiff_t before = open_fds();
  for (int job = 0; job < 3; ++job) {
    mpi::Runtime rt(image, cfg);
    EXPECT_GE(open_fds(), before + 2) << "job " << job;
    rt.run();
  }
  EXPECT_EQ(open_fds(), before);
}
