// Fault-tolerance tier tests: buddy checkpoint placement, versioned store
// semantics, deterministic fault injection, dead-letter rerouting, recovery
// planning, and the end-to-end kill-a-PE-and-recover protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "apps/jacobi.hpp"
#include "comm/cluster.hpp"
#include "comm/payload.hpp"
#include "ft/checkpoint_store.hpp"
#include "ft/fault_injector.hpp"
#include "ft/recovery.hpp"
#include "isomalloc/arena.hpp"
#include "isomalloc/dirty_tracker.hpp"
#include "isomalloc/pack.hpp"
#include "isomalloc/slot_heap.hpp"
#include "mpi/runtime.hpp"
#include "places_check.hpp"
#include "proc_maps.hpp"
#include "util/counters.hpp"
#include "util/error.hpp"
#include "util/sanitizers.hpp"

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

img::ProgramImage build_entry(const char* name, img::NativeFn fn) {
  img::ImageBuilder b(name);
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", fn);
  return b.build();
}

}  // namespace

// --- fault injector (unit) --------------------------------------------------

TEST(FaultInjector, ConfigFromOptions) {
  util::Options o;
  o.set("ft.policy", "epoch");
  o.set("ft.pe", "2");
  o.set("ft.epoch", "3");
  const auto c = ft::FaultInjector::config_from_options(o);
  EXPECT_EQ(c.policy, ft::FaultInjector::Policy::AtEpoch);
  EXPECT_EQ(c.pe, 2);
  EXPECT_EQ(c.epoch, 3u);

  util::Options bad;
  EXPECT_THROW(bad.set("ft.policy", "sometimes"), util::ApvError);
}

TEST(FaultInjector, AtEpochIsIdempotentPerEpoch) {
  ft::FaultInjector::Config c;
  c.policy = ft::FaultInjector::Policy::AtEpoch;
  c.pe = 1;
  c.epoch = 2;
  ft::FaultInjector inj(c, /*num_pes=*/4);
  EXPECT_EQ(inj.victim_for_epoch(1), comm::kInvalidPe);
  EXPECT_EQ(inj.victim_for_epoch(2), 1);
  // Every rank asks independently; all must get the same answer, and the
  // kill is counted once.
  EXPECT_EQ(inj.victim_for_epoch(2), 1);
  EXPECT_EQ(inj.victim_for_epoch(3), comm::kInvalidPe);
  EXPECT_EQ(inj.kills(), 1);
}

TEST(FaultInjector, RandomPlanIsSeedDeterministic) {
  ft::FaultInjector::Config c;
  c.policy = ft::FaultInjector::Policy::Random;
  c.seed = 42;
  c.horizon = 6;
  ft::FaultInjector a(c, 8);
  ft::FaultInjector b(c, 8);
  EXPECT_EQ(a.planned_pe(), b.planned_pe());
  EXPECT_EQ(a.planned_epoch(), b.planned_epoch());
  EXPECT_GE(a.planned_epoch(), 1u);
  EXPECT_LE(a.planned_epoch(), 6u);
  EXPECT_GE(a.planned_pe(), 0);
  EXPECT_LT(a.planned_pe(), 8);
}

TEST(FaultInjector, RefusesSinglePeKillPlans) {
  ft::FaultInjector::Config c;
  c.policy = ft::FaultInjector::Policy::AtEpoch;
  c.pe = 0;
  EXPECT_THROW(ft::FaultInjector(c, 1), util::ApvError);
}

// --- recovery planning (unit) -----------------------------------------------

TEST(RecoveryPlan, VictimsGoToLivePesSurvivorsStay) {
  lb::LbStats stats;
  stats.num_pes = 3;
  stats.rank_load = {1.0, 2.0, 3.0, 1.0};
  stats.rank_pe = {0, 1, 1, 2};
  const std::vector<bool> alive = {true, false, true};
  const ft::RecoveryPlan plan =
      ft::plan_recovery(lb::GreedyRefineLb(), stats, alive);
  EXPECT_EQ(plan.victims, (std::vector<int>{1, 2}));
  EXPECT_EQ(plan.survivors, (std::vector<int>{0, 3}));
  EXPECT_EQ(plan.leader, 0);
  ASSERT_EQ(plan.placement.size(), 2u);
  for (const auto& [rank, pe] : plan.placement) {
    EXPECT_TRUE(alive[static_cast<std::size_t>(pe)])
        << "victim " << rank << " placed on dead PE " << pe;
  }
}

TEST(RecoveryPlan, NoVictimsMeansEmptyPlacement) {
  lb::LbStats stats;
  stats.num_pes = 2;
  stats.rank_load = {1.0, 1.0};
  stats.rank_pe = {0, 1};
  const ft::RecoveryPlan plan =
      ft::plan_recovery(lb::GreedyRefineLb(), stats, {true, true});
  EXPECT_TRUE(plan.victims.empty());
  EXPECT_TRUE(plan.placement.empty());
  EXPECT_EQ(plan.leader, 0);
}

// --- checkpoint store (unit) ------------------------------------------------

TEST(CheckpointStore, BuddyCopiesAndVersioning) {
  ft::CheckpointStore store;
  util::ByteBuffer img;
  const char payload[] = "epoch-one";
  img.put_bytes(payload, sizeof payload);
  store.put(/*rank=*/0, /*epoch=*/1, /*resident_pe=*/0, {0, 1},
            std::move(img));
  EXPECT_EQ(store.copy_count(), 2u);
  EXPECT_EQ(store.latest_epoch(0), 1u);

  util::ByteBuffer img2;
  const char payload2[] = "epoch-two";
  img2.put_bytes(payload2, sizeof payload2);
  store.put(0, 2, /*resident_pe=*/1, {1, 0}, std::move(img2));
  store.retire_before(2);
  EXPECT_EQ(store.latest_epoch(0), 2u);
  for (const auto& m : store.copies(0)) {
    EXPECT_EQ(m.epoch, 2u);
    EXPECT_EQ(m.resident_pe, 1);
  }

  // Losing one owner leaves the buddy copy serving fetches.
  store.lose_pe(1);
  EXPECT_TRUE(store.has(0, 2));
  std::vector<comm::Payload> chain;
  ASSERT_TRUE(store.fetch_chain(0, 2, chain));
  ASSERT_EQ(chain.size(), 1u);
  ASSERT_EQ(chain[0].size(), sizeof payload2);
  EXPECT_EQ(std::memcmp(chain[0].data(), payload2, sizeof payload2), 0);

  // Losing the second owner destroys the last copy, and a dead PE can
  // never be written again.
  store.lose_pe(0);
  EXPECT_FALSE(store.has(0, 2));
  util::ByteBuffer img3;
  img3.put_bytes(payload, sizeof payload);
  store.put(0, 3, 0, {0, 1}, std::move(img3));
  EXPECT_EQ(store.copy_count(), 0u);
}

// --- dead-letter routing (comm unit) ----------------------------------------

TEST(DeadLetter, UserMessagesFollowRecoveredRank) {
  comm::Cluster::Config cc;
  cc.nodes = 2;
  cc.pes_per_node = 1;
  comm::Cluster cluster(cc);
  std::atomic<int> delivered{0};
  for (int pe = 0; pe < 2; ++pe) {
    cluster.pe(pe).set_dispatcher([&delivered](comm::Message&& m) {
      if (m.kind == comm::Message::Kind::UserData && m.tag == 7) ++delivered;
    });
  }
  const comm::PeId initial[] = {0, 1};
  cluster.places().seed(initial);
  cluster.start();
  cluster.places().park(1, 1);  // rank 1's place: awaiting adoption on PE 1
  cluster.fail_pe(1);
  EXPECT_TRUE(cluster.pe_failed(1));
  EXPECT_EQ(cluster.num_live_pes(), 1);
  EXPECT_EQ(cluster.alive_mask(), (std::vector<bool>{true, false}));

  // User data addressed to the dead PE waits for its rank to be re-homed.
  comm::Message user;
  user.kind = comm::Message::Kind::UserData;
  user.src_pe = 0;
  user.dst_pe = 1;
  user.dst_rank = 1;
  user.tag = 7;
  cluster.send(std::move(user));
  EXPECT_EQ(cluster.dead_letter_count(), 1u);
  EXPECT_EQ(delivered.load(), 0);

  // Control traffic to a dead machine is simply lost.
  comm::Message ctl;
  ctl.kind = comm::Message::Kind::Control;
  ctl.dst_pe = 1;
  cluster.send(std::move(ctl));
  EXPECT_EQ(cluster.totals()[Ctr::CommDropped], 1u);

  // Re-home rank 1 onto the survivor, which adopts it, and flush: the
  // message is delivered.
  ASSERT_TRUE(cluster.places().rehome(1, 0));
  cluster.places().arrive(0, 1, [] {}, [](comm::Message&&) {});
  EXPECT_EQ(cluster.flush_dead_letters(), 1u);
  EXPECT_EQ(cluster.dead_letter_count(), 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (delivered.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.load(), 1);
  cluster.stop_and_join();
}

// --- buddy placement (runtime) ----------------------------------------------

namespace {

void* buddy_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  int* data = env->rank_alloc_array<int>(1024);
  for (int i = 0; i < 1024; ++i) data[i] = env->rank() * 10000 + i;
  const int restored = env->checkpoint_all();
  env->rank_free(data);
  env->barrier();
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(restored));
}

}  // namespace

TEST(BuddyCheckpoint, EveryRankStoredOnSelfAndNextPe) {
  const img::ProgramImage image = build_entry("buddy", &buddy_main);
  mpi::Runtime rt(image, cfg_pes(core::Method::PIEglobals, 4, 4));
  rt.run();
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 0)
        << "rank " << r << " saw a restore in a fault-free run";
  }
  ft::CheckpointStore& store = rt.checkpoint_store();
  EXPECT_EQ(store.copy_count(), 8u);  // 4 ranks x 2 copies
  EXPECT_GT(store.total_bytes(), 0u);
  for (int r = 0; r < 4; ++r) {
    const auto copies = store.copies(r);
    ASSERT_EQ(copies.size(), 2u) << "rank " << r;
    const comm::PeId home = copies[0].resident_pe;
    std::set<comm::PeId> owners;
    for (const auto& m : copies) {
      EXPECT_EQ(m.epoch, 1u);
      EXPECT_EQ(m.resident_pe, home);
      EXPECT_GT(m.bytes, 0u);
      owners.insert(m.owner_pe);
    }
    EXPECT_EQ(owners, (std::set<comm::PeId>{home, (home + 1) % 4}))
        << "rank " << r;
  }
}

// --- versioned restore (runtime) --------------------------------------------

namespace {

// Checkpoint at epoch 1, mutate, migrate, checkpoint at epoch 2, mutate
// again, then rewind: the restore must land on the *post-migration* epoch-2
// image, and the store must have retired every epoch-1 copy.
void* versioned_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  int* counter = env->rank_alloc_array<int>(1);
  *counter = 10;
  const int r1 = env->checkpoint_all();  // epoch 1
  *counter = 20;
  env->migrate_to((env->my_pe() + 1) % env->num_pes());
  const int r2 = env->checkpoint_all();  // epoch 2: retires epoch 1
  if (r2 == 0) {
    *counter = 999;
    env->barrier();
    env->runtime().do_restore(env->state());  // collective rewind
    return nullptr;                           // unreachable
  }
  // Resumed from the epoch-2 image: the counter mutation is gone, and the
  // replayed stack still remembers epoch 1 completing fault-free.
  const std::intptr_t ok = (*counter == 20 && r1 == 0) ? 1 : 0;
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

TEST(BuddyCheckpoint, RestoreUsesLatestEpochAfterMigration) {
  const img::ProgramImage image = build_entry("versioned", &versioned_main);
  mpi::Runtime rt(image, cfg_pes(core::Method::PIEglobals, 2, 2));
  rt.run();
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(0)), 1);
  EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(1)), 1);
  ft::CheckpointStore& store = rt.checkpoint_store();
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(store.latest_epoch(r), 2u);
    for (const auto& m : store.copies(r)) {
      EXPECT_EQ(m.epoch, 2u) << "stale epoch-1 copy survived for rank " << r;
      // Both ranks migrated off their starting PE before epoch 2.
      EXPECT_EQ(m.resident_pe, (r + 1) % 2);
    }
  }
}

// --- PIP/FS refuse (runtime) ------------------------------------------------

namespace {

void* refuse_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  env->checkpoint_all();  // must throw CheckpointRefused
  env->barrier();
  return nullptr;
}

}  // namespace

class CheckpointRefusedPerMethod
    : public ::testing::TestWithParam<core::Method> {};

TEST_P(CheckpointRefusedPerMethod, PipAndFsRefuseBuddyCheckpoints) {
  // Recovery restores a rank through the migration path, which PIPglobals
  // and FSglobals cannot take; the refusal surfaces as a rank failure.
  const img::ProgramImage image = build_entry("refuse", &refuse_main);
  mpi::Runtime rt(image, cfg_pes(GetParam(), 2, 2));
  EXPECT_THROW(rt.run(), util::ApvError);
}

INSTANTIATE_TEST_SUITE_P(
    NonMigratableMethods, CheckpointRefusedPerMethod,
    ::testing::Values(core::Method::PIPglobals, core::Method::FSglobals),
    [](const ::testing::TestParamInfo<core::Method>& info) {
      return core::method_name(info.param);
    });

// --- end-to-end recovery (runtime + jacobi) ---------------------------------

namespace {

// `delta` is the ft.delta spelling; anything but "off" arms delta images.
// `share_code` is pie.share_code (PIEglobals: code mapped, not copied).
double run_ft_jacobi(core::Method method, bool inject,
                     const char* delta = "on", bool share_code = true) {
  apps::JacobiParams params;
  params.nx = 12;
  params.ny = 12;
  params.nz = 24;
  params.iters = 8;
  params.residual_every = 4;
  params.checkpoint_every = 2;
  params.code_bytes = 1 << 20;
  params.tag_tls = method == core::Method::TLSglobals;
  const img::ProgramImage image = apps::build_jacobi(params);

  mpi::RuntimeConfig cfg = cfg_pes(method, 4, 4);
  cfg.options.set("ft.delta", delta);
  cfg.options.set_bool("pie.share_code", share_code);
  if (inject) {
    // Kill PE 1 at the second checkpoint (iteration 4 of 8): half the
    // solve runs on the degraded machine.
    cfg.options.set("ft.policy", "epoch");
    cfg.options.set("ft.pe", "1");
    cfg.options.set("ft.epoch", "2");
  }
  mpi::Runtime rt(image, cfg);
  rt.run();
  const util::CounterValues v = rt.cluster().totals();
  if (std::strcmp(delta, "off") != 0) {
    // Epoch 1 is a full base; the later epochs ride the dirty bitmap.
    EXPECT_GT(v[Ctr::CkptImagesDelta], 0u);
  } else {
    EXPECT_EQ(v[Ctr::CkptImagesDelta], 0u);
    EXPECT_EQ(v[Ctr::CkptBytesDelta], 0u);
  }
  if (inject) {
    EXPECT_GT(v[Ctr::Recoveries], 0u);
    EXPECT_GT(v[Ctr::RecoveryBytes], 0u);
    EXPECT_EQ(rt.cluster().num_live_pes(), 3);
    EXPECT_NE(rt.fault_injector(), nullptr);
    if (rt.fault_injector() != nullptr) {
      EXPECT_EQ(rt.fault_injector()->kills(), 1);
    }
    // Adopted ranks are each in exactly one place, and none is left on
    // the killed PE.
    test::expect_every_rank_finished_in_place(rt);
    for (int r = 0; r < cfg.vps; ++r)
      EXPECT_NE(rt.cluster().places().pe_of(r), 1) << "rank " << r;
  }
  if (method == core::Method::PIEglobals && share_code) {
    // Every code window maps the descriptor of the node its rank is on, an
    // adopted rank's too: one file per node.
    const auto node_of = [&rt](int r) {
      return rt.cluster().node_of(rt.cluster().places().pe_of(r));
    };
    const auto code_file = [&rt](int r) {
      return test::mapping_at(rt.rank_state(r).rc->instance->code_base())
          .inode;
    };
    for (int a = 0; a < cfg.vps; ++a) {
      EXPECT_NE(code_file(a), 0u) << "rank " << a;
      for (int b = a + 1; b < cfg.vps; ++b) {
        EXPECT_EQ(code_file(a) == code_file(b), node_of(a) == node_of(b))
            << "ranks " << a << " and " << b;
      }
    }
  }
  const double residual = apps::jacobi_result(rt.rank_return(0));
  EXPECT_TRUE(std::isfinite(residual));
  EXPECT_GT(residual, 0.0);
  return residual;
}

}  // namespace

// (method, pie.share_code): PIEglobals recovers with its code mapped from
// each node's descriptor and with the code copied into every image.
class RecoveryPerMethod
    : public ::testing::TestWithParam<std::tuple<core::Method, bool>> {};

TEST_P(RecoveryPerMethod, KillOnePeAndRecoverBitIdentical) {
  const auto [method, share_code] = GetParam();
  const double clean =
      run_ft_jacobi(method, /*inject=*/false, "on", share_code);
  const double recovered =
      run_ft_jacobi(method, /*inject=*/true, "on", share_code);
  // Recovery rewinds every rank to the last epoch and replays: arithmetic
  // is unchanged, so the residual must match the fault-free run exactly.
  EXPECT_EQ(recovered, clean);
}

INSTANTIATE_TEST_SUITE_P(
    MigratableMethods, RecoveryPerMethod,
    ::testing::Values(std::make_tuple(core::Method::TLSglobals, false),
                      std::make_tuple(core::Method::PIEglobals, false),
                      std::make_tuple(core::Method::PIEglobals, true)),
    [](const ::testing::TestParamInfo<std::tuple<core::Method, bool>>& info) {
      const core::Method method = std::get<0>(info.param);
      std::string name = core::method_name(method);
      if (method == core::Method::PIEglobals)
        name += std::get<1>(info.param) ? "_mapcode" : "_copycode";
      return name;
    });

// --- recovery under small-message aggregation -------------------------------

namespace {

// Two ranks, two PEs, kill the victim at the second epoch. This is the
// tightest shape for the commit-point race: with only two ranks the
// dissemination barrier lets the leader exit the instant the victim's token
// arrives, while the leader's own token to the victim may still be sitting
// in its PE's aggregation bin (the recovery leader then spin-yields, which
// keeps its scheduler busy). Regression for the deadlock where fail_pe was
// declared before the victim finished the epoch barrier and the binned
// token was diverted to the dead-letter queue.
void* two_rank_kill_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  // Large enough that the pack/idle timing matches the failing shape: the
  // race never showed with toy heaps, reliably did from ~10 MB up.
  constexpr std::size_t kBytes = 10 << 20;
  auto* buf = static_cast<unsigned char*>(env->rank_malloc(kBytes));
  for (std::size_t i = 0; i < kBytes; ++i) {
    buf[i] = static_cast<unsigned char>(i * 17 + me);
  }
  const int r1 = env->checkpoint_all();  // epoch 1: fault-free
  const int r2 = env->checkpoint_all();  // epoch 2: PE 1 dies here
  bool intact = true;
  for (std::size_t i = 0; i < kBytes; ++i) {
    if (buf[i] != static_cast<unsigned char>(i * 17 + me)) intact = false;
  }
  env->rank_free(buf);
  env->barrier();
  return reinterpret_cast<void*>(
      static_cast<std::intptr_t>(intact && r1 == 0 && r2 == 1 ? 1 : 0));
}

}  // namespace

// --- delta chains in the store (unit) ----------------------------------------

namespace {

// Builds genuine pack streams (the chains are unpacked into a slot, so
// synthetic bytes will not do): a 1 MB slot with a heap and one patterned
// allocation, mutated under the dirty tracker between epochs.
struct DeltaChainRig {
  iso::IsoArena arena{{.slot_size = std::size_t{1} << 20, .max_slots = 2}};
  iso::DirtyTracker tracker{arena};
  iso::SlotId slot = arena.acquire_slot();
  iso::SlotHeap* heap =
      iso::SlotHeap::format(arena.slot_base(slot), arena.slot_size());
  unsigned char* data =
      static_cast<unsigned char*>(heap->alloc(std::size_t{32} << 10));

  DeltaChainRig() {
    for (std::size_t i = 0; i < (std::size_t{32} << 10); ++i) {
      data[i] = static_cast<unsigned char>(i * 13 + 1);
    }
  }

  std::size_t prefix() const {
    return iso::packed_payload_size(arena, slot, iso::PackMode::Touched);
  }

  util::ByteBuffer pack_full() {
    util::ByteBuffer out;
    iso::pack_slot(arena, slot, iso::PackMode::Touched, out);
    return out;
  }

  // Arms, applies a sparse epoch-specific mutation, and packs the delta.
  util::ByteBuffer mutate_and_pack_delta(std::uint32_t base_epoch,
                                         unsigned seed) {
    tracker.arm(slot);
    for (std::size_t i = 0; i < 2048; ++i) {
      data[i] = static_cast<unsigned char>(i * 7 + seed);
    }
    util::ByteBuffer out;
    iso::pack_slot_delta(arena, slot, tracker.dirty_regions(slot, prefix()),
                         base_epoch, out);
    tracker.disarm(slot);
    return out;
  }

  // Wrecks the slot, applies `chain` in order, and compares the prefix
  // against `expect`. Raw (unsanitized) copies throughout: the slot's freed
  // heap interiors are ASan-quarantined — the wreck deliberately scribbles
  // into them, and the restored prefix legitimately spans them.
  void verify_chain_restores(const std::vector<comm::Payload>& chain,
                             const std::vector<unsigned char>& expect) {
    util::raw_memset(arena.slot_base(slot), 0xEE, arena.slot_size());
    for (const comm::Payload& img : chain) {
      util::ByteReader r(img.data(), img.size());
      iso::unpack_slot(arena, slot, r);
    }
    ASSERT_EQ(expect.size(), prefix());
    std::vector<unsigned char> got(expect.size());
    util::raw_memcpy(got.data(), arena.slot_base(slot), got.size());
    EXPECT_EQ(std::memcmp(expect.data(), got.data(), expect.size()), 0);
    EXPECT_TRUE(
        iso::SlotHeap::at(arena.slot_base(slot))->check_integrity());
  }

  std::vector<unsigned char> snapshot_prefix() const {
    std::vector<unsigned char> out(prefix());
    util::raw_memcpy(out.data(), arena.slot_base(slot), out.size());
    return out;
  }
};

}  // namespace

TEST(CheckpointStore, DeltaChainMaterializesAndRetireKeepsLinks) {
  DeltaChainRig rig;
  ft::CheckpointStore store;
  store.put(0, 1, 0, {0, 1}, rig.pack_full());
  store.put_delta(0, 2, 1, 0, {0, 1}, rig.mutate_and_pack_delta(1, 2));
  store.put_delta(0, 3, 2, 0, {0, 1}, rig.mutate_and_pack_delta(2, 3));

  EXPECT_EQ(store.latest_epoch(0), 3u);
  EXPECT_TRUE(store.has(0, 2));
  EXPECT_TRUE(store.has(0, 3));
  EXPECT_EQ(store.chain_length(0, 3), 2u);

  // Retiring everything before the newest epoch must keep the whole chain:
  // the epoch-3 delta is useless without epochs 1 and 2.
  store.retire_rank_before(0, 3);
  EXPECT_TRUE(store.has(0, 3));
  EXPECT_EQ(store.copies(0).size(), 6u);

  const std::vector<unsigned char> expect = rig.snapshot_prefix();
  std::vector<comm::Payload> chain;
  ASSERT_TRUE(store.fetch_chain(0, 3, chain));
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_FALSE(iso::packed_image_is_delta(
      util::ByteReader(chain[0].data(), chain[0].size())));
  rig.verify_chain_restores(chain, expect);

  // Once a newer full base lands, the old chain really is garbage.
  store.put(0, 4, 0, {0, 1}, rig.pack_full());
  store.retire_rank_before(0, 4);
  EXPECT_EQ(store.latest_epoch(0), 4u);
  EXPECT_FALSE(store.has(0, 3));
  for (const auto& m : store.copies(0)) EXPECT_EQ(m.epoch, 4u);
}

TEST(CheckpointStore, BrokenChainFallsBackAndBuddySurvivesOneLoss) {
  const auto img = [](const char* s) {
    util::ByteBuffer b;
    b.put_bytes(s, std::strlen(s) + 1);
    return b;
  };

  // Base owned only by PE 0, delta only by PE 1: losing PE 0 severs the
  // chain even though the delta's own bytes survive, and the newest-epoch
  // index must notice on its rescan.
  ft::CheckpointStore severed;
  severed.put(0, 1, 0, {0}, img("base"));
  severed.put_delta(0, 2, 1, 0, {1}, img("delta"));
  EXPECT_EQ(severed.latest_epoch(0), 2u);
  severed.lose_pe(0);
  EXPECT_FALSE(severed.has(0, 2));
  EXPECT_EQ(severed.latest_epoch(0), 0u);

  // With buddy copies of every link, one PE loss leaves the chain whole.
  ft::CheckpointStore buddy;
  buddy.put(1, 1, 0, {0, 1}, img("base"));
  buddy.put_delta(1, 2, 1, 0, {0, 1}, img("delta"));
  buddy.lose_pe(0);
  EXPECT_TRUE(buddy.has(1, 2));
  EXPECT_EQ(buddy.latest_epoch(1), 2u);
  std::vector<comm::Payload> chain;
  ASSERT_TRUE(buddy.fetch_chain(1, 2, chain));
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_STREQ(reinterpret_cast<const char*>(chain[0].data()), "base");
  EXPECT_STREQ(reinterpret_cast<const char*>(chain[1].data()), "delta");
}

// --- delta checkpoints (runtime) ---------------------------------------------

namespace {

void* delta_epochs_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  int* data = env->rank_alloc_array<int>(4096);
  for (int i = 0; i < 4096; ++i) data[i] = env->rank() + i;
  int rc = env->checkpoint_all();  // epoch 1: first image is a full base
  data[0] += 1;
  rc += env->checkpoint_all();  // epoch 2: delta
  data[1] += 1;
  rc += env->checkpoint_all();  // epoch 3: delta
  env->rank_free(data);
  env->barrier();
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(rc));
}

void* migrate_delta_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  int* data = env->rank_alloc_array<int>(4096);
  const int me = env->rank();
  for (int i = 0; i < 4096; ++i) data[i] = me * 7 + i;
  int rc = env->checkpoint_all();  // epoch 1: full
  data[0] += 1;
  rc += env->checkpoint_all();  // epoch 2: delta
  // A move between nodes rewrites the slot wholesale on the destination:
  // the dirty bitmap is void, so the next image falls back to a full base.
  // A move within a node leaves the slot and its bitmap alone.
  env->migrate_to((env->my_pe() + 1) % env->num_pes());
  data[1] += 1;
  rc += env->checkpoint_all();  // epoch 3: full again, or a delta
  data[2] += 1;
  rc += env->checkpoint_all();  // epoch 4: delta
  const bool ok = rc == 0 && data[0] == me * 7 + 1 &&
                  data[1] == me * 7 + 2 && data[2] == me * 7 + 3;
  env->rank_free(data);
  env->barrier();
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(ok ? 1 : 0));
}

}  // namespace

TEST(DeltaCheckpoint, FirstImageFullThenDeltas) {
  const img::ProgramImage image =
      build_entry("deltaepochs", &delta_epochs_main);
  mpi::Runtime rt(image, cfg_pes(core::Method::PIEglobals, 2, 2));
  rt.run();
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 0)
        << "rank " << r;
  }
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_EQ(v[Ctr::CkptImagesFull], 2u);   // epoch 1, both ranks
  EXPECT_EQ(v[Ctr::CkptImagesDelta], 4u);  // epochs 2-3, both ranks
  EXPECT_GT(v[Ctr::CkptBytesFull], 0u);
  EXPECT_GT(v[Ctr::CkptBytesDelta], 0u);
  EXPECT_GT(v[Ctr::CkptPagesDirty], 0u);
  // Steady state: the average delta is smaller than the average full image.
  EXPECT_LT(v[Ctr::CkptBytesDelta] / 4, v[Ctr::CkptBytesFull] / 2);
}

TEST(DeltaCheckpoint, MigrationForcesFullBaseThenDeltasResume) {
  const img::ProgramImage image =
      build_entry("migdelta", &migrate_delta_main);
  mpi::Runtime rt(image, cfg_pes(core::Method::PIEglobals, 2, 2));
  rt.run();
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  // Epochs 1 and 3 are full (initial base, then the post-migration rebase);
  // epochs 2 and 4 are deltas — the tracker re-armed after the migration.
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_EQ(v[Ctr::CkptImagesFull], 4u);
  EXPECT_EQ(v[Ctr::CkptImagesDelta], 4u);
}

TEST(DeltaCheckpoint, MoveWithinNodeKeepsDeltaChain) {
  const img::ProgramImage image =
      build_entry("migdelta", &migrate_delta_main);
  mpi::Runtime rt(image,
                  cfg_pes(core::Method::PIEglobals, 2, 2, /*nodes=*/1));
  rt.run();
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  // Only epoch 1 is full: the move copied nothing and left the write
  // barrier armed, so epochs 2-4 are all deltas.
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_EQ(v[Ctr::Migrations], 2u);
  EXPECT_EQ(v[Ctr::MigrationBytes], 0u);
  EXPECT_EQ(v[Ctr::CkptImagesFull], 2u);
  EXPECT_EQ(v[Ctr::CkptImagesDelta], 6u);
}

TEST(DeltaCheckpoint, DeltaOffRecoveryMatchesDeltaOn) {
  // Same solve, same injected kill; the only difference is ft.delta. The
  // restored arithmetic must be bit-identical either way (and the off run's
  // zero delta counters are asserted inside the helper).
  const double with_delta =
      run_ft_jacobi(core::Method::PIEglobals, /*inject=*/true, "on");
  const double without_delta =
      run_ft_jacobi(core::Method::PIEglobals, /*inject=*/true, "off");
  EXPECT_EQ(with_delta, without_delta);
}

// Every on spelling arms delta checkpoints, not only the literal "on" (the
// helper asserts ckpt_images_delta > 0).
TEST(DeltaCheckpoint, TrueSpellingArmsDeltas) {
  run_ft_jacobi(core::Method::PIEglobals, /*inject=*/false, "true");
}

namespace {

// Three checkpoints with distinct sparse mutations between them, then PE 1
// dies at the epoch-3 commit: every rank restores from a full-plus-two-
// deltas chain, and both mutations must be present afterwards.
void* chain_kill_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  constexpr std::size_t kInts = std::size_t{1} << 16;
  int* data = env->rank_alloc_array<int>(kInts);
  for (std::size_t i = 0; i < kInts; ++i) {
    data[i] = me * 1000 + static_cast<int>(i);
  }
  const int r1 = env->checkpoint_all();  // epoch 1: full base
  for (std::size_t i = 0; i < kInts; i += 997) data[i] += 7;
  const int r2 = env->checkpoint_all();  // epoch 2: delta
  for (std::size_t i = 0; i < kInts; i += 1009) data[i] += 11;
  const int r3 = env->checkpoint_all();  // epoch 3: delta; PE 1 dies here
  bool ok = r1 == 0 && r2 == 0 && r3 == 1;
  for (std::size_t i = 0; i < kInts && ok; ++i) {
    int want = me * 1000 + static_cast<int>(i);
    if (i % 997 == 0) want += 7;
    if (i % 1009 == 0) want += 11;
    if (data[i] != want) ok = false;
  }
  env->rank_free(data);
  env->barrier();
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(ok ? 1 : 0));
}

}  // namespace

TEST(Recovery, KillMidDeltaChainRestoresBothMutations) {
  const img::ProgramImage image = build_entry("chainkill", &chain_kill_main);
  mpi::RuntimeConfig cfg = cfg_pes(core::Method::PIEglobals, 2, 2);
  cfg.options.set("ft.policy", "epoch");
  cfg.options.set("ft.pe", "1");
  cfg.options.set("ft.epoch", "3");
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_EQ(v[Ctr::Recoveries], 1u);
  EXPECT_GT(v[Ctr::CkptImagesDelta], 0u);
}

namespace {

// Three ranks on 1 node x 3 PEs. Each moves to the next PE between epochs
// 2 and 3, a move that copies nothing, so its epoch-3 delta is packed on
// its new PE on top of a base and a delta packed on its old one. PE 1 dies
// at epoch 3: rank 0, which moved onto it, is adopted from that mixed chain.
void* move_then_kill_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  constexpr std::size_t kInts = std::size_t{1} << 16;
  int* data = env->rank_alloc_array<int>(kInts);
  for (std::size_t i = 0; i < kInts; ++i) {
    data[i] = me * 1000 + static_cast<int>(i);
  }
  const int r1 = env->checkpoint_all();  // epoch 1: full base
  for (std::size_t i = 0; i < kInts; i += 997) data[i] += 7;
  const int r2 = env->checkpoint_all();  // epoch 2: delta
  env->migrate_to((env->my_pe() + 1) % env->num_pes());
  for (std::size_t i = 0; i < kInts; i += 1009) data[i] += 11;
  const int r3 = env->checkpoint_all();  // epoch 3: delta; PE 1 dies here
  bool ok = r1 == 0 && r2 == 0 && r3 == 1;
  for (std::size_t i = 0; i < kInts && ok; ++i) {
    int want = me * 1000 + static_cast<int>(i);
    if (i % 997 == 0) want += 7;
    if (i % 1009 == 0) want += 11;
    if (data[i] != want) ok = false;
  }
  env->rank_free(data);
  env->barrier();
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(ok ? 1 : 0));
}

}  // namespace

TEST(Recovery, KillAfterMoveWithinNodeRestoresMixedChain) {
  const img::ProgramImage image =
      build_entry("movekill", &move_then_kill_main);
  mpi::RuntimeConfig cfg =
      cfg_pes(core::Method::PIEglobals, 3, 3, /*nodes=*/1);
  cfg.options.set("ft.policy", "epoch");
  cfg.options.set("ft.pe", "1");
  cfg.options.set("ft.epoch", "3");
  // A steal while the ranks change places could leave PE 1 without the
  // rank whose mixed chain this test adopts.
  cfg.options.set("sched.steal", "off");
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
    EXPECT_NE(rt.cluster().places().pe_of(r), 1) << "rank " << r;
  }
  const util::CounterValues v = rt.cluster().totals();
  EXPECT_EQ(v[Ctr::Recoveries], 1u);
  EXPECT_EQ(v[Ctr::MigrationBytes], 0u);
  // One full base per rank; every later image, the adopted chain's too, is
  // a delta.
  EXPECT_EQ(v[Ctr::CkptImagesFull], 3u);
  EXPECT_EQ(v[Ctr::CkptImagesDelta], 6u);
}

TEST(Recovery, TwoRankEpochKillWithAggregation) {
  // A couple of repetitions: the original hang was a scheduling race.
  for (int rep = 0; rep < 2; ++rep) {
    const img::ProgramImage image =
        build_entry("tworank", &two_rank_kill_main);
    mpi::RuntimeConfig cfg =
        cfg_pes(core::Method::PIEglobals, 2, 2, /*nodes=*/2);
    cfg.slot_bytes = std::size_t{64} << 20;
    cfg.options.set("ft.policy", "epoch");
    cfg.options.set("ft.pe", "1");
    cfg.options.set("ft.epoch", "2");
    cfg.options.set("mpi.timeout_s", "60");
    mpi::Runtime rt(image, cfg);
    rt.run();
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
          << "rep " << rep << " rank " << r;
    }
    EXPECT_EQ(rt.cluster().totals()[Ctr::Recoveries], 1u) << "rep " << rep;
    EXPECT_EQ(rt.cluster().num_live_pes(), 1) << "rep " << rep;
  }
}
