// Scheduler-tier integration tests: priority lanes vs the fifo escape
// hatch (A/B result identity), cooperative preemption under real traffic,
// the runtime checker staying false-positive-free with preemption armed,
// and idle-PE rank stealing racing checkpoints and PE failure.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "places_check.hpp"
#include "util/counters.hpp"

using namespace apv;
using mpi::Datatype;
using mpi::Env;
using util::Ctr;

namespace {

img::ProgramImage build_entry(const char* name, img::NativeFn fn) {
  img::ImageBuilder b(name);
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", fn);
  return b.build();
}

// Deterministic mixed traffic: a ring of small p2p messages (they ride the
// high-priority lane when lanes are on) interleaved with allreduces. The
// returned checksum depends on every hop, so any delivery or matching
// difference between scheduling policies shows up as a different value.
void* ring_mix_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  const int right = (me + 1) % n;
  const int left = (me + n - 1) % n;
  // Unsigned accumulator: the rolling checksum wraps by design after a few
  // dozen hops, which is UB on a signed type (UBSan: signed overflow).
  std::uintptr_t sum = 0;
  for (int i = 0; i < 24; ++i) {
    int out = me * 1000 + i;
    int in = -1;
    env->sendrecv(&out, 1, Datatype::Int, right, 3, &in, 1, Datatype::Int,
                  left, 3);
    sum = sum * 31 + static_cast<unsigned>(in);
    if (i % 6 == 5) {
      long v = static_cast<long>(sum % 9973), total = 0;
      env->allreduce(&v, &total, 1, Datatype::Long, mpi::Op::builtin(mpi::OpKind::Sum));
      sum += static_cast<std::uintptr_t>(total);
    }
  }
  env->barrier();
  return reinterpret_cast<void*>(sum);
}

struct MixResult {
  std::vector<std::intptr_t> returns;
  util::CounterValues sched;
};

MixResult run_ring_mix(const char* policy, bool preempt) {
  img::ProgramImage image = build_entry("schedmix", &ring_mix_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 2;
  cfg.vps = 6;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("sched.policy", policy);
  cfg.options.set("sched.preempt", preempt ? "on" : "off");
  mpi::Runtime rt(image, cfg);
  rt.run();
  MixResult res;
  for (int r = 0; r < cfg.vps; ++r)
    res.returns.push_back(reinterpret_cast<std::intptr_t>(rt.rank_return(r)));
  res.sched = rt.cluster().totals();
  return res;
}

}  // namespace

// A/B identity: the multi-lane scheduler reorders *when* ranks run, never
// *what* they compute — prio and fifo must produce identical results. The
// fifo run must also show the fast path fully disengaged (seed behaviour:
// everything is a Normal-lane dispatch, nothing preempted, nothing stolen).
TEST(SchedPolicy, PrioAndFifoProduceIdenticalResults) {
  const MixResult prio = run_ring_mix("prio", /*preempt=*/false);
  const MixResult fifo = run_ring_mix("fifo", /*preempt=*/false);
  ASSERT_EQ(prio.returns.size(), fifo.returns.size());
  for (std::size_t r = 0; r < prio.returns.size(); ++r)
    EXPECT_EQ(prio.returns[r], fifo.returns[r]) << "rank " << r;

  // Small cross-PE p2p must actually engage the high lane under prio…
  EXPECT_GT(prio.sched[Ctr::SchedDispatchHigh], 0u);
  // …and fifo must collapse everything onto the Normal lane.
  EXPECT_EQ(fifo.sched[Ctr::SchedDispatchHigh], 0u);
  EXPECT_EQ(fifo.sched[Ctr::SchedDispatchBulk], 0u);
  EXPECT_GT(fifo.sched[Ctr::SchedDispatchNormal], 0u);
  EXPECT_EQ(fifo.sched[Ctr::SchedPreemptions], 0u);
  EXPECT_EQ(fifo.sched[Ctr::SchedStealsIn], 0u);
}

// Preemption changes interleaving, not answers; fifo forces it off even
// when requested (the escape hatch dominates).
TEST(SchedPolicy, PreemptionPreservesResults) {
  const MixResult base = run_ring_mix("prio", /*preempt=*/false);
  const MixResult pre = run_ring_mix("prio", /*preempt=*/true);
  const MixResult fifo = run_ring_mix("fifo", /*preempt=*/true);
  for (std::size_t r = 0; r < base.returns.size(); ++r) {
    EXPECT_EQ(base.returns[r], pre.returns[r]) << "rank " << r;
    EXPECT_EQ(base.returns[r], fifo.returns[r]) << "rank " << r;
  }
  EXPECT_EQ(fifo.sched[Ctr::SchedPreemptions], 0u);
}

namespace {

// Two compute hogs sharing one PE: with a tiny quantum each hog's
// preempt points must demote it behind the other, so both make
// interleaved progress instead of running to completion back to back.
void* hog_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  for (int i = 0; i < 5; ++i) env->compute(0.002);
  env->barrier();
  return reinterpret_cast<void*>(std::intptr_t{1});
}

}  // namespace

TEST(SchedPreempt, ComputeHogsGetPreempted) {
  img::ProgramImage image = build_entry("schedhog", &hog_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 1;
  cfg.vps = 2;
  cfg.method = core::Method::None;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("sched.preempt", "on");
  cfg.options.set_int("sched.quantum_us", 50);
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1);
  const util::CounterValues c = rt.cluster().totals();
  EXPECT_GT(c[Ctr::SchedPreemptions], 0u);
  EXPECT_GT(c[Ctr::SchedDispatchBulk], 0u);  // demotions land in Bulk
}

namespace {

// ring_mix plus enough per-iteration compute that a 50µs quantum actually
// expires between messages — the checker then observes genuinely
// preempted p2p and collective traffic.
void* checker_mix_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  const int right = (me + 1) % n;
  const int left = (me + n - 1) % n;
  // Unsigned accumulator, same rationale as ring_mix_main: the checksum
  // wraps by design, which a signed type makes UB.
  std::uintptr_t sum = 0;
  for (int i = 0; i < 12; ++i) {
    env->compute(0.0005);
    int out = me * 1000 + i;
    int in = -1;
    env->sendrecv(&out, 1, Datatype::Int, right, 3, &in, 1, Datatype::Int,
                  left, 3);
    sum = sum * 31 + static_cast<unsigned>(in);
    if (i % 4 == 3) {
      long v = static_cast<long>(sum % 9973), total = 0;
      env->allreduce(&v, &total, 1, Datatype::Long,
                     mpi::Op::builtin(mpi::OpKind::Sum));
      sum += static_cast<std::uintptr_t>(total);
    }
  }
  env->barrier();
  return reinterpret_cast<void*>(sum);
}

}  // namespace

// The runtime correctness checker must stay false-positive-free when
// preemption reorders rank execution: check.mode=abort turns any
// false positive into a test failure.
TEST(SchedPreempt, CheckerCleanUnderPreemption) {
  img::ProgramImage image = build_entry("schedchk", &checker_mix_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 2;
  cfg.vps = 6;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("check.mode", "abort");
  cfg.options.set("sched.preempt", "on");
  cfg.options.set_int("sched.quantum_us", 50);
  mpi::Runtime rt(image, cfg);
  rt.run();  // an abort-mode violation would throw out of run()
  const util::CounterValues c = rt.cluster().totals();
  EXPECT_EQ(c[Ctr::CheckCollMismatches], 0u);
  EXPECT_GT(c[Ctr::SchedPreemptions], 0u);
}

namespace {

// Steal shape: everyone crowds onto PE 0, leaving PE 1 idle with a deep
// ready backlog next door. The compute/yield loop keeps several ranks
// queued Ready at any moment, which is exactly what the thief needs.
void* crowd_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  if (env->my_pe() != 0) env->migrate_to(0);
  env->barrier();
  for (int i = 0; i < 30; ++i) env->compute(0.001);
  long one = 1, total = 0;
  env->allreduce(&one, &total, 1, Datatype::Long, mpi::Op::builtin(mpi::OpKind::Sum));
  env->barrier();
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(total));
}

}  // namespace

TEST(SchedSteal, IdlePeStealsFromCrowdedNeighbor) {
  img::ProgramImage image = build_entry("schedsteal", &crowd_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 2;
  cfg.vps = 6;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("sched.steal", "on");
  cfg.options.set_int("sched.steal_idle_us", 50);
  // Preemption keeps the victim's slice boundaries frequent, so queued
  // steal requests are serviced promptly instead of waiting out a whole
  // compute slice (the bench pairs priority+steal the same way).
  cfg.options.set("sched.preempt", "on");
  cfg.options.set_int("sched.quantum_us", 100);
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), cfg.vps)
        << "rank " << r;
  }
  // Stolen ranks too: each in exactly one place.
  test::expect_every_rank_finished_in_place(rt);
  const util::CounterValues c = rt.cluster().totals();
  EXPECT_GE(c[Ctr::SchedStealRequests], 1u);
  EXPECT_GE(c[Ctr::SchedStealsIn], 1u);
  EXPECT_EQ(c[Ctr::SchedStealsIn], c[Ctr::SchedStealsOut]);
  // Both PEs share one node: the crowding moves and the steals ship no
  // image.
  EXPECT_EQ(c[Ctr::MigrationBytes], 0u);
}

namespace {

// Steals racing checkpoints: ranks crowd one PE, then interleave compute
// with full-cluster checkpoints while the idle PE keeps trying to steal.
// Heap integrity across the run proves no rank was packed mid-flight.
void* steal_ckpt_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  constexpr std::size_t kBytes = 64 << 10;
  auto* buf = static_cast<unsigned char*>(env->rank_malloc(kBytes));
  for (std::size_t i = 0; i < kBytes; ++i)
    buf[i] = static_cast<unsigned char>(i * 13 + me);
  if (env->my_pe() != 0) env->migrate_to(0);
  env->barrier();
  std::intptr_t ok = 1;
  for (int iter = 0; iter < 4; ++iter) {
    for (int i = 0; i < 8; ++i) env->compute(0.0005);
    if (env->checkpoint_all() != 0) ok = 0;  // no failure injected
  }
  for (std::size_t i = 0; i < kBytes; ++i) {
    if (buf[i] != static_cast<unsigned char>(i * 13 + me)) ok = 0;
  }
  env->rank_free(buf);
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

void run_steal_ckpt(int nodes) {
  img::ProgramImage image = build_entry("stealckpt", &steal_ckpt_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = nodes;
  cfg.pes_per_node = 2 / nodes;
  cfg.vps = 6;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("sched.steal", "on");
  cfg.options.set_int("sched.steal_idle_us", 50);
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  const util::CounterValues c = rt.cluster().totals();
  if (nodes == 1) {
    EXPECT_EQ(c[Ctr::MigrationBytes], 0u);
  }
}

}  // namespace

// Two PEs as 2 nodes (steals pack and unpack) and as 1 node (steals copy
// nothing and leave the write barrier armed between checkpoints).
TEST(SchedSteal, StealsDuringCheckpointsKeepStateIntact) {
  for (const int nodes : {2, 1}) {
    SCOPED_TRACE(nodes == 2 ? "2 nodes x 1 PE" : "1 node x 2 PEs");
    run_steal_ckpt(nodes);
  }
}

namespace {

// Steal vs fail_pe: PE 1 is killed at the second checkpoint epoch while
// stealing is armed. Recovery must adopt the victims and the steal
// machinery must not resurrect state on (or from) the dead PE.
void* steal_kill_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  constexpr std::size_t kBytes = 256 << 10;
  auto* buf = static_cast<unsigned char*>(env->rank_malloc(kBytes));
  for (std::size_t i = 0; i < kBytes; ++i)
    buf[i] = static_cast<unsigned char>(i * 17 + me);
  const int r1 = env->checkpoint_all();  // epoch 1: fault-free
  for (int i = 0; i < 6; ++i) env->compute(0.0005);
  const int r2 = env->checkpoint_all();  // epoch 2: PE 1 dies here
  for (int i = 0; i < 6; ++i) env->compute(0.0005);
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

TEST(SchedSteal, StealSurvivesPeFailure) {
  img::ProgramImage image = build_entry("stealkill", &steal_kill_main);
  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = 4;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("sched.steal", "on");
  cfg.options.set_int("sched.steal_idle_us", 50);
  cfg.options.set("ft.policy", "epoch");
  cfg.options.set("ft.pe", "1");
  cfg.options.set("ft.epoch", "2");
  mpi::Runtime rt(image, cfg);
  rt.run();
  ASSERT_NE(rt.fault_injector(), nullptr);
  EXPECT_EQ(rt.fault_injector()->kills(), 1);
  for (int r = 0; r < cfg.vps; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
}
