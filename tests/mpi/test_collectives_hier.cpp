// Hierarchical-collective correctness sweep: barrier / bcast / reduce /
// allreduce / scan, commutative (builtin Sum) and non-commutative
// (associative affine-map user op), at 1 / 4 / 16 ranks per PE on 3, 4 and
// 10 PEs, with the coll.algo=naive escape hatch cross-checked against
// coll.algo=hier.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/counters.hpp"

using namespace apv;
using mpi::Datatype;
using util::Ctr;
using mpi::Env;
using mpi::Op;
using mpi::OpKind;

namespace {

// Affine maps (p, q) ~ x -> p*x + q under composition: associative but not
// commutative, so order-sensitive folds are validated without relying on
// any particular bracketing.
constexpr int affine_p(int i) { return i % 8 == 0 ? 2 : 1; }
constexpr int affine_q(int i) { return i + 1; }

void affine_fold(int lo, int hi, int* ep, int* eq) {
  *ep = 1;
  *eq = 0;
  for (int i = lo; i < hi; ++i) {
    *eq = *ep * affine_q(i) + *eq;
    *ep = *ep * affine_p(i);
  }
}

// A bandwidth-sized allreduce next to the latency-sized ones below.
constexpr int kBigCount = 16384;  // 64 KiB of ints

void* sweep_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  const auto check = [&ok](bool cond) { ok = ok && cond ? 1 : 0; };

  env->barrier();

  // Bcast from first, middle, and last rank.
  for (const int root : {0, n / 2, n - 1}) {
    long payload[3] = {0, 0, 0};
    if (me == root) {
      payload[0] = 1000 + root;
      payload[1] = 2000 + root;
      payload[2] = 3000 + root;
    }
    env->bcast(payload, 3, Datatype::Long, root);
    check(payload[0] == 1000 + root && payload[1] == 2000 + root &&
          payload[2] == 3000 + root);
  }

  // Commutative reduce to both edge roots.
  for (const int root : {0, n - 1}) {
    int v[4] = {me, me * 2, 1, me + root};
    int out[4] = {-1, -1, -1, -1};
    env->reduce(v, out, 4, Datatype::Int, Op::builtin(OpKind::Sum), root);
    if (me == root) {
      const int s = n * (n - 1) / 2;
      check(out[0] == s && out[1] == 2 * s && out[2] == n &&
            out[3] == s + n * root);
    }
  }

  // Commutative allreduce, small.
  {
    int v[2] = {me + 1, me * me};
    int out[2] = {0, 0};
    env->allreduce(v, out, 2, Datatype::Int, Op::builtin(OpKind::Sum));
    int s1 = 0, s2 = 0;
    for (int i = 0; i < n; ++i) {
      s1 += i + 1;
      s2 += i * i;
    }
    check(out[0] == s1 && out[1] == s2);
  }

  // Commutative allreduce, large.
  {
    std::vector<int> v(kBigCount), out(kBigCount, -1);
    for (int i = 0; i < kBigCount; ++i) v[static_cast<std::size_t>(i)] = me + i;
    env->allreduce(v.data(), out.data(), kBigCount, Datatype::Int,
                   Op::builtin(OpKind::Sum));
    const int s = n * (n - 1) / 2;
    bool good = true;
    for (int i = 0; i < kBigCount; ++i)
      good = good && out[static_cast<std::size_t>(i)] == n * i + s;
    check(good);
  }

  // Commutative scan.
  {
    int v = me + 1;
    int out = -1;
    env->scan(&v, &out, 1, Datatype::Int, Op::builtin(OpKind::Sum));
    check(out == (me + 1) * (me + 2) / 2);
  }

  // Non-commutative reduce / allreduce / scan with the affine user op.
  const Op op = env->op_create("user_combine", /*commutative=*/false);
  {
    const int root = (2 * n) / 3;
    int v[2] = {affine_p(me), affine_q(me)};
    int out[2] = {-1, -1};
    env->reduce(v, out, 2, Datatype::Int, op, root);
    if (me == root) {
      int ep = 0, eq = 0;
      affine_fold(0, n, &ep, &eq);
      check(out[0] == ep && out[1] == eq);
    }
  }
  {
    int v[2] = {affine_p(me), affine_q(me)};
    int out[2] = {-1, -1};
    env->allreduce(v, out, 2, Datatype::Int, op);
    int ep = 0, eq = 0;
    affine_fold(0, n, &ep, &eq);
    check(out[0] == ep && out[1] == eq);
  }
  {
    int v[2] = {affine_p(me), affine_q(me)};
    int out[2] = {-1, -1};
    env->scan(v, out, 2, Datatype::Int, op);
    int ep = 0, eq = 0;
    affine_fold(0, me + 1, &ep, &eq);
    check(out[0] == ep && out[1] == eq);
  }

  env->barrier();
  return reinterpret_cast<void*>(ok);
}

struct HierCase {
  int pes;
  int ranks_per_pe;
  bool hier;
};

// Odd (3) and even (4) agent counts, and more agents (10) than any single
// step of a tree over them would touch.
const auto kShapes = ::testing::Values(
    HierCase{3, 1, true}, HierCase{3, 1, false}, HierCase{3, 4, true},
    HierCase{3, 4, false}, HierCase{3, 16, true}, HierCase{3, 16, false},
    HierCase{4, 1, true}, HierCase{4, 1, false}, HierCase{4, 4, true},
    HierCase{4, 4, false}, HierCase{4, 16, true}, HierCase{4, 16, false},
    HierCase{10, 1, true}, HierCase{10, 1, false}, HierCase{10, 4, true},
    HierCase{10, 4, false});

std::string shape_name(const ::testing::TestParamInfo<HierCase>& info) {
  return "pes" + std::to_string(info.param.pes) + "_rpp" +
         std::to_string(info.param.ranks_per_pe) +
         (info.param.hier ? "_hier" : "_naive");
}

// Hier runs meet in shared blocks; naive ones never do.
void expect_meetings(mpi::Runtime& rt, bool hier) {
  const std::uint64_t meetings =
      rt.cluster().totals()[Ctr::CollSharedRendezvous];
  if (hier) {
    EXPECT_GT(meetings, 0u);
  } else {
    EXPECT_EQ(meetings, 0u);
  }
}

}  // namespace

class HierSweep : public ::testing::TestWithParam<HierCase> {};

TEST_P(HierSweep, AllCollectivesAgree) {
  const HierCase c = GetParam();
  img::ImageBuilder b("hiersweep");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &sweep_main);
  // Cast through void(*)(), which -Wcast-function-type exempts.
  b.add_function("user_combine",
                 reinterpret_cast<img::NativeFn>(reinterpret_cast<void (*)()>(
                     +[](const void* in, void* inout, int len, Datatype) {
                       const int* a = static_cast<const int*>(in);
                       int* b2 = static_cast<int*>(inout);
                       for (int i = 0; i + 1 < len; i += 2) {
                         b2[i + 1] = a[i] * b2[i + 1] + a[i + 1];
                         b2[i] = a[i] * b2[i];
                       }
                     })));
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = c.pes;
  cfg.vps = c.ranks_per_pe * c.pes;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("coll.algo", c.hier ? "hier" : "naive");
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  // Every group-block attachment was detached again.
  EXPECT_EQ(rt.live_group_blocks(), 0u);
  expect_meetings(rt, c.hier);
  const std::uint64_t combines =
      rt.cluster().totals()[Ctr::CollLocalCombines];
  if (c.hier && c.ranks_per_pe > 1) {
    EXPECT_GT(combines, 0u);
  } else if (!c.hier) {
    EXPECT_EQ(combines, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HierSweep, kShapes, shape_name);

// ---------------------------------------------------------------------------
// Vector collectives: gather/gatherv/scatter/scatterv/allgather/alltoall,
// hier vs naive bit-identity across root positions, non-uniform counts, and
// a comm_split subset, at latency-sized and mid-sized blocks.

namespace {

constexpr int kVecBig = 1536;  // 6 KiB blocks

void* vector_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  const auto check = [&ok](bool cond) { ok = ok && cond ? 1 : 0; };

  env->barrier();

  // Gather: every root position, small and mid-sized blocks.
  for (const int root : {0, n / 2, n - 1}) {
    for (const int count : {2, kVecBig}) {
      std::vector<int> v(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i)
        v[static_cast<std::size_t>(i)] = me * 100000 + i;
      std::vector<int> out;
      if (me == root)
        out.assign(static_cast<std::size_t>(n) * count, -1);
      env->gather(v.data(), count, Datatype::Int, out.data(), count,
                  Datatype::Int, root);
      if (me == root) {
        bool good = true;
        for (int r = 0; r < n; ++r)
          for (int i = 0; i < count; ++i)
            good = good &&
                   out[static_cast<std::size_t>(r * count + i)] ==
                       r * 100000 + i;
        check(good);
      }
    }
  }

  // Gatherv: non-uniform counts (rank i contributes i%3+1 ints).
  for (const int root : {0, n - 1}) {
    const int mine = me % 3 + 1;
    std::vector<int> v(static_cast<std::size_t>(mine));
    for (int i = 0; i < mine; ++i)
      v[static_cast<std::size_t>(i)] = me * 10 + i;
    std::vector<int> counts, displs, out;
    if (me == root) {
      counts.resize(static_cast<std::size_t>(n));
      displs.resize(static_cast<std::size_t>(n));
      int off = 0;
      for (int r = 0; r < n; ++r) {
        counts[static_cast<std::size_t>(r)] = r % 3 + 1;
        displs[static_cast<std::size_t>(r)] = off;
        off += r % 3 + 1;
      }
      out.assign(static_cast<std::size_t>(off), -1);
    }
    env->gatherv(v.data(), mine, Datatype::Int, out.data(), counts.data(),
                 displs.data(), Datatype::Int, root);
    if (me == root) {
      bool good = true;
      int off = 0;
      for (int r = 0; r < n; ++r) {
        for (int i = 0; i < r % 3 + 1; ++i)
          good = good && out[static_cast<std::size_t>(off + i)] == r * 10 + i;
        off += r % 3 + 1;
      }
      check(good);
    }
  }

  // Scatter: small and mid-sized blocks.
  for (const int root : {0, n - 1}) {
    for (const int count : {3, kVecBig}) {
      std::vector<int> v;
      if (me == root) {
        v.resize(static_cast<std::size_t>(n) * count);
        for (int r = 0; r < n; ++r)
          for (int i = 0; i < count; ++i)
            v[static_cast<std::size_t>(r * count + i)] = r * 1000 + i + root;
      }
      std::vector<int> out(static_cast<std::size_t>(count), -1);
      env->scatter(v.data(), count, Datatype::Int, out.data(), count,
                   Datatype::Int, root);
      bool good = true;
      for (int i = 0; i < count; ++i)
        good = good &&
               out[static_cast<std::size_t>(i)] == me * 1000 + i + root;
      check(good);
    }
  }

  // Scatterv: non-uniform counts mirroring the gatherv shape.
  {
    const int root = n / 2;
    const int mine = me % 3 + 1;
    std::vector<int> v, counts, displs;
    if (me == root) {
      counts.resize(static_cast<std::size_t>(n));
      displs.resize(static_cast<std::size_t>(n));
      int off = 0;
      for (int r = 0; r < n; ++r) {
        counts[static_cast<std::size_t>(r)] = r % 3 + 1;
        displs[static_cast<std::size_t>(r)] = off;
        off += r % 3 + 1;
      }
      v.resize(static_cast<std::size_t>(off));
      for (int r = 0; r < n; ++r)
        for (int i = 0; i < r % 3 + 1; ++i)
          v[static_cast<std::size_t>(displs[static_cast<std::size_t>(r)] +
                                     i)] = r * 7 + i;
    }
    std::vector<int> out(static_cast<std::size_t>(mine), -1);
    env->scatterv(v.data(), counts.data(), displs.data(), Datatype::Int,
                  out.data(), mine, Datatype::Int, root);
    bool good = true;
    for (int i = 0; i < mine; ++i)
      good = good && out[static_cast<std::size_t>(i)] == me * 7 + i;
    check(good);
  }

  // Allgather: small and mid-sized blocks.
  for (const int count : {2, kVecBig}) {
    std::vector<int> v(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
      v[static_cast<std::size_t>(i)] = me * 100000 + i;
    std::vector<int> out(static_cast<std::size_t>(n) * count, -1);
    env->allgather(v.data(), count, Datatype::Int, out.data(), count,
                   Datatype::Int);
    bool good = true;
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < count; ++i)
        good = good &&
               out[static_cast<std::size_t>(r * count + i)] ==
                   r * 100000 + i;
    check(good);
  }

  // Alltoall: per-pair blocks, small and mid-size.
  for (const int count : {2, 64}) {
    std::vector<int> v(static_cast<std::size_t>(n) * count);
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < count; ++i)
        v[static_cast<std::size_t>(r * count + i)] = me * 100000 + r * 100 + i;
    std::vector<int> out(static_cast<std::size_t>(n) * count, -1);
    env->alltoall(v.data(), count, Datatype::Int, out.data(), count,
                  Datatype::Int);
    bool good = true;
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < count; ++i)
        good = good &&
               out[static_cast<std::size_t>(r * count + i)] ==
                   r * 100000 + me * 100 + i;
    check(good);
  }

  // Subset communicator: odd/even split, then the uniform trio on it. The
  // subcomm's groups are non-trivial comm-index intervals, exercising the
  // unordered-topology placement paths.
  {
    const mpi::CommId sub = env->comm_split(mpi::kCommWorld, me % 2, me);
    const int sr = env->rank(sub);
    const int sn = env->size(sub);
    const int base = me % 2;  // world rank of sub rank j is base + 2*j
    std::vector<int> v(4);
    for (int i = 0; i < 4; ++i) v[static_cast<std::size_t>(i)] = me * 10 + i;
    std::vector<int> out(static_cast<std::size_t>(sn) * 4, -1);
    env->allgather(v.data(), 4, Datatype::Int, out.data(), 4, Datatype::Int,
                   sub);
    bool good = true;
    for (int j = 0; j < sn; ++j)
      for (int i = 0; i < 4; ++i)
        good = good &&
               out[static_cast<std::size_t>(j * 4 + i)] ==
                   (base + 2 * j) * 10 + i;
    check(good);

    std::vector<int> g(static_cast<std::size_t>(sn), -1);
    const int gv = me + 1;
    env->gather(&gv, 1, Datatype::Int, g.data(), 1, Datatype::Int,
                /*root=*/sn - 1, sub);
    if (sr == sn - 1) {
      for (int j = 0; j < sn; ++j)
        good = good && g[static_cast<std::size_t>(j)] == base + 2 * j + 1;
      check(good);
    }

    std::vector<int> av(static_cast<std::size_t>(sn)), ao(
        static_cast<std::size_t>(sn), -1);
    for (int j = 0; j < sn; ++j)
      av[static_cast<std::size_t>(j)] = me * 100 + j;
    env->alltoall(av.data(), 1, Datatype::Int, ao.data(), 1, Datatype::Int,
                  sub);
    for (int j = 0; j < sn; ++j)
      good = good &&
             ao[static_cast<std::size_t>(j)] == (base + 2 * j) * 100 + sr;
    check(good);
    env->comm_free(sub);
  }

  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

class VectorSweep : public ::testing::TestWithParam<HierCase> {};

TEST_P(VectorSweep, AllVectorCollectivesAgree) {
  const HierCase c = GetParam();
  img::ImageBuilder b("vecsweep");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &vector_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = c.pes;
  cfg.vps = c.ranks_per_pe * c.pes;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("coll.algo", c.hier ? "hier" : "naive");
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  EXPECT_EQ(rt.live_group_blocks(), 0u);
  // Contributions moved through shared group blocks (hier only).
  const std::uint64_t vec_bytes = rt.cluster().totals()[Ctr::CollVecBytes];
  if (c.hier) {
    EXPECT_GT(vec_bytes, 0u);
  } else {
    EXPECT_EQ(vec_bytes, 0u);
  }
  expect_meetings(rt, c.hier);
}

INSTANTIATE_TEST_SUITE_P(Shapes, VectorSweep, kShapes, shape_name);

// ---------------------------------------------------------------------------
// Size-based selection: a uniform vector op whose single contribution is
// above the vector cutoff (32 KiB) takes the flat path under coll.algo=hier
// too, so no vector bytes cross a shared block.

namespace {

constexpr int kFlatBlock = 9000;  // 36000-byte blocks

void* flat_fallback_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  const int root = n - 1;
  std::intptr_t ok = 1;
  const auto check = [&ok](bool cond) { ok = ok && cond ? 1 : 0; };

  std::vector<int> v(kFlatBlock);
  for (int i = 0; i < kFlatBlock; ++i)
    v[static_cast<std::size_t>(i)] = me * 100000 + i;
  std::vector<int> all;
  if (me == root) all.assign(static_cast<std::size_t>(n) * kFlatBlock, -1);
  env->gather(v.data(), kFlatBlock, Datatype::Int, all.data(), kFlatBlock,
              Datatype::Int, root);
  if (me == root) {
    bool good = true;
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < kFlatBlock; ++i)
        good = good && all[static_cast<std::size_t>(r * kFlatBlock + i)] ==
                           r * 100000 + i;
    check(good);
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < kFlatBlock; ++i)
        all[static_cast<std::size_t>(r * kFlatBlock + i)] = r * 7 + i;
  }
  std::vector<int> mine(kFlatBlock, -1);
  env->scatter(all.data(), kFlatBlock, Datatype::Int, mine.data(),
               kFlatBlock, Datatype::Int, root);
  bool good = true;
  for (int i = 0; i < kFlatBlock; ++i)
    good = good && mine[static_cast<std::size_t>(i)] == me * 7 + i;
  check(good);
  return reinterpret_cast<void*>(ok);
}

}  // namespace

class FlatFallback : public ::testing::TestWithParam<bool> {};

TEST_P(FlatFallback, LargeBlocksGatherAndScatter) {
  const bool hier = GetParam();
  img::ImageBuilder b("flatfallback");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &flat_fallback_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.pes_per_node = 4;
  cfg.vps = 8;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{8} << 20;
  cfg.options.set("coll.algo", hier ? "hier" : "naive");
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < cfg.vps; ++r) {
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  }
  EXPECT_EQ(rt.live_group_blocks(), 0u);
  EXPECT_EQ(rt.cluster().totals()[Ctr::CollVecBytes], 0u);
}

INSTANTIATE_TEST_SUITE_P(Algo, FlatFallback, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "hier" : "naive");
                         });

// ---------------------------------------------------------------------------
// Mid-collective PE failure: a rank killed between vector collectives must
// recover from its buddy checkpoint and the re-run must still produce
// bit-identical gathers (no stale group block or half-staged slot survives).

namespace {

void* vector_ft_main(void* arg) {
  auto* env = static_cast<Env*>(arg);
  const int me = env->rank();
  const int n = env->size();
  std::intptr_t ok = 1;
  for (int it = 0; it < 3; ++it) {
    std::vector<int> v(8);
    for (int i = 0; i < 8; ++i)
      v[static_cast<std::size_t>(i)] = me * 100 + i + it;
    std::vector<int> out(static_cast<std::size_t>(n) * 8, -1);
    env->allgather(v.data(), 8, Datatype::Int, out.data(), 8, Datatype::Int);
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < 8; ++i)
        if (out[static_cast<std::size_t>(r * 8 + i)] != r * 100 + i + it)
          ok = 0;
    env->checkpoint_all();  // epoch it+1; PE 1 dies at epoch 2
    std::vector<int> a2a(static_cast<std::size_t>(n)), a2o(
        static_cast<std::size_t>(n), -1);
    for (int r = 0; r < n; ++r)
      a2a[static_cast<std::size_t>(r)] = me * 1000 + r + it;
    env->alltoall(a2a.data(), 1, Datatype::Int, a2o.data(), 1, Datatype::Int);
    for (int r = 0; r < n; ++r)
      if (a2o[static_cast<std::size_t>(r)] != r * 1000 + me + it) ok = 0;
  }
  env->barrier();
  return reinterpret_cast<void*>(ok);
}

}  // namespace

TEST(VectorFaultTolerance, KillBetweenVectorCollectivesRecovers) {
  img::ImageBuilder b("vecft");
  b.add_global<int>("unused", 0);
  b.add_function("mpi_main", &vector_ft_main);
  const img::ProgramImage image = b.build();
  mpi::RuntimeConfig cfg;
  cfg.nodes = 4;  // one PE per node: buddy copies live off-node
  cfg.pes_per_node = 1;
  cfg.vps = 4;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = std::size_t{16} << 20;
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("check.mode", "abort");
  cfg.options.set("ft.policy", "epoch");
  cfg.options.set("ft.pe", "1");
  cfg.options.set("ft.epoch", "2");
  mpi::Runtime rt(image, cfg);
  rt.run();
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(reinterpret_cast<std::intptr_t>(rt.rank_return(r)), 1)
        << "rank " << r;
  EXPECT_GT(rt.cluster().totals()[Ctr::Recoveries], 0u);
  ASSERT_NE(rt.checker(), nullptr);
  EXPECT_EQ(rt.checker()->diagnosis_count(), 0u);
}
