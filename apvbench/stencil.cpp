// stencil: Jacobi-3D on 24 ranks under PIEglobals, a 1-D chain of slabs of
// 64x64 planes (32 KiB halos), so 21 of the 23 halo edges are same-PE
// under the block map. The residual is allreduced every iteration and
// checkpoint_all runs every few hundred iterations. alpha is re-read
// through the privatized access path in the innermost loop. An op is one
// iteration on rank 0, from one allreduce return to the next. The initial
// field comes from the seed; every iteration's residual is checked against
// a single-threaded reference sweep computed before the first rep.

#include <cmath>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "mpi/env.hpp"

namespace apvbench {

namespace {

using mpi::Datatype;
using mpi::Op;
using mpi::OpKind;

constexpr int kRanks = 24;
constexpr int kNx = 64;
constexpr int kNy = 64;
constexpr int kPlanes = 16;  // interior planes per rank
constexpr int kIters = 1000;
constexpr int kCkptEvery = 250;
constexpr double kAlpha = 1.0 / 6.0;
constexpr double kRelTol = 1e-9;
constexpr int kTagUp = 11;
constexpr int kTagDown = 12;

inline std::size_t idx(int x, int y, int z) {
  return (static_cast<std::size_t>(z) * kNy + y) * kNx + x;
}

// Seeded initial value of global point (x, y, gz); gz = -1 and
// gz = kRanks * kPlanes are the fixed boundary planes.
inline double init_value(std::uint64_t seed, int x, int y, int gz) {
  const std::uint64_t h = mix(seed, static_cast<std::uint64_t>(gz + 1),
                              static_cast<std::uint64_t>(y * kNx + x));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// One sweep over planes 1..nz of `grid` into `next`; returns the L1 norm of
// the update. `alpha` is whatever the caller reads per point.
template <typename Alpha>
double sweep(const double* grid, double* next, int nz, Alpha&& alpha) {
  double res = 0.0;
  for (int z = 1; z <= nz; ++z) {
    for (int y = 1; y < kNy - 1; ++y) {
      for (int x = 1; x < kNx - 1; ++x) {
        const double a = alpha();
        const double v =
            a * (grid[idx(x - 1, y, z)] + grid[idx(x + 1, y, z)] +
                 grid[idx(x, y - 1, z)] + grid[idx(x, y + 1, z)] +
                 grid[idx(x, y, z - 1)] + grid[idx(x, y, z + 1)]);
        const std::size_t c = idx(x, y, z);
        res += std::abs(v - grid[c]);
        next[c] = v;
      }
    }
  }
  return res;
}

void* stencil_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const int me = env->rank();
  const int nranks = env->size();
  RankLog& log = log_of(me);
  const auto g_alpha = env->global<double>("alpha");
  const auto g_iters = env->global<int>("iters");
  const auto g_ckpt = env->global<int>("ckpt_every");
  const auto g_planes = env->global<int>("planes");
  const std::uint64_t seed = env->global<std::uint64_t>("seed").get();

  const int nz = g_planes.get();
  const std::size_t plane = std::size_t{kNx} * kNy;
  const std::size_t total = plane * static_cast<std::size_t>(nz + 2);
  double* grid = env->rank_alloc_array<double>(total);
  double* next = env->rank_alloc_array<double>(total);
  for (int z = 0; z < nz + 2; ++z)
    for (int y = 0; y < kNy; ++y)
      for (int x = 0; x < kNx; ++x)
        grid[idx(x, y, z)] = init_value(seed, x, y, me * nz + z - 1);
  std::memcpy(next, grid, total * sizeof(double));
  const int up = me + 1 < nranks ? me + 1 : -1;
  const int down = me > 0 ? me - 1 : -1;
  if (me == 0) log.values.reserve(static_cast<std::size_t>(g_iters.get()));

  env->barrier();
  for (int it = 0; it < g_iters.get(); ++it) {
    log.op_begin(static_cast<std::uint32_t>(it));
    if (it > 0 && it % g_ckpt.get() == 0)
      log.call(Span::Checkpoint, [&] { env->checkpoint_all(); });
    mpi::Request reqs[2] = {mpi::kRequestNull, mpi::kRequestNull};
    int nreq = 0;
    log.call(Span::Irecv, [&] {
      if (up >= 0)
        reqs[nreq++] = env->irecv(grid + plane * (nz + 1), int(plane),
                                  Datatype::Double, up, kTagDown);
      if (down >= 0)
        reqs[nreq++] = env->irecv(grid, int(plane), Datatype::Double, down,
                                  kTagUp);
    });
    log.call(Span::Send, [&] {
      if (up >= 0)
        env->send(grid + plane * nz, int(plane), Datatype::Double, up, kTagUp);
      if (down >= 0)
        env->send(grid + plane, int(plane), Datatype::Double, down, kTagDown);
    });
    log.call(Span::Waitall, [&] { env->waitall(nreq, reqs); });
    const double local = log.call(
        Span::Kernel, [&] { return sweep(grid, next, nz, [&] { return *g_alpha; }); });
    std::swap(grid, next);
    double residual = 0.0;
    log.call(Span::Allreduce8, [&] {
      env->allreduce(&local, &residual, 1, Datatype::Double,
                     Op::builtin(OpKind::Sum));
    });
    log.op_end();
    if (me == 0) log.values.push_back(residual);
  }
  env->rank_free(grid);
  env->rank_free(next);
  return nullptr;
}

// Single-threaded reference: the same sweeps over the whole chain, with
// per-rank partial sums added in rank order.
std::vector<double> reference_residuals(std::uint64_t seed) {
  const int nz = kRanks * kPlanes;
  const std::size_t plane = std::size_t{kNx} * kNy;
  std::vector<double> grid(plane * (nz + 2));
  for (int z = 0; z < nz + 2; ++z)
    for (int y = 0; y < kNy; ++y)
      for (int x = 0; x < kNx; ++x)
        grid[idx(x, y, z)] = init_value(seed, x, y, z - 1);
  std::vector<double> next = grid;
  std::vector<double> out;
  out.reserve(kIters);
  for (int it = 0; it < kIters; ++it) {
    double res = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      const std::size_t off = plane * static_cast<std::size_t>(r * kPlanes);
      res += sweep(grid.data() + off, next.data() + off, kPlanes,
                   [] { return kAlpha; });
    }
    std::swap(grid, next);
    out.push_back(res);
  }
  return out;
}

}  // namespace

Workload make_stencil(std::uint64_t seed) {
  img::ImageBuilder b("apvbench-stencil");
  b.add_global<double>("alpha", kAlpha);
  b.add_global<int>("iters", kIters);
  b.add_global<int>("ckpt_every", kCkptEvery);
  b.add_global<int>("planes", kPlanes);
  b.add_global<std::uint64_t>("seed", seed);
  b.add_function("mpi_main", &stencil_main);
  b.set_code_size(std::size_t{3} << 20);  // the paper's Jacobi-3D PIE

  Workload w;
  w.name = "stencil";
  w.shape =
      "24 ranks, pieglobals, Jacobi-3D 64x64x384 (16 planes/rank), 8 B "
      "allreduce per iteration, checkpoint_all every 250; op = iteration";
  w.method = core::Method::PIEglobals;
  w.vps = kRanks;
  w.image = b.build();
  w.timing_ranks = {0};
  w.ops_per_rep = kIters;
  // Computed per interior point: 5 adds, 1 multiply, 1 subtract, 1 add of
  // the residual; one read and one write stream of doubles.
  const double points = double{kRanks} * kPlanes * (kNx - 2) * (kNy - 2);
  w.flops_per_op = 8.0 * points;
  w.bytes_per_op = 16.0 * points;
  auto ref = std::make_shared<std::vector<double>>(reference_residuals(seed));
  // Ops that never completed are counted by the rep loop; this checks the
  // residual of every one that did.
  w.verify = [ref](const std::vector<RankLog>& logs) {
    const std::vector<double>& got = logs[0].values;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < got.size() && i < ref->size(); ++i) {
      const double want = (*ref)[i];
      if (!(std::abs(got[i] - want) <= kRelTol * std::abs(want))) ++bad;
    }
    return bad;
  };
  return w;
}

}  // namespace apvbench
