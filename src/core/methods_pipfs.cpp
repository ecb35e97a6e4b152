// PIPglobals and FSglobals: the two dlmopen/dlopen-based runtime methods.
// Both duplicate the PIE's segments per rank through the (emulated) dynamic
// linker, which allocates outside Isomalloc — so neither supports rank
// migration.

#include <memory>

#include "core/access.hpp"
#include "core/methods.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace apv::core {

using util::ErrorCode;
using util::require;

namespace {
std::unique_ptr<std::byte[]> make_shared_tls(const img::ProgramImage& image) {
  auto block = std::make_unique<std::byte[]>(image.tls_size());
  image.materialize_tls(block.get());
  return block;
}
}  // namespace

// --------------------------------------------------------------------------
// PIPglobals

void PipGlobalsMethod::init_process(ProcessEnv& env) {
  env_ = &env;
  require(env.image->is_pie(), ErrorCode::NotSupported,
          "PIPglobals requires the program built as a PIE");
  // The runtime itself must NOT be privatized along with the application:
  // the primary load is the runtime's own view; ranks get dlmopen clones
  // and reach the runtime through the function-pointer shim (paper Fig. 4,
  // modelled by the mpi layer's dispatch through process-shared state).
  primary_ = &env.loader->load_primary(*env.image);
  shared_tls_ = make_shared_tls(*env.image);
  if (env.pes_in_process > 1 &&
      !env.options.get_bool("loader.patched_glibc")) {
    APV_WARN("pipglobals",
             "SMP mode with stock glibc: at most %d dlmopen namespaces per "
             "process; expect LimitExceeded at higher virtualization",
             img::Loader::kGlibcNamespaceCap);
  }
}

void PipGlobalsMethod::init_rank(RankContext& rc) {
  // dlmopen with a fresh namespace index; throws LimitExceeded past the
  // glibc cap unless loader.patched_glibc is set.
  const img::ImageInstance& inst = env_->loader->dlmopen_clone(*env_->image);
  rc.instance = &inst;
  rc.data_base = inst.data_base();
  rc.got = inst.got();
  rc.tls_block = nullptr;
}

void PipGlobalsMethod::on_switch_in(RankContext* rc) noexcept {
  (void)rc;
  // No per-switch work: each rank's globals sit behind its own segment
  // copies, addressed IP-relative within the copy.
  if (tl_tls_base != shared_tls_.get()) tl_tls_base = shared_tls_.get();
}

void PipGlobalsMethod::destroy_rank(RankContext& rc) {
  // Real dlmopen namespaces stay open for the process lifetime; the
  // loader owns and frees the instances at teardown.
  rc.instance = nullptr;
}

// --------------------------------------------------------------------------
// FSglobals

void FsGlobalsMethod::init_process(ProcessEnv& env) {
  env_ = &env;
  require(env.image->is_pie(), ErrorCode::NotSupported,
          "FSglobals requires the program built as a PIE");
  require(env.image->shared_deps().empty(), ErrorCode::NotSupported,
          "FSglobals does not support programs with shared-object "
          "dependencies");
  primary_ = &env.loader->load_primary(*env.image);
  shared_tls_ = make_shared_tls(*env.image);
}

void FsGlobalsMethod::init_rank(RankContext& rc) {
  // Copy the binary onto the shared filesystem and dlopen the copy: real
  // file I/O plus the configured shared-FS pacing, once per rank — the
  // startup cost that dominates Figure 5's FSglobals bar.
  const img::ImageInstance& inst =
      env_->loader->fs_clone(*env_->image, rc.world_rank);
  rc.instance = &inst;
  rc.data_base = inst.data_base();
  rc.got = inst.got();
  rc.tls_block = nullptr;
}

void FsGlobalsMethod::on_switch_in(RankContext* rc) noexcept {
  (void)rc;
  if (tl_tls_base != shared_tls_.get()) tl_tls_base = shared_tls_.get();
}

void FsGlobalsMethod::destroy_rank(RankContext& rc) { rc.instance = nullptr; }

}  // namespace apv::core
