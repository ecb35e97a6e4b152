#pragma once

#include <memory>
#include <string>

#include "core/access.hpp"
#include "core/method.hpp"
#include "core/rank_context.hpp"
#include "ult/scheduler.hpp"

namespace apv::core {

/// Per-OS-process façade over a privatization method: brings ranks up and
/// down (Isomalloc slot, slot heap, ULT stack, method state), installs the
/// context-switch hook, and binds variable references.
///
/// One Privatizer exists per emulated OS process (comm::Node owns it); all
/// PEs of that process share it, which is what SMP mode means here.
class Privatizer {
 public:
  /// Runs method init_process; throws the method's documented refusals
  /// (e.g. Swapglobals in SMP mode → NotSupported).
  Privatizer(Method method, ProcessEnv env);
  ~Privatizer();

  Privatizer(const Privatizer&) = delete;
  Privatizer& operator=(const Privatizer&) = delete;

  Method kind() const noexcept { return method_->kind(); }
  PrivatizationMethod& method() noexcept { return *method_; }
  ProcessEnv& env() noexcept { return env_; }

  /// The process's primary (linker-loaded) image instance.
  const img::ImageInstance& primary() const;

  struct RankParams {
    int world_rank = 0;
    ult::Ult::Body body = nullptr;
    void* arg = nullptr;
    std::size_t stack_size = std::size_t{256} << 10;
    ult::ContextBackend backend = ult::default_context_backend();
  };

  /// Creates a virtual rank: acquires an Isomalloc slot, formats its heap
  /// below the method's slot tail, runs the method's per-rank
  /// privatization, and places the rank's ULT (and its stack) inside the
  /// slot. The ULT is *not* scheduled yet.
  RankContext* create_rank(const RankParams& params);

  /// Tears a rank down and releases its slot. The ULT must not be Running.
  void destroy_rank(RankContext* rc);

  /// Registers the per-context-switch hook (sets tl_current_rank, then the
  /// method's segment-pointer/GOT work) on a PE's scheduler. Returns the
  /// hook id.
  int install_switch_hook(ult::Scheduler& sched);

  /// Binds a variable reference for this process's method.
  VarAccess bind(img::VarId id) const;
  VarAccess bind(const std::string& name) const;

  template <typename T>
  GRef<T> global(const std::string& name) const {
    return GRef<T>(bind(name));
  }

  template <typename T>
  GArrayRef<T> global_array(const std::string& name) const {
    const img::VarId id = env_.image->var_id(name);
    return GArrayRef<T>(bind(id), env_.image->var(id).size / sizeof(T));
  }

  bool supports_migration() const noexcept {
    return method_->supports_migration();
  }

  /// Migration halves, called by the lb layer. Departure happens on the
  /// source Privatizer before packing; arrival on the destination
  /// Privatizer after unpacking (rc->process is repointed here).
  void rank_departed(RankContext* rc);
  void rank_arrived(RankContext* rc);

 private:
  ProcessEnv env_;
  std::unique_ptr<PrivatizationMethod> method_;
};

}  // namespace apv::core
