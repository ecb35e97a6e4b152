#pragma once

#include <cassert>

#include "core/rank_context.hpp"
#include "image/image.hpp"
#include "image/instance.hpp"

namespace apv::core {

/// How a bound variable reference reaches storage at access time. This is
/// the model of the paper's per-access cost question (Figure 7): every path
/// is a handful of instructions, and none grows with program size.
enum class AccessPath : std::uint8_t {
  /// One shared address for all ranks, computed at bind time. Used for
  /// const variables, for everything under the unsafe baseline, and for
  /// the variables a partial method fails to privatize (untagged mutable
  /// globals under TLSglobals, statics under Swapglobals) — deliberately
  /// reproducing those methods' correctness gaps.
  SharedDirect,
  /// current rank's data segment base + offset (PIP/FS/PIEglobals; models
  /// IP-relative addressing within the rank's own code copy).
  RankData,
  /// emulated TLS segment pointer + offset (TLSglobals, and TLS-tagged
  /// variables under PIEglobals).
  TlsBase,
  /// load the active GOT slot, then dereference (Swapglobals).
  GotIndirect,
};

const char* access_path_name(AccessPath path) noexcept;

/// A variable reference bound to a (program, method) pair. Cheap to copy;
/// resolve() is the per-access hot path.
struct VarAccess {
  AccessPath path = AccessPath::SharedDirect;
  std::uint32_t got_index = 0;
  std::size_t offset = 0;
  void* shared_addr = nullptr;
};

/// Computes the access path for variable `id` under `method`. `primary` is
/// the process's primary image instance (for shared addresses).
VarAccess bind_var(const img::ProgramImage& image, img::VarId id,
                   Method method, const img::ImageInstance& primary);

/// Resolves a bound reference against the rank currently executing on this
/// PE. The cost model mirrors the real mechanisms: SharedDirect is one
/// direct access; RankData/TlsBase add one base register read; GotIndirect
/// adds a table load.
inline void* resolve(const VarAccess& a) noexcept {
  switch (a.path) {
    case AccessPath::SharedDirect:
      return a.shared_addr;
    case AccessPath::RankData:
      assert(tl_current_rank != nullptr);
      return tl_current_rank->data_base + a.offset;
    case AccessPath::TlsBase:
      assert(tl_tls_base != nullptr);
      return tl_tls_base + a.offset;
    case AccessPath::GotIndirect:
      assert(tl_current_got != nullptr);
      return reinterpret_cast<void*>(tl_current_got[a.got_index]);
  }
  return nullptr;
}

/// Typed view of a bound global. This is what user code holds in place of
/// the C-level `extern int my_rank;` — each dereference resolves through
/// the active privatization method, the way recompiled code would address
/// the variable through the mechanism's addressing mode.
template <typename T>
class GRef {
 public:
  GRef() = default;
  explicit GRef(VarAccess access) : access_(access) {}

  T& ref() const noexcept { return *static_cast<T*>(resolve(access_)); }
  T& operator*() const noexcept { return ref(); }
  T* operator->() const noexcept { return &ref(); }
  T get() const noexcept { return ref(); }
  void set(const T& v) const noexcept { ref() = v; }

  const VarAccess& access() const noexcept { return access_; }

 private:
  VarAccess access_{};
};

/// Typed view of a bound global array.
template <typename T>
class GArrayRef {
 public:
  GArrayRef() = default;
  GArrayRef(VarAccess access, std::size_t count)
      : access_(access), count_(count) {}

  T* data() const noexcept { return static_cast<T*>(resolve(access_)); }
  T& operator[](std::size_t i) const noexcept { return data()[i]; }
  std::size_t size() const noexcept { return count_; }

 private:
  VarAccess access_{};
  std::size_t count_ = 0;
};

}  // namespace apv::core
