#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/method.hpp"
#include "core/rank_context.hpp"

namespace apv::core {

/// Unsafe baseline: every rank shares the primary image's globals. Exists
/// to reproduce the paper's Figure 2/3 virtualization bug and as the zero
/// line of every overhead measurement.
class NoneMethod final : public PrivatizationMethod {
 public:
  Method kind() const noexcept override { return Method::None; }
  void init_process(ProcessEnv& env) override;
  void init_rank(RankContext& rc) override;
  void on_switch_in(RankContext* rc) noexcept override;
  bool supports_migration() const noexcept override { return true; }
  void destroy_rank(RankContext& rc) override;
  void on_rank_arrived(RankContext& rc) override;

 private:
  ProcessEnv* env_ = nullptr;
  const img::ImageInstance* primary_ = nullptr;
  std::unique_ptr<std::byte[]> shared_tls_;  // one block shared by all ranks
};

/// TLSglobals (paper §2.3.4): variables the user tagged thread_local get a
/// per-rank block; the emulated TLS segment pointer is swapped at every
/// ULT context switch. Untagged mutable globals remain shared — the gap
/// that makes its automation "Mediocre".
class TlsGlobalsMethod final : public PrivatizationMethod {
 public:
  Method kind() const noexcept override { return Method::TLSglobals; }
  void init_process(ProcessEnv& env) override;
  void init_rank(RankContext& rc) override;
  void on_switch_in(RankContext* rc) noexcept override;
  bool supports_migration() const noexcept override { return true; }
  void destroy_rank(RankContext& rc) override;
  void on_rank_arrived(RankContext& rc) override;

 private:
  ProcessEnv* env_ = nullptr;
  const img::ImageInstance* primary_ = nullptr;
};

/// Swapglobals (paper §2.3.3, deprecated in AMPI): per-rank copies of every
/// GOT-visible global, with the active GOT pointer swapped per context
/// switch. Does not privatize statics, refuses SMP mode (one active GOT
/// per process), and requires a cooperative linker version.
///
/// Options: swap.linker_version (default "2.23"), swap.linker_patched
/// (default false). Versions >= 2.24 without the patch are refused, as ld
/// started optimizing out the GOT indirection the method depends on.
class SwapGlobalsMethod final : public PrivatizationMethod {
 public:
  Method kind() const noexcept override { return Method::Swapglobals; }
  void init_process(ProcessEnv& env) override;
  void init_rank(RankContext& rc) override;
  void on_switch_in(RankContext* rc) noexcept override;
  bool supports_migration() const noexcept override { return true; }
  void destroy_rank(RankContext& rc) override;
  void on_rank_arrived(RankContext& rc) override;

 private:
  ProcessEnv* env_ = nullptr;
  const img::ImageInstance* primary_ = nullptr;
};

/// PIPglobals (paper §3.1): one dlmopen namespace per rank duplicates the
/// PIE's code and data segments. No per-switch work; startup pays segment
/// materialization and a constructor run per rank. Namespace count per
/// process is capped by glibc unless loader.patched_glibc is set. The
/// segments are linker-allocated (not Isomalloc), so migration is
/// impossible — AMPI_Migrate on such a rank throws MigrationRefused.
class PipGlobalsMethod final : public PrivatizationMethod {
 public:
  Method kind() const noexcept override { return Method::PIPglobals; }
  void init_process(ProcessEnv& env) override;
  void init_rank(RankContext& rc) override;
  void on_switch_in(RankContext* rc) noexcept override;
  bool supports_migration() const noexcept override { return false; }
  void destroy_rank(RankContext& rc) override;

 private:
  ProcessEnv* env_ = nullptr;
  const img::ImageInstance* primary_ = nullptr;
  std::unique_ptr<std::byte[]> shared_tls_;
};

/// FSglobals (paper §3.2): per-rank binary copies written to and loaded
/// back from a shared filesystem via plain dlopen. Portable beyond
/// GNU/Linux and unlimited in rank count, but startup cost scales with
/// ranks × binary size × filesystem speed, shared-object dependencies are
/// unsupported, and migration is impossible for the same reason as PIP.
class FsGlobalsMethod final : public PrivatizationMethod {
 public:
  Method kind() const noexcept override { return Method::FSglobals; }
  void init_process(ProcessEnv& env) override;
  void init_rank(RankContext& rc) override;
  void on_switch_in(RankContext* rc) noexcept override;
  bool supports_migration() const noexcept override { return false; }
  void destroy_rank(RankContext& rc) override;

 private:
  ProcessEnv* env_ = nullptr;
  const img::ImageInstance* primary_ = nullptr;
  std::unique_ptr<std::byte[]> shared_tls_;
};

/// How PIEglobals rewrites pointers into the original segments after
/// copying them (paper §3.3: "scanning memory ... which we intend to
/// replace with a more robust method unaffected by false positives").
enum class PieFixupMode : std::uint8_t {
  Scan,   ///< scan data segment + ctor allocations for old-range pointers
  Exact,  ///< rewrite from GOT layout + recorded pointer slots
};

/// Counters from one rank's PIEglobals fix-up pass, reported by benches.
struct PieFixupStats {
  std::size_t words_scanned = 0;
  std::size_t got_rewrites = 0;
  std::size_t data_rewrites = 0;   // non-GOT data-segment pointer rewrites
  std::size_t heap_rewrites = 0;   // pointers inside cloned ctor allocations
};

/// PIEglobals (paper §3.3): dlopen once per process, locate segments via
/// dl_iterate_phdr, give every rank its own code and data segments inside
/// its Isomalloc slot, fix up GOT and constructor-written pointers, clone
/// constructor heap allocations, and combine with TLSglobals for TLS
/// variables. The only new method that supports dynamic rank migration.
///
/// Options: pie.fixup = "scan" (default) | "exact";
///          pie.share_code (bool, default true) — the paper's future-work
///          "mmap from one descriptor": init_process writes the code once,
///          from the primary, into one sealed memfd per process, and each
///          rank maps it read-only and private into a window at the top of
///          its own slot. Code addresses stay distinct per rank, the pages
///          are shared, and the slot heap ends below the window, so no
///          migration or checkpoint image carries code; a rank arriving
///          from another process maps this process's descriptor again.
///          Off copies the code into each rank's slot heap (the paper's
///          implementation, which figures 5 and 8 measure).
class PieGlobalsMethod final : public PrivatizationMethod {
 public:
  PieGlobalsMethod() = default;
  ~PieGlobalsMethod() override;  // closes the code descriptor
  PieGlobalsMethod(const PieGlobalsMethod&) = delete;
  PieGlobalsMethod& operator=(const PieGlobalsMethod&) = delete;

  Method kind() const noexcept override { return Method::PIEglobals; }
  void init_process(ProcessEnv& env) override;
  void init_rank(RankContext& rc) override;
  void on_switch_in(RankContext* rc) noexcept override;
  bool supports_migration() const noexcept override { return true; }
  void destroy_rank(RankContext& rc) override;
  void on_rank_departed(RankContext& rc) override;
  void on_rank_arrived(RankContext& rc) override;
  std::size_t slot_tail_bytes() const noexcept override {
    return window_bytes_;
  }

  /// Accumulated fix-up statistics across all ranks initialized so far.
  const PieFixupStats& fixup_stats() const noexcept { return stats_; }

 private:
  ProcessEnv* env_ = nullptr;
  const img::ImageInstance* primary_ = nullptr;
  PieFixupMode fixup_mode_ = PieFixupMode::Scan;
  int code_fd_ = -1;             // the code memfd; -1 copies code per rank
  std::size_t window_bytes_ = 0;  // code size rounded up to whole pages
  PieFixupStats stats_;
};

/// Debug facility (paper §3.3, "pieglobalsfind"): translates an address
/// inside any rank's privatized code/data copy back to the corresponding
/// address in the primary, linker-loaded instance — the one debuggers have
/// symbols for. Returns nullptr if the address belongs to no known
/// instance.
const void* pieglobals_find(const img::InstanceRegistry& registry,
                            const void* privatized_addr);

}  // namespace apv::core
