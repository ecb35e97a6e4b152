#pragma once

#include <memory>
#include <string>

#include "image/image.hpp"
#include "image/loader.hpp"
#include "isomalloc/arena.hpp"
#include "util/options.hpp"

namespace apv::core {

struct RankContext;

/// The privatization methods implemented by this runtime. The first is the
/// unsafe baseline (shared globals — reproduces the paper's Figure 3 bug);
/// the next two are AMPI's pre-existing methods; the last three are the
/// paper's contributions.
enum class Method : std::uint8_t {
  None,         ///< no privatization: all ranks share the primary image
  TLSglobals,   ///< user-tagged TLS variables; segment pointer swap per switch
  Swapglobals,  ///< per-rank GOT swap; statics stay shared; non-SMP only
  PIPglobals,   ///< dlmopen namespace per rank (Process-in-Process style)
  FSglobals,    ///< per-rank binary copy on a shared filesystem + dlopen
  PIEglobals,   ///< manual segment copy into Isomalloc; migratable
};

/// Parses "none", "tlsglobals", "swapglobals", "pipglobals", "fsglobals",
/// "pieglobals" (case-insensitive); throws InvalidArgument otherwise.
Method method_from_string(const std::string& name);
const char* method_name(Method method) noexcept;

/// Feature matrix row for a privatization method, with the qualitative
/// ratings the paper's Tables 1 and 3 report.
struct Capabilities {
  std::string name;
  std::string automation;   ///< "Poor" .. "Good" (Table 1/3 column 2)
  std::string portability;  ///< Table 1/3 column 3
  bool smp_support = false;
  std::string smp_note;     ///< e.g. "Limited w/o patched glibc"
  bool migration_support = false;
  std::string migration_note;
  bool handles_statics = false;   ///< privatizes static (non-GOT) variables
  bool handles_tls = false;       ///< privatizes thread_local variables
  bool requires_tagging = false;  ///< user must annotate declarations
  bool runtime_method = false;    ///< implemented in this runtime (vs survey)
};

/// Capabilities of an implemented method.
Capabilities method_capabilities(Method method);

/// The full survey table (paper Table 3): manual refactoring, Photran,
/// -fmpc-privatize, plus every implemented method, in the paper's order.
std::vector<Capabilities> capability_table();

/// Everything a privatization method needs to know about the OS process it
/// runs in. One ProcessEnv exists per emulated OS process (comm::Node).
struct ProcessEnv {
  int process_id = 0;
  int pes_in_process = 1;  ///< >1 means SMP mode (paper Figure 1)
  const img::ProgramImage* image = nullptr;
  img::Loader* loader = nullptr;
  iso::IsoArena* arena = nullptr;
  util::Options options;
};

/// Strategy interface for privatization methods.
///
/// Lifecycle: init_process once per OS process, then init_rank for each
/// virtual rank hosted there (also after a rank migrates in), on_switch_in
/// at every ULT context switch (registered as a scheduler hook by the
/// Privatizer), destroy_rank at teardown or migration-out.
class PrivatizationMethod {
 public:
  virtual ~PrivatizationMethod() = default;

  virtual Method kind() const noexcept = 0;
  Capabilities caps() const { return method_capabilities(kind()); }

  /// One-time per-process setup: loads the primary image, validates
  /// process shape (e.g. Swapglobals refuses SMP mode), snapshots phdr
  /// state. Throws NotSupported/LimitExceeded per the method's documented
  /// restrictions.
  virtual void init_process(ProcessEnv& env) = 0;

  /// Per-rank setup: create this rank's private view of the program. The
  /// RankContext already has its Isomalloc slot, heap, and world rank;
  /// this fills instance/data_base/tls_block/got.
  virtual void init_rank(RankContext& rc) = 0;

  /// Per-context-switch work (TLS segment pointer / GOT swap). `rc` may be
  /// nullptr when the PE goes idle. Must be cheap: this sits on the
  /// paper's Figure 6 critical path.
  virtual void on_switch_in(RankContext* rc) noexcept = 0;

  /// Whether ranks privatized by this method can migrate between
  /// processes. PIP/FS cannot: their segments were allocated by the
  /// (emulated) dynamic linker, outside Isomalloc's reach.
  virtual bool supports_migration() const noexcept = 0;

  /// Releases per-rank state created by init_rank.
  virtual void destroy_rank(RankContext& rc) = 0;

  /// Called on the *source* process's method when one of its ranks
  /// migrates away (before a move between nodes packs the slot). Default:
  /// nothing.
  virtual void on_rank_departed(RankContext& rc) { (void)rc; }

  /// Called on the *destination* process's method after a migrated rank's
  /// slot has arrived (unpacked, for a move between nodes) and rc.process
  /// has been repointed. Rebinds any process-local references (e.g. the
  /// primary instance, function GOT entries) to this process. Default:
  /// nothing.
  virtual void on_rank_arrived(RankContext& rc) { (void)rc; }
};

/// Factory. `env` is captured by reference semantics: the returned method
/// keeps a pointer to it and it must outlive the method.
std::unique_ptr<PrivatizationMethod> make_method(Method method);

}  // namespace apv::core
