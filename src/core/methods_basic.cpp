// Implementations of the pre-existing privatization methods: the unsafe
// baseline, TLSglobals, and Swapglobals.

#include <cstring>
#include <memory>

#include "core/access.hpp"
#include "core/methods.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace apv::core {

using util::ApvError;
using util::ErrorCode;
using util::require;

namespace {

// Allocates and initializes a per-rank TLS block in the rank's slot heap,
// so it migrates with the rank.
std::byte* make_tls_block(RankContext& rc, const img::ProgramImage& image) {
  auto* block =
      static_cast<std::byte*>(rc.heap->alloc(image.tls_size(), 16));
  image.materialize_tls(block);
  return block;
}

// Shared (process-wide) TLS block for methods that do not privatize TLS
// variables per rank. Owned by the method object; freed with it.
std::unique_ptr<std::byte[]> make_shared_tls(const img::ProgramImage& image) {
  auto block = std::make_unique<std::byte[]>(image.tls_size());
  image.materialize_tls(block.get());
  return block;
}

}  // namespace

// --------------------------------------------------------------------------
// NoneMethod

void NoneMethod::init_process(ProcessEnv& env) {
  env_ = &env;
  primary_ = &env.loader->load_primary(*env.image);
  shared_tls_ = make_shared_tls(*env.image);
}

void NoneMethod::init_rank(RankContext& rc) {
  rc.instance = primary_;
  rc.data_base = primary_->data_base();
  rc.got = primary_->got();
  rc.tls_block = nullptr;  // all ranks share shared_tls_
}

void NoneMethod::on_switch_in(RankContext* rc) noexcept {
  (void)rc;
  // No privatization work. The shared TLS block is installed lazily, once
  // per PE thread, not per switch.
  if (tl_tls_base != shared_tls_.get()) tl_tls_base = shared_tls_.get();
}

void NoneMethod::destroy_rank(RankContext& rc) { rc.instance = nullptr; }

void NoneMethod::on_rank_arrived(RankContext& rc) {
  // Rebind to this process's shared primary image.
  rc.instance = primary_;
  rc.data_base = primary_->data_base();
  rc.got = primary_->got();
}

// --------------------------------------------------------------------------
// TLSglobals

void TlsGlobalsMethod::init_process(ProcessEnv& env) {
  env_ = &env;
  // Emulates the compiler requirement: the runtime must be able to address
  // TLS through the segment pointer at all times
  // (-mno-tls-direct-seg-refs on GCC / recent Clang).
  const std::string compiler = env.options.get_string("tls.compiler");
  require(compiler == "gcc" || compiler == "clang",
          ErrorCode::NotSupported,
          "TLSglobals requires GCC or Clang >= 10 "
          "(-mno-tls-direct-seg-refs support); got compiler=" + compiler);
  primary_ = &env.loader->load_primary(*env.image);
}

void TlsGlobalsMethod::init_rank(RankContext& rc) {
  rc.instance = primary_;
  rc.data_base = primary_->data_base();
  rc.got = primary_->got();
  rc.tls_block = make_tls_block(rc, *env_->image);
}

void TlsGlobalsMethod::on_switch_in(RankContext* rc) noexcept {
  // The whole method at context-switch time: repoint the TLS segment.
  if (rc != nullptr) tl_tls_base = rc->tls_block;
}

void TlsGlobalsMethod::destroy_rank(RankContext& rc) {
  // Block memory is slot-resident; freed wholesale with the slot.
  rc.tls_block = nullptr;
}

void TlsGlobalsMethod::on_rank_arrived(RankContext& rc) {
  // The TLS block arrived inside the slot at the same virtual address;
  // only the process-shared primary view needs rebinding.
  rc.instance = primary_;
  rc.data_base = primary_->data_base();
  rc.got = primary_->got();
}

// --------------------------------------------------------------------------
// Swapglobals

namespace {

// ld changed GOT-relative addressing in 2.24 in a way that breaks GOT
// swapping; AMPI required <= 2.23 or a patched newer ld.
bool linker_supports_swapglobals(const util::Options& options) {
  if (options.get_bool("swap.linker_patched")) return true;
  const std::string version = options.get_string("swap.linker_version");
  int major = 0;
  int minor = 0;
  std::sscanf(version.c_str(), "%d.%d", &major, &minor);
  return major < 2 || (major == 2 && minor <= 23);
}

}  // namespace

void SwapGlobalsMethod::init_process(ProcessEnv& env) {
  env_ = &env;
  require(env.pes_in_process == 1, ErrorCode::NotSupported,
          "Swapglobals cannot run in SMP mode: only one Global Offset "
          "Table can be active per OS process, but this process hosts " +
              std::to_string(env.pes_in_process) + " PEs");
  require(linker_supports_swapglobals(env.options), ErrorCode::NotSupported,
          "Swapglobals requires ld <= 2.23 or a patched newer ld "
          "(the linker otherwise optimizes out GOT references)");
  primary_ = &env.loader->load_primary(*env.image);
}

void SwapGlobalsMethod::init_rank(RankContext& rc) {
  const img::ProgramImage& image = *env_->image;
  rc.instance = primary_;
  rc.data_base = primary_->data_base();

  // Per-rank GOT plus per-rank storage for every GOT-visible variable,
  // both in the rank's slot heap (hence Table 1: migration "Yes").
  const auto& got = image.got();
  auto* rank_got = static_cast<std::uintptr_t*>(
      rc.heap->alloc(got.size() * sizeof(std::uintptr_t), 16));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const img::GotEntry& e = got[i];
    if (e.kind == img::GotEntry::Kind::Func) {
      // Code is not duplicated by Swapglobals; functions resolve to the
      // primary image.
      rank_got[i] = reinterpret_cast<std::uintptr_t>(
          primary_->func_addr(e.id));
    } else {
      const img::VarDecl& v = image.var(e.id);
      auto* storage = static_cast<std::byte*>(
          rc.heap->alloc(v.size, v.align));
      std::memset(storage, 0, v.size);
      if (!v.init.empty())
        std::memcpy(storage, v.init.data(), v.init.size());
      rank_got[i] = reinterpret_cast<std::uintptr_t>(storage);
    }
  }
  rc.swap_got = rank_got;
  rc.got = rank_got;
}

void SwapGlobalsMethod::on_switch_in(RankContext* rc) noexcept {
  // Swap the active GOT.
  if (rc != nullptr) tl_current_got = rc->swap_got;
}

void SwapGlobalsMethod::destroy_rank(RankContext& rc) {
  rc.swap_got = nullptr;  // slot-resident; freed with the slot
}

void SwapGlobalsMethod::on_rank_arrived(RankContext& rc) {
  // Per-rank variable storage migrated inside the slot (same virtual
  // addresses), but function entries must be relinked against this
  // process's own code, which the migration did not carry.
  rc.instance = primary_;
  rc.data_base = primary_->data_base();
  const auto& got = env_->image->got();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].kind == img::GotEntry::Kind::Func) {
      rc.swap_got[i] = reinterpret_cast<std::uintptr_t>(
          primary_->func_addr(got[i].id));
    }
  }
  rc.got = rc.swap_got;
}

}  // namespace apv::core
