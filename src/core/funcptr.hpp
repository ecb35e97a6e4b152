#pragma once

#include "core/rank_context.hpp"
#include "image/loader.hpp"

namespace apv::core {

/// Position-independent handle to an image function.
///
/// Under PIEglobals every rank has its own copy of the code, so a raw
/// function address taken by one rank is meaningless to another. AMPI's
/// fix (paper §3.3) for user-defined reduction operators: subtract the
/// image base at MPI_Op creation, store the *offset*, and add back some
/// resident rank's base when applying the operator. FuncHandle is that
/// offset plus the function identity for validation.
struct FuncHandle {
  img::FuncId id = img::kInvalidId;
  std::size_t code_offset = 0;

  bool valid() const noexcept { return id != img::kInvalidId; }
};

/// Translates an emulated function address (taken from any rank's code
/// copy) into an offset-based handle by locating the owning instance in the
/// registry. Throws NotFound if the address lies in no known code segment.
FuncHandle to_handle(const img::InstanceRegistry& registry,
                     const void* fn_addr);

/// Resolves a handle back to an address inside `rc`'s own code copy.
void* localize(const FuncHandle& handle, const RankContext& rc);

/// Fetches the callable native implementation for the handle by reading
/// `rc`'s code bytes (i.e. "executing from" that rank's segment copy).
img::NativeFn native_of(const FuncHandle& handle, const RankContext& rc);

/// Convenience: call an image function through a rank's code copy with a
/// typed signature. Example:
///   auto* fn = fn_as<int(int, int)>(handle, rc);
template <typename Sig>
Sig* fn_as(const FuncHandle& handle, const RankContext& rc) {
  // Through void(*)(), the generic function pointer type GCC's
  // -Wcast-function-type exempts.
  return reinterpret_cast<Sig*>(
      reinterpret_cast<void (*)()>(native_of(handle, rc)));
}

}  // namespace apv::core
