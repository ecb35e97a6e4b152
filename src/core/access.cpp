#include "core/access.hpp"

#include "util/error.hpp"

namespace apv::core {

thread_local RankContext* tl_current_rank = nullptr;
thread_local std::byte* tl_tls_base = nullptr;
thread_local const std::uintptr_t* tl_current_got = nullptr;

const char* access_path_name(AccessPath path) noexcept {
  switch (path) {
    case AccessPath::SharedDirect: return "shared-direct";
    case AccessPath::RankData: return "rank-data";
    case AccessPath::TlsBase: return "tls-base";
    case AccessPath::GotIndirect: return "got-indirect";
  }
  return "?";
}

VarAccess bind_var(const img::ProgramImage& image, img::VarId id,
                   Method method, const img::ImageInstance& primary) {
  const img::VarDecl& v = image.var(id);
  VarAccess a;
  a.offset = v.offset;

  auto shared = [&](void* addr) {
    a.path = AccessPath::SharedDirect;
    a.shared_addr = addr;
    return a;
  };

  // Truly immutable data can safely be served from any copy; pin it to the
  // primary for every method whose ranks do not own a full copy. (PIE-family
  // copies include it anyway.)
  if (v.is_const && method != Method::PIPglobals &&
      method != Method::FSglobals && method != Method::PIEglobals) {
    return shared(primary.var_addr(id));
  }

  // Note on "shared" mutable variables (the unprivatized leftovers below):
  // they resolve through AccessPath::RankData, whose base is the *current
  // process's* primary data segment (every resident rank carries the same
  // data_base, rebound on migration). That is exactly the sharing bug of
  // Figure 3, with correct per-process semantics after migration.
  switch (method) {
    case Method::None:
      if (v.is_tls) {
        // One process-wide TLS block (installed lazily per PE thread).
        a.path = AccessPath::TlsBase;
        return a;
      }
      a.path = AccessPath::RankData;
      return a;

    case Method::TLSglobals:
      if (v.is_tls) {
        a.path = AccessPath::TlsBase;
        return a;
      }
      // Untagged mutable globals remain shared — the manual-tagging gap
      // that makes TLSglobals' automation rating "Mediocre".
      a.path = AccessPath::RankData;
      return a;

    case Method::Swapglobals:
      if (v.is_static || v.is_tls) {
        // Statics are not in the GOT; Swapglobals cannot privatize them
        // (paper Table 1: "No static vars"). TLS vars are likewise outside
        // the GOT mechanism.
        a.path = AccessPath::RankData;
        return a;
      }
      util::require(v.got_index != img::kInvalidId, util::ErrorCode::Internal,
                    "non-static global missing GOT slot");
      a.path = AccessPath::GotIndirect;
      a.got_index = v.got_index;
      return a;

    case Method::PIPglobals:
    case Method::FSglobals:
      if (v.is_tls) {
        // Our dlmopen/dlopen emulation does not give each *ULT* its own
        // TLS (real TLS is per OS thread); tagged variables stay shared
        // within the process. Only TLSglobals/PIEglobals handle these.
        a.path = AccessPath::TlsBase;
        return a;
      }
      a.path = AccessPath::RankData;
      return a;

    case Method::PIEglobals:
      if (v.is_tls) {
        // "PIEglobals implies use of TLSglobals where supported" (§4.2).
        a.path = AccessPath::TlsBase;
        return a;
      }
      a.path = AccessPath::RankData;
      return a;
  }
  return a;
}

}  // namespace apv::core
