#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace apv::img {

/// Index of a variable declaration within a ProgramImage.
using VarId = std::uint32_t;
/// Index of a function declaration within a ProgramImage.
using FuncId = std::uint32_t;

inline constexpr std::uint32_t kInvalidId = ~std::uint32_t{0};

/// Native implementation behind an emulated image function. The argument
/// and return are opaque; typed call sites go through
/// core::Runtime::call_function which casts per use.
using NativeFn = void* (*)(void* arg);

class ImageInstance;

/// Static-constructor body. Runs once per *loaded instance* (the dynamic
/// linker runs ELF constructors per dlopen/dlmopen namespace). May allocate
/// heap memory through the context and store pointers — including function
/// pointers — into globals, reproducing the C++ global-object pattern that
/// makes PIEglobals' startup fix-up hard (§3.3 of the paper).
class CtorContext;
using CtorFn = void (*)(CtorContext& ctx);

/// Declaration of one global or static variable in the emulated program.
struct VarDecl {
  std::string name;
  std::size_t size = 0;
  std::size_t align = 8;
  std::vector<std::byte> init;  ///< initial bytes (zero-filled if shorter)
  bool is_static = false;  ///< file-local: *not* in the GOT (Swapglobals gap)
  bool is_const = false;   ///< read-only after init; safe to share
  bool is_tls = false;     ///< tagged thread_local by the user (TLSglobals)

  // Assigned at build():
  std::size_t offset = 0;      ///< in the data segment, or TLS image if is_tls
  std::uint32_t got_index = kInvalidId;  ///< slot in the GOT, if any
};

/// Declaration of one function in the emulated program.
struct FuncDecl {
  std::string name;
  NativeFn native = nullptr;
  // Assigned at build():
  std::size_t code_offset = 0;           ///< entry's offset in code segment
  std::uint32_t got_index = kInvalidId;  ///< functions always get GOT slots
};

/// One GOT slot: which symbol it resolves.
struct GotEntry {
  enum class Kind : std::uint8_t { Var, Func } kind = Kind::Var;
  std::uint32_t id = kInvalidId;  ///< VarId or FuncId
};

/// An immutable model of a program binary compiled as a Position
/// Independent Executable.
///
/// Substitution note (see DESIGN.md §3): the paper's methods operate on real
/// ELF PIEs via dlmopen/dlopen/dl_iterate_phdr. A library cannot portably
/// re-link its callers as PIEs inside tests, so this class models the parts
/// of a PIE those methods interact with — a code segment with addressable
/// function entries, a data segment whose *start* holds the GOT (as in ELF,
/// where .got precedes .data and both live in the writable load segment),
/// per-variable relocation info, a TLS initialization image, and a static
/// constructor list. Loading an image produces real memory with real
/// relocated absolute addresses, so segment duplication, pointer-scan
/// fix-up, and constructor-allocation replication all do genuine work.
class ProgramImage {
 public:
  /// Human-readable program name ("jacobi3d", "adcirc-proxy", ...).
  const std::string& name() const noexcept { return name_; }

  /// Whether the program was "compiled" as a PIE. The runtime methods
  /// (PIP/FS/PIEglobals) require this, as in the paper.
  bool is_pie() const noexcept { return is_pie_; }

  /// Names of shared-object dependencies. FSglobals refuses images with
  /// dependencies (the paper: "shared objects are currently not supported
  /// by FSglobals").
  const std::vector<std::string>& shared_deps() const noexcept {
    return shared_deps_;
  }

  std::size_t code_size() const noexcept { return code_size_; }
  std::size_t data_size() const noexcept { return data_size_; }
  std::size_t tls_size() const noexcept { return tls_size_; }
  std::size_t got_bytes() const noexcept {
    return got_.size() * sizeof(std::uintptr_t);
  }

  const std::vector<VarDecl>& vars() const noexcept { return vars_; }
  const std::vector<FuncDecl>& funcs() const noexcept { return funcs_; }
  const std::vector<GotEntry>& got() const noexcept { return got_; }
  const std::vector<CtorFn>& constructors() const noexcept { return ctors_; }

  /// Lookup by name; throws NotFound if absent.
  VarId var_id(const std::string& name) const;
  FuncId func_id(const std::string& name) const;
  const VarDecl& var(VarId id) const;
  const FuncDecl& func(FuncId id) const;

  /// Writes the image's initial code bytes (header, function entries,
  /// deterministic filler) into dst, which must hold code_size() bytes.
  void materialize_code(std::byte* dst) const;

  /// Writes the initial data segment (GOT slots relocated against the given
  /// instance base addresses, then variable initial values) into dst, which
  /// must hold data_size() bytes.
  void materialize_data(std::byte* dst, const std::byte* code_base,
                        const std::byte* data_base) const;

  /// Writes the TLS initialization image into dst (tls_size() bytes).
  void materialize_tls(std::byte* dst) const;

  /// Serialized form for FSglobals' on-disk copies. Contains everything
  /// needed to reconstruct segments except native function pointers, which
  /// are re-resolved against this in-process image on load (a real binary
  /// carries machine code; we carry function identities).
  std::vector<std::byte> serialize() const;

  /// Size in bytes of an entry in the code segment's function table.
  static constexpr std::size_t kCodeEntrySize = 32;
  /// Offset of the first function entry in the code segment.
  static constexpr std::size_t kCodeHeaderSize = 64;

 private:
  friend class ImageBuilder;
  friend ProgramImage deserialize_image(const std::vector<std::byte>& bytes,
                                        const ProgramImage& registry_hint);

  std::string name_;
  bool is_pie_ = true;
  std::vector<std::string> shared_deps_;
  std::vector<VarDecl> vars_;
  std::vector<FuncDecl> funcs_;
  std::vector<GotEntry> got_;
  std::vector<CtorFn> ctors_;
  std::map<std::string, VarId> var_by_name_;
  std::map<std::string, FuncId> func_by_name_;
  std::size_t code_size_ = 0;
  std::size_t data_size_ = 0;
  std::size_t tls_size_ = 0;
  std::uint64_t code_fill_seed_ = 0;
};

/// Flags accepted by ImageBuilder::add_var and the typed add_global /
/// add_static / add_tls convenience wrappers.
struct VarFlags {
  bool is_static = false;
  bool is_const = false;
  bool is_tls = false;
};

/// Builder for ProgramImage. Declaration order is preserved; offsets, GOT
/// slots, and segment sizes are assigned by build().
class ImageBuilder {
 public:
  explicit ImageBuilder(std::string name);

  /// Declares a variable from raw bytes.
  VarId add_var(const std::string& name, std::size_t size, std::size_t align,
                const void* init, std::size_t init_len, VarFlags flags = {});

  /// Declares a variable of trivially-copyable type T with an initial value.
  template <typename T>
  VarId add_global(const std::string& name, const T& init,
                   VarFlags flags = {}) {
    static_assert(std::is_trivially_copyable_v<T>);
    return add_var(name, sizeof(T), alignof(T), &init, sizeof(T), flags);
  }

  FuncId add_function(const std::string& name, NativeFn fn);
  void add_constructor(CtorFn ctor);
  void add_shared_dep(const std::string& soname);

  /// Total code-segment size. Must be at least large enough for the
  /// function table; models the program's machine-code footprint (3 MB for
  /// the paper's Jacobi-3D, ~14 MB for ADCIRC).
  void set_code_size(std::size_t bytes);

  /// Extra zero-initialized bytes appended to the data segment, modelling
  /// .bss bulk beyond the declared variables.
  void set_extra_data(std::size_t bytes);

  /// Marks the image as not position-independent; runtime privatization
  /// methods will refuse it.
  void set_pie(bool pie);

  /// Finalizes layout and returns the immutable image.
  ProgramImage build();

 private:
  ProgramImage image_;
  std::size_t requested_code_size_ = 0;
  std::size_t extra_data_ = 0;
  bool built_ = false;
};

/// Reconstructs a ProgramImage from serialize() output. `registry_hint`
/// must be the original in-process image (matched by name) whose native
/// function pointers are spliced back in; FSglobals passes the image it
/// copied to disk. Throws CorruptImage on malformed bytes.
ProgramImage deserialize_image(const std::vector<std::byte>& bytes,
                               const ProgramImage& registry_hint);

}  // namespace apv::img
