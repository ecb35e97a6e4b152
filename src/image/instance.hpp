#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "image/image.hpp"

namespace apv::img {

/// How an ImageInstance's memory came to exist. Determines what the
/// privatization layer may do with it (notably: only PieCopy instances live
/// in Isomalloc memory and can migrate).
enum class InstanceOrigin : std::uint8_t {
  Primary,           ///< the system dynamic linker's own load (dlopen once)
  DlmopenNamespace,  ///< PIPglobals: dlmopen with a private namespace index
  FsCopy,            ///< FSglobals: dlopen of a per-rank on-disk copy
  PieCopy,           ///< PIEglobals: manual segment copy into Isomalloc
};

const char* instance_origin_name(InstanceOrigin origin) noexcept;

/// A heap allocation made by a static constructor during image load,
/// logged so PIEglobals can replicate it per rank (paper §3.3).
struct CtorAlloc {
  void* ptr = nullptr;
  std::size_t size = 0;
};

/// Location of a pointer value stored by a static constructor — either a
/// global in the data segment or a word inside a constructor allocation.
/// Real binaries have no such records (hence the paper's pointer *scan*);
/// recording them when constructors use the explicit set_ptr/write_heap_ptr
/// API gives PIEglobals an exact-relocation mode to ablate the scan against.
struct PtrSlot {
  enum class Where : std::uint8_t { Data, Heap };
  Where where = Where::Data;
  std::uint32_t alloc_index = 0;  ///< index into ctor_allocs() when Heap
  std::size_t offset = 0;         ///< byte offset within the segment/block
};

/// One loaded copy of a ProgramImage: concrete code and data segments with
/// relocated GOT contents, as the dynamic linker would produce.
///
/// Instances either own their segment memory (Primary/Dlmopen/FsCopy —
/// allocated from the regular process heap, deliberately *outside*
/// Isomalloc, which is exactly why those methods cannot migrate) or borrow
/// it (PieCopy — the memory belongs to a rank's Isomalloc slot).
class ImageInstance {
 public:
  /// Allocates segment memory from the process heap, materializes code and
  /// relocated data, and returns the instance. Does NOT run constructors;
  /// the Loader does that so allocations get logged.
  static std::unique_ptr<ImageInstance> allocate(const ProgramImage& image,
                                                 InstanceOrigin origin,
                                                 int namespace_index = -1);

  /// Wraps externally provided segment memory (PIEglobals path). The caller
  /// has already filled the segments (typically by memcpy from the primary
  /// instance) and retains ownership of the memory.
  static std::unique_ptr<ImageInstance> adopt(const ProgramImage& image,
                                              InstanceOrigin origin,
                                              std::byte* code_base,
                                              std::byte* data_base);

  ~ImageInstance();
  ImageInstance(const ImageInstance&) = delete;
  ImageInstance& operator=(const ImageInstance&) = delete;

  const ProgramImage& image() const noexcept { return *image_; }
  InstanceOrigin origin() const noexcept { return origin_; }
  int namespace_index() const noexcept { return namespace_index_; }

  std::byte* code_base() const noexcept { return code_; }
  std::byte* code_end() const noexcept { return code_ + image_->code_size(); }
  std::byte* data_base() const noexcept { return data_; }
  std::byte* data_end() const noexcept { return data_ + image_->data_size(); }

  /// The GOT lives at the start of the data segment, as in an ELF writable
  /// load segment.
  std::uintptr_t* got() const noexcept {
    return reinterpret_cast<std::uintptr_t*>(data_);
  }

  /// Absolute address of a non-TLS variable in this instance. Throws
  /// InvalidArgument for TLS variables (their storage is per-rank TLS
  /// blocks owned by the privatization method, not the instance).
  void* var_addr(VarId id) const;

  /// Emulated address of a function: its entry within this instance's code
  /// segment. Distinct per instance — the property that breaks naive
  /// function-pointer sharing under PIEglobals.
  void* func_addr(FuncId id) const;

  /// Reverse lookup: the function whose entry spans `addr`, or kInvalidId.
  FuncId func_at(const void* addr) const noexcept;

  /// Native implementation read out of this instance's *code memory* (so a
  /// copied segment resolves through its own bytes, like real code).
  NativeFn native_at(FuncId id) const;

  bool contains_code(const void* addr) const noexcept;
  bool contains_data(const void* addr) const noexcept;

  /// Constructor-allocation log (in allocation order).
  const std::vector<CtorAlloc>& ctor_allocs() const noexcept {
    return ctor_allocs_;
  }
  void log_ctor_alloc(void* p, std::size_t size) {
    ctor_allocs_.push_back({p, size});
  }
  /// Replaces the log wholesale (used when PIEglobals rebinds a clone's
  /// allocations to its Isomalloc copies).
  void set_ctor_allocs(std::vector<CtorAlloc> allocs) {
    ctor_allocs_ = std::move(allocs);
  }

  /// Pointer-store records from constructors that used the logging API.
  const std::vector<PtrSlot>& ptr_slots() const noexcept { return ptr_slots_; }
  void log_ptr_slot(const PtrSlot& slot) { ptr_slots_.push_back(slot); }

 private:
  ImageInstance(const ProgramImage& image, InstanceOrigin origin,
                std::byte* code, std::byte* data, bool owns,
                int namespace_index);

  const ProgramImage* image_;
  InstanceOrigin origin_;
  std::byte* code_;
  std::byte* data_;
  bool owns_memory_;
  int namespace_index_;
  std::vector<CtorAlloc> ctor_allocs_;
  std::vector<PtrSlot> ptr_slots_;
};

/// Execution context handed to static constructors (CtorFn). Provides the
/// loader-visible operations a real global initializer performs: writing
/// initial values into globals, taking addresses of functions (vtable-style
/// function pointers), and allocating heap memory.
class CtorContext {
 public:
  explicit CtorContext(ImageInstance& inst) : inst_(&inst) {}

  ImageInstance& instance() noexcept { return *inst_; }

  /// Heap allocation routed through the loader so it is logged on the
  /// instance (PIEglobals later replicates logged allocations per rank).
  void* ctor_malloc(std::size_t size);

  /// Writes a value into a (non-TLS) global of this instance by name.
  template <typename T>
  void set(const std::string& var, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    *static_cast<T*>(inst_->var_addr(inst_->image().var_id(var))) = value;
  }

  template <typename T>
  T get(const std::string& var) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return *static_cast<T*>(inst_->var_addr(inst_->image().var_id(var)));
  }

  /// Emulated address of a function within this instance, for storing
  /// function pointers into globals or heap blocks.
  void* func_ptr(const std::string& fn) const {
    return inst_->func_addr(inst_->image().func_id(fn));
  }

  /// Stores a pointer value into a pointer-typed global, recording the
  /// store so exact-relocation fix-up can find it later. The value may
  /// point into this instance's code or data segments or into a ctor
  /// allocation.
  void set_ptr(const std::string& var, void* value);

  /// Stores a pointer at byte `offset` inside a previous ctor_malloc
  /// allocation identified by its base pointer; recorded like set_ptr.
  void write_heap_ptr(void* alloc_base, std::size_t offset, void* value);

 private:
  ImageInstance* inst_;
};

}  // namespace apv::img
