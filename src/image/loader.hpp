#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "image/instance.hpp"
#include "util/options.hpp"

namespace apv::img {

/// Segment ranges of a loaded object, as reported by the emulated
/// dl_iterate_phdr. PIEglobals diffs snapshots taken before and after
/// dlopen to locate the new binary's code and data segments (paper §3.3).
struct PhdrInfo {
  const ImageInstance* instance = nullptr;
  const std::byte* code_base = nullptr;
  std::size_t code_size = 0;
  const std::byte* data_base = nullptr;
  std::size_t data_size = 0;
};

/// Process-wide map from addresses to loaded instances. Both loader-owned
/// instances and PIEglobals' manual copies register here; it backs
/// function-pointer translation and the pieglobals_find debug facility.
class InstanceRegistry {
 public:
  void add(const ImageInstance* inst);
  void remove(const ImageInstance* inst);

  /// The instance whose code or data segment contains `addr`, or nullptr.
  const ImageInstance* find(const void* addr) const;

  /// The instance whose *code* segment contains `addr`, or nullptr.
  const ImageInstance* find_code(const void* addr) const;

  /// The Primary-origin instance of the given program, or nullptr.
  const ImageInstance* primary_of(const ProgramImage& image) const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<const ImageInstance*> instances_;
};

/// Emulated dynamic linker for one OS process.
///
/// Models the exact glibc facilities the paper's methods depend on:
///  - dlopen (load_primary): loads an image once per process, running its
///    static constructors with allocation logging;
///  - dlmopen with LM_ID_NEWLM (dlmopen_clone): duplicates all segments
///    under a fresh namespace index, subject to glibc's hard namespace cap
///    unless the PIP-distributed patched glibc is configured;
///  - dlopen of an on-disk copy (fs_clone): FSglobals' per-rank binary
///    copies on a shared filesystem, with real file I/O plus a configurable
///    latency/bandwidth model for the "shared" part;
///  - dl_iterate_phdr (iterate_phdr): segment range enumeration.
class Loader {
 public:
  /// glibc's namespace limit (DL_NNS is 16; PiP documents ~12 usable after
  /// the base namespace and internal uses).
  static constexpr int kGlibcNamespaceCap = 12;

  /// Options consumed:
  ///   loader.patched_glibc   (bool, default false) lift the namespace cap
  ///   fs.dir                 (string, default "/tmp/apv_fsglobals") shared
  ///                          filesystem staging directory
  ///   fs.latency_us          (int, default 150) per-file-operation latency
  ///   fs.bandwidth_mb_s      (double, default 400) shared-FS bandwidth used
  ///                          to pace copy I/O
  explicit Loader(const util::Options& options = {});
  ~Loader();

  Loader(const Loader&) = delete;
  Loader& operator=(const Loader&) = delete;

  /// dlopen: returns the process's single primary instance of `image`,
  /// loading it (and running constructors) on first call.
  ImageInstance& load_primary(const ProgramImage& image);

  /// True if load_primary has already happened for this image.
  bool primary_loaded(const ProgramImage& image) const;

  /// dlmopen(LM_ID_NEWLM): a fresh namespace instance with its own segment
  /// copies and its own constructor run. Throws LimitExceeded past the
  /// glibc namespace cap unless loader.patched_glibc is set, and
  /// NotSupported if the image is not a PIE.
  ImageInstance& dlmopen_clone(const ProgramImage& image);

  /// FSglobals support: serializes the image to
  /// "<fs.dir>/<program>.rank<rank>.bin", reads it back, and loads the copy
  /// via plain dlopen. Real file I/O; pacing per the fs.* options. Throws
  /// NotSupported if the image has shared-object dependencies or is not a
  /// PIE, IoError on filesystem failure.
  ImageInstance& fs_clone(const ProgramImage& image, int rank);

  /// dl_iterate_phdr: segment ranges of every loader-owned instance, in
  /// load order.
  std::vector<PhdrInfo> iterate_phdr() const;

  /// The process-wide instance registry (loader-owned instances are added
  /// automatically; PIEglobals registers its manual copies here too).
  InstanceRegistry& registry() noexcept { return registry_; }
  const InstanceRegistry& registry() const noexcept { return registry_; }

  /// Runs `image`'s static constructors against `inst`, logging heap
  /// allocations on the instance. Public so tests can exercise constructor
  /// behaviour directly.
  static void run_constructors(const ProgramImage& image, ImageInstance& inst);

 private:
  PhdrInfo phdr_of(const ImageInstance& inst) const;

  util::Options options_;
  bool patched_glibc_;
  std::string fs_dir_;
  std::int64_t fs_latency_us_;
  double fs_bandwidth_mb_s_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ImageInstance>> owned_;
  // FS clones keep their deserialized ProgramImage alive alongside.
  std::vector<std::unique_ptr<ProgramImage>> fs_images_;
  const ProgramImage* primary_image_ = nullptr;
  ImageInstance* primary_ = nullptr;
  int namespaces_ = 0;
  InstanceRegistry registry_;
};

}  // namespace apv::img
