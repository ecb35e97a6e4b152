#include "image/loader.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace apv::img {

using util::ApvError;
using util::ErrorCode;
using util::require;

void InstanceRegistry::add(const ImageInstance* inst) {
  std::lock_guard<std::mutex> lock(mutex_);
  instances_.push_back(inst);
}

void InstanceRegistry::remove(const ImageInstance* inst) {
  std::lock_guard<std::mutex> lock(mutex_);
  instances_.erase(
      std::remove(instances_.begin(), instances_.end(), inst),
      instances_.end());
}

const ImageInstance* InstanceRegistry::find(const void* addr) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const ImageInstance* inst : instances_) {
    if (inst->contains_code(addr) || inst->contains_data(addr)) return inst;
  }
  return nullptr;
}

const ImageInstance* InstanceRegistry::find_code(const void* addr) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const ImageInstance* inst : instances_) {
    if (inst->contains_code(addr)) return inst;
  }
  return nullptr;
}

const ImageInstance* InstanceRegistry::primary_of(
    const ProgramImage& image) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const ImageInstance* inst : instances_) {
    if (inst->origin() == InstanceOrigin::Primary &&
        inst->image().name() == image.name()) {
      return inst;
    }
  }
  return nullptr;
}

std::size_t InstanceRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return instances_.size();
}

Loader::Loader(const util::Options& options)
    : options_(options),
      patched_glibc_(options.get_bool("loader.patched_glibc")),
      fs_dir_(options.get_string("fs.dir")),
      fs_latency_us_(options.get_int("fs.latency_us")),
      fs_bandwidth_mb_s_(options.get_double("fs.bandwidth_mb_s")) {}

Loader::~Loader() {
  for (const auto& inst : owned_) registry_.remove(inst.get());
}

void Loader::run_constructors(const ProgramImage& image, ImageInstance& inst) {
  for (CtorFn ctor : image.constructors()) {
    CtorContext ctx(inst);
    ctor(ctx);
  }
}

ImageInstance& Loader::load_primary(const ProgramImage& image) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (primary_ != nullptr) {
    require(primary_image_ == &image, ErrorCode::BadState,
            "loader already holds a different primary image");
    return *primary_;
  }
  auto inst = ImageInstance::allocate(image, InstanceOrigin::Primary);
  run_constructors(image, *inst);
  primary_ = inst.get();
  primary_image_ = &image;
  registry_.add(inst.get());
  owned_.push_back(std::move(inst));
  APV_DEBUG("loader", "dlopen primary '%s': code %zu KiB data %zu KiB",
            image.name().c_str(), image.code_size() >> 10,
            image.data_size() >> 10);
  return *primary_;
}

bool Loader::primary_loaded(const ProgramImage& image) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return primary_ != nullptr && primary_image_ == &image;
}

ImageInstance& Loader::dlmopen_clone(const ProgramImage& image) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(image.is_pie(), ErrorCode::NotSupported,
          "dlmopen privatization requires a PIE-built program");
  if (!patched_glibc_ && namespaces_ >= kGlibcNamespaceCap) {
    throw ApvError(
        ErrorCode::LimitExceeded,
        "dlmopen: glibc link-map namespace limit reached (" +
            std::to_string(kGlibcNamespaceCap) +
            " per process); rebuild with the PiP-patched glibc "
            "(loader.patched_glibc=true) for higher virtualization ratios");
  }
  const int ns = ++namespaces_;
  auto inst =
      ImageInstance::allocate(image, InstanceOrigin::DlmopenNamespace, ns);
  run_constructors(image, *inst);
  registry_.add(inst.get());
  owned_.push_back(std::move(inst));
  return *owned_.back();
}

namespace {

// Paces an I/O of `bytes` against the modelled shared filesystem: a fixed
// per-operation latency plus bytes/bandwidth. Spin-waits (rather than
// sleeping) below 50 us for timer fidelity in startup benchmarks.
void pace_fs_io(std::size_t bytes, std::int64_t latency_us, double mb_s) {
  double wait_us = static_cast<double>(latency_us);
  if (mb_s > 0.0)
    wait_us += static_cast<double>(bytes) / (mb_s * 1e6) * 1e6;
  if (wait_us <= 0.0) return;
  if (wait_us < 50.0) {
    const auto until = util::wall_time_ns() +
                       static_cast<std::uint64_t>(wait_us * 1e3);
    while (util::wall_time_ns() < until) {
    }
  } else {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(wait_us)));
  }
}

}  // namespace

ImageInstance& Loader::fs_clone(const ProgramImage& image, int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(image.is_pie(), ErrorCode::NotSupported,
          "FSglobals requires a PIE-built program");
  require(image.shared_deps().empty(), ErrorCode::NotSupported,
          "FSglobals does not support programs with shared-object "
          "dependencies (would need a per-rank copy of every dependency)");

  if (mkdir(fs_dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw ApvError(ErrorCode::IoError,
                   "cannot create shared-fs dir " + fs_dir_ + ": " +
                       std::strerror(errno));
  }
  const std::string path =
      fs_dir_ + "/" + image.name() + ".rank" + std::to_string(rank) + ".bin";

  // Copy the "binary" onto the shared filesystem...
  const std::vector<std::byte> bytes = image.serialize();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    require(f != nullptr, ErrorCode::IoError, "cannot write " + path);
    const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    require(n == bytes.size(), ErrorCode::IoError, "short write to " + path);
  }
  pace_fs_io(bytes.size() + image.code_size(), fs_latency_us_,
             fs_bandwidth_mb_s_);

  // ...and dlopen the copy back in.
  std::vector<std::byte> readback(bytes.size());
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    require(f != nullptr, ErrorCode::IoError, "cannot read " + path);
    const std::size_t n = std::fread(readback.data(), 1, readback.size(), f);
    std::fclose(f);
    require(n == readback.size(), ErrorCode::IoError, "short read " + path);
  }
  pace_fs_io(readback.size() + image.code_size(), fs_latency_us_,
             fs_bandwidth_mb_s_);

  auto fs_image = std::make_unique<ProgramImage>(
      deserialize_image(readback, image));
  auto inst = ImageInstance::allocate(*fs_image, InstanceOrigin::FsCopy);
  run_constructors(*fs_image, *inst);
  registry_.add(inst.get());
  fs_images_.push_back(std::move(fs_image));
  owned_.push_back(std::move(inst));
  return *owned_.back();
}

PhdrInfo Loader::phdr_of(const ImageInstance& inst) const {
  PhdrInfo info;
  info.instance = &inst;
  info.code_base = inst.code_base();
  info.code_size = inst.image().code_size();
  info.data_base = inst.data_base();
  info.data_size = inst.image().data_size();
  return info;
}

std::vector<PhdrInfo> Loader::iterate_phdr() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PhdrInfo> out;
  out.reserve(owned_.size());
  for (const auto& inst : owned_) out.push_back(phdr_of(*inst));
  return out;
}

}  // namespace apv::img
