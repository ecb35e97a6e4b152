#include "core/privatizer.hpp"

#include <new>

#include "util/error.hpp"
#include "util/log.hpp"

namespace apv::core {

using util::ApvError;
using util::ErrorCode;
using util::require;

Privatizer::Privatizer(Method method, ProcessEnv env)
    : env_(std::move(env)), method_(make_method(method)) {
  require(env_.image != nullptr && env_.loader != nullptr &&
              env_.arena != nullptr,
          ErrorCode::InvalidArgument, "ProcessEnv incomplete");
  method_->init_process(env_);
}

Privatizer::~Privatizer() = default;

const img::ImageInstance& Privatizer::primary() const {
  const img::ImageInstance* p =
      env_.loader->registry().primary_of(*env_.image);
  require(p != nullptr, ErrorCode::BadState, "primary image not loaded");
  return *p;
}

RankContext* Privatizer::create_rank(const RankParams& params) {
  require(params.body != nullptr, ErrorCode::InvalidArgument,
          "rank needs a body function");
  const iso::SlotId slot = env_.arena->acquire_slot();
  iso::SlotHeap* heap = iso::SlotHeap::format(
      env_.arena->slot_base(slot),
      env_.arena->slot_size() - method_->slot_tail_bytes());
  auto rc = std::make_unique<RankContext>();
  rc->world_rank = params.world_rank;
  rc->method = method_->kind();
  rc->process = &env_;
  rc->slot = slot;
  rc->heap = heap;

  // Method-specific privatization first: PIEglobals' segment copies are the
  // big slot allocations and benefit from the fresh heap.
  try {
    method_->init_rank(*rc);
  } catch (...) {
    // A refused rank (dlmopen namespace cap, linker version gate) must not
    // strand its slot: the context dies with `rc`, the slot goes back here.
    env_.arena->release_slot(slot);
    throw;
  }

  // The ULT object and its stack live in the slot so the rank can migrate.
  void* stack = heap->alloc(params.stack_size, 16);
  void* ult_mem = heap->alloc(sizeof(ult::Ult), alignof(ult::Ult));
  rc->ult = new (ult_mem)
      ult::Ult(static_cast<ult::Ult::Id>(params.world_rank), params.body,
               params.arg, stack, params.stack_size, params.backend);
  rc->ult->set_user_data(rc.get());
  return rc.release();
}

void Privatizer::destroy_rank(RankContext* rc) {
  require(rc != nullptr, ErrorCode::InvalidArgument, "destroy_rank(null)");
  require(rc->ult == nullptr ||
              rc->ult->state() != ult::UltState::Running,
          ErrorCode::BadState, "cannot destroy a running rank");
  method_->destroy_rank(*rc);
  if (rc->ult != nullptr) {
    rc->ult->~Ult();
    rc->ult = nullptr;
  }
  env_.arena->release_slot(rc->slot);
  delete rc;
}

int Privatizer::install_switch_hook(ult::Scheduler& sched) {
  PrivatizationMethod* method = method_.get();
  return sched.add_switch_hook([method](ult::Ult* next) {
    auto* rc =
        next ? static_cast<RankContext*>(next->user_data()) : nullptr;
    tl_current_rank = rc;
    method->on_switch_in(rc);
  });
}

VarAccess Privatizer::bind(img::VarId id) const {
  return bind_var(*env_.image, id, method_->kind(), primary());
}

VarAccess Privatizer::bind(const std::string& name) const {
  return bind(env_.image->var_id(name));
}

void Privatizer::rank_departed(RankContext* rc) {
  require(method_->supports_migration(), ErrorCode::MigrationRefused,
          std::string(method_name(kind())) +
              " does not support rank migration");
  method_->on_rank_departed(*rc);
}

void Privatizer::rank_arrived(RankContext* rc) {
  require(method_->supports_migration(), ErrorCode::MigrationRefused,
          std::string(method_name(kind())) +
              " does not support rank migration");
  rc->process = &env_;
  method_->on_rank_arrived(*rc);
}

}  // namespace apv::core
