#include "ult/context.hpp"

#include <cstdlib>
#include <cstring>

#if APV_SANITIZER_FIBERS
#include <pthread.h>
#if APV_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#endif

#include "util/error.hpp"

#if defined(__x86_64__) && defined(APV_HAVE_ASM_CONTEXT)
#define APV_ASM_AVAILABLE 1
#else
#define APV_ASM_AVAILABLE 0
#endif

#if APV_ASM_AVAILABLE
extern "C" {
void apv_context_switch_asm(void** save_sp, void* restore_sp);
void apv_context_trampoline_asm();
}
#endif

namespace apv::ult {

using util::ApvError;
using util::ErrorCode;
using util::require;

#if APV_SANITIZER_FIBERS
#if APV_ASAN
namespace {
// Bounds of the calling OS thread's stack, for native (scheduler-side)
// contexts: create_native may run on a different thread than the one that
// later drives switches, so bounds are captured lazily at the first
// departure, which by the scheduler discipline happens on the owning
// thread. ASan needs them to track switches back onto the thread stack.
void capture_thread_stack(const void** bottom, std::size_t* size) noexcept {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  std::size_t sz = 0;
  pthread_attr_getstack(&attr, &addr, &sz);
  pthread_attr_destroy(&attr);
  *bottom = addr;
  *size = sz;
}
}  // namespace
#endif

void Context::fiber_entry_shim(void* self) {
  auto* ctx = static_cast<Context*>(self);
#if APV_ASAN
  // First entry of a fresh fiber: consume the switch the departing context
  // started. No fake-stack handle exists yet (nullptr).
  if (ctx->backend_ == ContextBackend::Asm)
    __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  ctx->san_entry_(ctx->san_arg_);
  std::abort();  // entry functions must never return
}

void Context::san_prepare_switch(Context& to) noexcept {
#if APV_TSAN
  // Lazily adopt the driving thread's implicit fiber for native contexts.
  // Each ULT context owns a created fiber; switching tells TSan the next
  // accesses belong to that fiber's clock, so a rank resuming on another
  // PE thread after migration is not a false cross-thread race.
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_get_current_fiber();
  if (to.tsan_fiber_ != nullptr) __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#else
  (void)to;
#endif
}
#endif  // APV_SANITIZER_FIBERS

ContextBackend default_context_backend() noexcept {
#if APV_ASM_AVAILABLE
  return ContextBackend::Asm;
#else
  return ContextBackend::Ucontext;
#endif
}

bool context_backend_available(ContextBackend backend) noexcept {
  switch (backend) {
    case ContextBackend::Asm: return APV_ASM_AVAILABLE != 0;
    case ContextBackend::Ucontext: return true;
  }
  return false;
}

const char* context_backend_name(ContextBackend backend) noexcept {
  switch (backend) {
    case ContextBackend::Asm: return "asm";
    case ContextBackend::Ucontext: return "ucontext";
  }
  return "?";
}

void Context::ucontext_entry_shim(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Context*>(
      (static_cast<std::uintptr_t>(hi) << 32) |
      static_cast<std::uintptr_t>(lo));
  EntryFn entry = self->uc_entry_;
  void* arg = self->uc_arg_;
  entry(arg);
  // Entry functions must never return; terminating here keeps the failure
  // loud instead of letting swapcontext resume an undefined successor.
  std::abort();
}

void Context::create(void* stack_base, std::size_t stack_size, EntryFn entry,
                     void* arg, ContextBackend backend) {
  require(context_backend_available(backend), ErrorCode::NotSupported,
          "context backend not built on this platform");
  require(stack_base != nullptr && stack_size >= 4096,
          ErrorCode::InvalidArgument, "context stack too small");
  backend_ = backend;
  backend_set_ = true;

#if APV_SANITIZER_FIBERS
  san_stack_bottom_ = stack_base;
  san_stack_size_ = stack_size;
  san_exiting_ = false;
  // Route the entry through the shim (ASan's first-entry finish call);
  // the real entry/arg live in the Context, which unpacks at the same
  // virtual address after migration, so the indirection migrates cleanly.
  // Locals, not the parameters: a parameter reassigned before getcontext
  // below trips -Wclobbered.
  san_entry_ = entry;
  san_arg_ = arg;
  const EntryFn first_entry = &Context::fiber_entry_shim;
  void* const first_arg = this;
#if APV_TSAN
  if (tsan_fiber_owned_ && tsan_fiber_ != nullptr)
    __tsan_destroy_fiber(tsan_fiber_);  // context reused for a fresh ULT
  tsan_fiber_ = __tsan_create_fiber(0);
  tsan_fiber_owned_ = true;
#endif
#else
  const EntryFn first_entry = entry;
  void* const first_arg = arg;
#endif

  if (backend == ContextBackend::Ucontext) {
    if (getcontext(&uc_) != 0)
      throw ApvError(ErrorCode::Internal, "getcontext failed");
    uc_.uc_stack.ss_sp = stack_base;
    uc_.uc_stack.ss_size = stack_size;
    uc_.uc_link = nullptr;
    uc_entry_ = first_entry;
    uc_arg_ = first_arg;
    const auto addr = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&uc_, reinterpret_cast<void (*)()>(ucontext_entry_shim), 2,
                static_cast<unsigned>(addr >> 32),
                static_cast<unsigned>(addr & 0xffffffffu));
    return;
  }

#if APV_ASM_AVAILABLE
  // Fabricate the frame apv_context_switch_asm expects to unwind. Layout,
  // low address first: [mxcsr|fcw pad][r15][r14][r13][r12][rbx][rbp][ret].
  auto top = reinterpret_cast<std::uintptr_t>(stack_base) + stack_size;
  top &= ~static_cast<std::uintptr_t>(15);  // rsp is 16-aligned at trampoline
  auto* frame = reinterpret_cast<std::uintptr_t*>(top - 8 * sizeof(void*));
  const std::uint32_t mxcsr = 0x1f80;  // defaults: all FP exceptions masked
  const std::uint16_t fcw = 0x037f;
  std::memcpy(reinterpret_cast<char*>(frame), &mxcsr, 4);
  std::memcpy(reinterpret_cast<char*>(frame) + 4, &fcw, 2);
  std::memset(reinterpret_cast<char*>(frame) + 6, 0, 2);
  frame[1] = 0;                                              // r15
  frame[2] = 0;                                              // r14
  frame[3] = reinterpret_cast<std::uintptr_t>(first_entry);  // r13
  frame[4] = reinterpret_cast<std::uintptr_t>(first_arg);    // r12
  frame[5] = 0;                                              // rbx
  frame[6] = 0;                                              // rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(&apv_context_trampoline_asm);
  asm_sp_ = frame;
#else
  throw ApvError(ErrorCode::NotSupported, "asm context backend not built");
#endif
}

void Context::create_native(ContextBackend backend) {
  require(context_backend_available(backend), ErrorCode::NotSupported,
          "context backend not built on this platform");
  backend_ = backend;
  backend_set_ = true;
  // Asm native contexts need no setup: switch_to() fills asm_sp_ on suspend,
  // and ucontext fills uc_ inside swapcontext.
}

void Context::switch_to(Context& to) {
  require(backend_set_ && to.backend_set_, ErrorCode::BadState,
          "switching uninitialized context");
  require(backend_ == to.backend_, ErrorCode::InvalidArgument,
          "cannot switch between different context backends");
#if APV_SANITIZER_FIBERS
#if APV_ASAN
  // ASan fiber protocol, for the asm backend only — the ucontext backend is
  // handled by ASan's own swapcontext interceptor, and double bookkeeping
  // corrupts its stack tracking. `fake` lives in this frame, which is
  // exactly the frame that resumes when some later switch restores *this*,
  // so the handle round-trips without a field. An exiting context passes
  // nullptr so ASan releases its fake-stack state instead of saving it.
  void* fake = nullptr;
  const bool asan_annotate = backend_ == ContextBackend::Asm;
  if (asan_annotate) {
    if (san_stack_bottom_ == nullptr)
      capture_thread_stack(&san_stack_bottom_, &san_stack_size_);
    if (to.san_stack_bottom_ == nullptr)
      capture_thread_stack(&to.san_stack_bottom_, &to.san_stack_size_);
    __sanitizer_start_switch_fiber(san_exiting_ ? nullptr : &fake,
                                   to.san_stack_bottom_, to.san_stack_size_);
  }
#endif
  san_prepare_switch(to);  // TSan fiber switch (both backends)
#endif
  if (backend_ == ContextBackend::Ucontext) {
    if (swapcontext(&uc_, &to.uc_) != 0)
      throw ApvError(ErrorCode::Internal, "swapcontext failed");
#if APV_ASAN
    // (ucontext resume: interceptor already restored stack bookkeeping.)
#endif
    return;
  }
#if APV_ASM_AVAILABLE
  apv_context_switch_asm(&asm_sp_, to.asm_sp_);
#if APV_ASAN
  // Resumed: consume the switch that landed back on this context's stack.
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
#else
  throw ApvError(ErrorCode::NotSupported, "asm context backend not built");
#endif
}

}  // namespace apv::ult
