#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/annotations.h"

namespace netseer::sim {

/// Type-erased void() callable with small-buffer optimization, the
/// scheduling payload of the event engine. Captures up to kInlineBytes
/// live inline in the slab cell itself — no heap allocation on the
/// per-event hot path — while larger captures spill to a single heap cell
/// (observable via on_heap(), which feeds the sim.alloc_per_event
/// telemetry gauge so spills show up in snapshots instead of profiles).
///
/// A Task is built in place in a slab cell that never moves, so it is
/// neither copyable nor movable.
class Task {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  Task() noexcept = default;
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  /// Build a callable in place, replacing any previous one.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Task> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task& operator=(F&& fn) {
    reset();
    construct(std::forward<F>(fn));
    return *this;
  }

  NETSEER_HOT void operator()() { ops_->invoke(storage_); }

  /// The capture spilled to the heap (too big or overaligned).
  [[nodiscard]] bool on_heap() const noexcept { return ops_ != nullptr && ops_->heap; }

  NETSEER_HOT void reset() noexcept {
    if (ops_ != nullptr) {
      // destroy is null for trivially-destructible inline captures — the
      // common timer-lambda case — turning the per-event teardown into a
      // predictable branch instead of an indirect call.
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);  // null: trivially destructible
    bool heap;
  };

  // ALLOW_INIT: the oversized-capture heap spill below is the documented
  // fallback path; on_heap() surfaces it in telemetry instead of the lint.
  template <typename F>
  NETSEER_HOT_ALLOW_INIT void construct(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
      /*heap=*/false};

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* p) { delete *std::launder(reinterpret_cast<Fn**>(p)); },
      /*heap=*/true};

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};
// Neither copy nor move: the callable operator= must not reopen either.
static_assert(!std::is_move_constructible_v<Task> && !std::is_move_assignable_v<Task>);

}  // namespace netseer::sim
