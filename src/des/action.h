// detlint: hot-path
//
// Fixed-capacity, move-only callable for the event hot path.
//
// Every scheduled event used to be a std::function<void()>: type-erased,
// copyable, and heap-allocating for any capture past the implementation's
// small-buffer limit (typically 16 bytes — almost every model closure here
// captures more). At ~1.5M events/s that allocation and the double
// indirection are pure kernel overhead, and the determinism contract
// (DESIGN.md §12, rule 5) bans std::function from hot-path files outright.
//
// des::Action replaces it with a flat inline buffer and two function
// pointers. Invariants:
//   * storage is always inline — no allocation, ever; a callable that does
//     not fit is a compile error at the schedule site (box the capture),
//   * move-only, so captures may own move-only resources (unique_ptr),
//   * trivially relocatable from the kernel's point of view: moving an
//     Action moves the wrapped callable via its manager function.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace anyqos::des {

/// A move-only `void()` callable with guaranteed inline storage.
class Action {
 public:
  /// Inline capture budget, bytes: 48 bytes for the whole Action with the
  /// invoke/manage pointers, so a stored event with its category and
  /// schedule time fits one cache line. The largest model closures capture
  /// `this` plus a 24-byte fault or churn record (exactly 32 bytes); a
  /// bigger capture must box its state rather than grow every queued event.
  static constexpr std::size_t kCapacity = 32;

  Action() = default;

  /// Wraps any callable invocable as `void()`. Participates only for
  /// non-Action types so it never hijacks the move constructor.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>, Action> &&
                std::is_invocable_r_v<void, std::remove_reference_t<F>&>>>
  Action(F&& callable) {  // NOLINT(bugprone-forwarding-reference-overload)
    using Fn = std::remove_cv_t<std::remove_reference_t<F>>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "callable capture exceeds des::Action inline storage; "
                  "box the large state (e.g. capture a std::unique_ptr)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "callable is over-aligned for des::Action inline storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "des::Action relocates callables under noexcept moves");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(callable));
    invoke_ = [](void* storage) { (*static_cast<Fn*>(storage))(); };
    manage_ = [](void* dst, void* src) {
      if (dst != nullptr) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      }
      static_cast<Fn*>(src)->~Fn();
    };
  }

  Action(Action&& other) noexcept { steal(other); }

  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;

  ~Action() { reset(); }

  /// True when a callable is held.
  explicit operator bool() const { return invoke_ != nullptr; }

  /// Invokes the wrapped callable; requires a callable to be held.
  void operator()() { invoke_(static_cast<void*>(storage_)); }

 private:
  using Invoke = void (*)(void*);
  /// Relocates the callable from `src` into `dst` (move-construct) and
  /// destroys the source; with dst == nullptr it only destroys.
  using Manage = void (*)(void* dst, void* src);

  void reset() {
    if (manage_ != nullptr) {
      manage_(nullptr, static_cast<void*>(storage_));
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  void steal(Action& other) {
    if (other.manage_ != nullptr) {
      other.manage_(static_cast<void*>(storage_), static_cast<void*>(other.storage_));
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kCapacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace anyqos::des
