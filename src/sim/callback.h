#ifndef SLACKER_SIM_CALLBACK_H_
#define SLACKER_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace slacker::sim {

template <typename Signature>
class Callback;

/// Move-only type-erased callable with small-buffer storage: the
/// project's one type for one-shot continuations (DESIGN.md §15.6).
///
/// `std::function` heap-allocates any capture larger than its tiny
/// internal buffer (16 bytes on common ABIs) and rejects move-only
/// captures. Callback stores up to kInlineBytes inline — enough for the
/// `[this, token]` shapes the model code passes — so the common case
/// never allocates. As with std::function, nullptr makes an empty
/// Callback and operator() is const.
template <typename R, typename... Args>
class Callback<R(Args...)> {
 public:
  /// Captures up to this size (and alignof <= kInlineAlign) are stored
  /// inline; larger ones take one heap allocation. Sized so an event
  /// node (src/sim/event_queue.h) stays under two cache lines.
  static constexpr size_t kInlineBytes = 40;
  static constexpr size_t kInlineAlign = alignof(void*);

  Callback() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  Callback(std::nullptr_t) {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor)
  Callback(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &InlineModel<D>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapModel<D>::kOps;
    }
  }

  Callback(Callback&& other) noexcept { MoveFrom(std::move(other)); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { Reset(); }

  /// Drops the held callable (if any).
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs the callable from `src` into `dst`, then
    /// destroys the `src` copy. Used by the move constructor (and thus
    /// by event-pool growth, which relocates nodes).
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void*);
  };

  template <typename D>
  struct InlineModel {
    static D* Held(void* s) { return std::launder(static_cast<D*>(s)); }
    static R Invoke(void* s, Args&&... args) {
      return (*Held(s))(std::forward<Args>(args)...);
    }
    static void Relocate(void* src, void* dst) {
      ::new (dst) D(std::move(*Held(src)));
      Held(src)->~D();
    }
    static void Destroy(void* s) { Held(s)->~D(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename D>
  struct HeapModel {
    static D* Held(void* s) { return *std::launder(static_cast<D**>(s)); }
    static R Invoke(void* s, Args&&... args) {
      return (*Held(s))(std::forward<Args>(args)...);
    }
    static void Relocate(void* src, void* dst) { ::new (dst) D*(Held(src)); }
    static void Destroy(void* s) { delete Held(s); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(Callback&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) mutable unsigned char storage_[kInlineBytes];
};

}  // namespace slacker::sim

#endif  // SLACKER_SIM_CALLBACK_H_
