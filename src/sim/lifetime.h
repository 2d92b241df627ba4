#ifndef SLACKER_SIM_LIFETIME_H_
#define SLACKER_SIM_LIFETIME_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/callback.h"

namespace slacker::sim {

/// Owner guard for `[this]` continuations that can outlive their owner
/// (DESIGN.md §15.6): the owner holds one Lifetime member and passes
/// Guard(fn); a guarded callback invoked after the owner died does
/// nothing. The guard is an 8-byte tag, a slot in a thread-local table
/// plus the slot's generation, like an EventId: destroying the owner
/// bumps the generation and frees the slot for reuse. The table is
/// never freed, so owner, callback and Simulator may die in any order.
class Lifetime {
 public:
  Lifetime() {
    Table& t = Slots();
    if (t.free.empty()) {
      t.free.push_back(static_cast<uint32_t>(t.generation.size()));
      t.generation.push_back(1);
    }
    const uint32_t slot = t.free.back();
    t.free.pop_back();
    tag_ = (static_cast<uint64_t>(slot) << 32) | t.generation[slot];
  }
  ~Lifetime() {
    Table& t = Slots();
    ++t.generation[tag_ >> 32];
    t.free.push_back(static_cast<uint32_t>(tag_ >> 32));
  }

  Lifetime(const Lifetime&) = delete;
  Lifetime& operator=(const Lifetime&) = delete;

  /// `fn` plus 8 bytes, run (with its arguments) only while the owner
  /// lives.
  template <typename F>
  auto Guard(F fn) const {
    return Wrap(tag_, std::move(fn));
  }
  /// An empty callback stays empty. A non-empty one is already erased,
  /// so its guard spills to the heap: guard the lambda instead.
  template <typename Sig>
  Callback<Sig> Guard(Callback<Sig> fn) const {
    if (!fn) return nullptr;
    return Wrap(tag_, std::move(fn));
  }
  std::nullptr_t Guard(std::nullptr_t) const { return nullptr; }

  static bool Alive(uint64_t tag) {
    const Table& t = Slots();
    const uint64_t slot = tag >> 32;
    return slot < t.generation.size() &&
           t.generation[slot] == static_cast<uint32_t>(tag);
  }
  /// slot << 32 | generation.
  uint64_t tag() const { return tag_; }

 private:
  template <typename F>
  static auto Wrap(uint64_t tag, F fn) {
    return [tag, fn = std::move(fn)](auto&&... args) mutable {
      if (Alive(tag)) fn(std::forward<decltype(args)>(args)...);
    };
  }

  struct Table {
    std::vector<uint32_t> generation;  // Per slot.
    std::vector<uint32_t> free;
  };
  // Leaked on purpose: an owner with static storage may die after this
  // thread's thread_locals are destroyed.
  static Table& Slots() {
    thread_local Table* table = new Table;
    return *table;
  }

  uint64_t tag_;
};

}  // namespace slacker::sim

#endif  // SLACKER_SIM_LIFETIME_H_
