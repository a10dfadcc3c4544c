// Discrete-event simulator.
//
// The whole testbed — RU, switch, PHY/L2 servers, UEs, traffic apps —
// runs as callbacks scheduled on a single virtual clock with nanosecond
// resolution. Events at the same timestamp execute in scheduling order
// (FIFO tie-break), which keeps runs fully deterministic.
//
// Hot-path design: scheduling an event allocates nothing in the common
// case. Callables live in slab-allocated event records (recycled through
// a free list, stable addresses) inside a small-buffer-optimized
// InlineCallback — no per-event std::function heap traffic — and
// cancellation is a generation counter on the record rather than a
// shared_ptr<bool> flag, so a fired event releases its resources
// immediately no matter how many handle copies survive. Events are
// ordered by a calendar queue (sim/calendar_queue.h): O(1) bucketed
// inserts on the TTI-quantized timeline instead of a binary heap's
// O(log n) comparator traffic, popping in strictly the same (time, seq)
// order as before; the golden-trace determinism test pins that
// contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "sim/calendar_queue.h"

namespace slingshot {

class Simulator;

// Move-only callable with inline storage for typical capture sets.
// Callables larger than the inline buffer (or with throwing moves) fall
// back to a single heap allocation.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineSize = 128;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  InlineCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = inline_vtable<Fn>();
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = heap_vtable<Fn>();
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  void operator()() { vt_->invoke(buf_); }
  [[nodiscard]] explicit operator bool() const { return vt_ != nullptr; }

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*move_to)(void* src, void* dst);  // dst is raw storage
    void (*destroy)(void*);
  };

  template <typename Fn>
  static const VTable* inline_vtable() {
    static constexpr VTable vt{
        [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
        [](void* src, void* dst) {
          Fn* s = std::launder(reinterpret_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*s));
          s->~Fn();
        },
        [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }};
    return &vt;
  }

  template <typename Fn>
  static const VTable* heap_vtable() {
    static constexpr VTable vt{
        [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
        [](void* src, void* dst) {
          Fn** s = std::launder(reinterpret_cast<Fn**>(src));
          ::new (dst) Fn*(*s);
        },
        [](void* p) { delete *std::launder(reinterpret_cast<Fn**>(p)); }};
    return &vt;
  }

  void move_from(InlineCallback& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->move_to(other.buf_, buf_);
      other.vt_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
  const VTable* vt_ = nullptr;
};

// Lifecycle answer for an EventHandle query. kExpired is the distinct
// "this occurrence is over" state: the record behind the handle has been
// recycled (the event fired, or a cancelled record was reaped), so the
// handle can say nothing about whatever event now occupies the slot.
// Before this state existed, a recycled record answered cancelled() ==
// false — indistinguishable from "pending and healthy", and one 32-bit
// generation wrap away from an ABA false positive against a live event.
enum class EventState : std::uint8_t {
  kInvalid,    // default-constructed handle, no simulator behind it
  kPending,    // scheduled and will fire (or periodic series running)
  kCancelled,  // cancel() took effect; the occurrence will not fire
  kExpired,    // record recycled: fired, reaped, or slot reused
};

// Handle for a scheduled event; allows cancellation. Copyable; all
// copies refer to the same scheduled occurrence (or periodic series).
// A handle must not outlive its Simulator. cancelled() reports true
// while a cancelled occurrence is still pending in the queue; once the
// event fires or is reaped, its record is recycled and the handle
// reports kExpired — cancel() through it is a generation-mismatch no-op
// even after the slot is handed to a new event. Generations are 64-bit
// precisely so that slot reuse through the free list can never wrap a
// stale handle back onto a live event's generation (the ABA a 32-bit
// counter left open). Nothing is kept alive by surviving handle copies.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  [[nodiscard]] bool valid() const { return sim_ != nullptr; }
  // True only while a cancelled occurrence is still pending in the
  // queue. A recycled record answers kExpired via state(), not true
  // here — "expired" and "cancelled" are different answers.
  [[nodiscard]] bool cancelled() const;
  [[nodiscard]] EventState state() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint64_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

namespace obs {
class Observability;
}  // namespace obs

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1)
      : rng_(seed) {}

  [[nodiscard]] Nanos now() const { return now_; }
  [[nodiscard]] const RngRegistry& rng() const { return rng_; }

  // Observability anchor (see obs/obs.h). Forward-declared on purpose:
  // the sim core never depends on the obs library. Null by default —
  // every SLS_TRACE_* site null-checks, so an unattached sim pays one
  // predictable branch per site and nothing else. The tracer is a
  // passive observer; attaching it must not change event order.
  void set_obs(obs::Observability* o) { obs_ = o; }
  [[nodiscard]] obs::Observability* obs() const { return obs_; }

  // Schedule `fn` at absolute virtual time `t` (must be >= now). A
  // past-time `t` is CLAMPED to now(): the event fires at the current
  // time, after events already scheduled there, never behind the clock.
  // Before this was enforced a past-time schedule silently landed
  // behind now_ — the heap still popped it, executing it out of causal
  // order and corrupting the (time, seq) trace. Clamps are counted in
  // past_schedules_clamped() so tests (and the sharded barrier loop)
  // can assert the path stays cold; there is deliberately no hard
  // assert so the clamp contract is testable in every build type.
  EventHandle at(Nanos t, InlineCallback fn);
  // Schedule `fn` after a delay from now.
  EventHandle after(Nanos delay, InlineCallback fn) {
    return at(now_ + delay, std::move(fn));
  }
  // Schedule `fn` every `period`, starting at `start`. Returns a handle
  // that cancels all future occurrences.
  EventHandle every(Nanos start, Nanos period, InlineCallback fn);

  // Run until the event queue drains or virtual time would pass `t_end`.
  // On normal return now() == t_end even when the queue drained early,
  // so back-to-back run_until segments (the sharded barrier loop issues
  // one per TTI window) always see time advance to each horizon instead
  // of standing still at the last executed event. After stop(), now()
  // stays at the stopping event's timestamp — the clock must not
  // teleport past events that never ran.
  void run_until(Nanos t_end);
  // Run until the queue is empty (use with care: periodic tasks never
  // drain; prefer run_until).
  void run_all();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  // Past-time at() calls that were clamped to now(). Healthy schedules
  // never clamp; a nonzero value flags a caller computing stale times.
  [[nodiscard]] std::uint64_t past_schedules_clamped() const {
    return past_clamped_;
  }
  // True when the last run_until/run_all exited via stop() rather than
  // reaching its horizon or draining.
  [[nodiscard]] bool stopped() const { return stopped_; }
  // FNV-1a-style hash over the (time, seq) of every executed event, in
  // execution order — the determinism fingerprint the golden-trace test
  // compares across refactors.
  [[nodiscard]] std::uint64_t trace_hash() const { return trace_hash_; }

  // Stop the current run_until loop after the in-flight event returns.
  void stop() { stopped_ = true; }

  // Calendar-queue bucket geometry (tests/tuning). Safe at any time —
  // pending events are re-filed under the new layout — and provably
  // order-neutral: the pop order is a pure function of (time, seq)
  // regardless of geometry, which the golden-trace pins verify at
  // several widths.
  void set_calendar_config(CalendarConfig cfg) { queue_.set_config(cfg); }
  [[nodiscard]] CalendarConfig calendar_config() const {
    return queue_.config();
  }

 private:
  friend class EventHandle;

  // One scheduled occurrence (or periodic series). Records live in
  // fixed-size slab chunks — stable addresses — and are recycled through
  // a free list once no heap entry references them.
  struct EventRecord {
    InlineCallback fn;
    Nanos period = 0;  // > 0 for a periodic series
    // 64-bit: bumped on every retire, so a recycled slot can never
    // revisit a generation an outstanding handle still holds (ABA).
    std::uint64_t generation = 0;
    std::uint32_t pending = 0;  // queue entries referencing this record
    bool cancelled = false;
  };

  struct HeapEntry {
    Nanos time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint64_t generation;
    // Strict (time, seq) order for the calendar queue's bucket heaps.
    bool operator>(const HeapEntry& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  static constexpr std::size_t kChunkRecords = 256;

  [[nodiscard]] EventRecord& record(std::uint32_t slot) {
    return chunks_[slot / kChunkRecords][slot % kChunkRecords];
  }
  std::uint32_t allocate_record();
  void retire_record(std::uint32_t slot);
  void execute_top(HeapEntry entry);

  void cancel_event(std::uint32_t slot, std::uint64_t generation);
  [[nodiscard]] bool event_cancelled(std::uint32_t slot,
                                     std::uint64_t generation);
  [[nodiscard]] EventState event_state(std::uint32_t slot,
                                       std::uint64_t generation);

  Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t past_clamped_ = 0;
  std::uint64_t trace_hash_ = 1469598103934665603ULL;  // hash seed
  bool stopped_ = false;
  CalendarQueue<HeapEntry> queue_;
  std::vector<std::unique_ptr<EventRecord[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  RngRegistry rng_;
  obs::Observability* obs_ = nullptr;
};

inline void EventHandle::cancel() {
  if (sim_ != nullptr) {
    sim_->cancel_event(slot_, generation_);
  }
}

inline bool EventHandle::cancelled() const {
  return sim_ != nullptr && sim_->event_cancelled(slot_, generation_);
}

inline EventState EventHandle::state() const {
  return sim_ == nullptr ? EventState::kInvalid
                         : sim_->event_state(slot_, generation_);
}

}  // namespace slingshot
