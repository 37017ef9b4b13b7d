#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

namespace xrbench::sim {

/// Simulation time in milliseconds since run start.
using TimeMs = double;

/// Opaque handle identifying a scheduled event (for cancellation). Encodes
/// (generation << 32 | pool slot), so a handle kept across a slot reuse is
/// detected as stale instead of cancelling an unrelated event. 0 is never a
/// valid id.
using EventId = std::uint64_t;

/// Small-buffer callback for simulator events. Stores the callable inline
/// (no heap allocation); callables larger than the inline buffer are
/// rejected at compile time — the simulation hot path schedules millions of
/// events per sweep, so every capture must stay small. The callable is
/// constructed in place by emplace() and never moves: it is invoked where
/// it was built and destroyed there by reset().
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 96;

  EventCallback() = default;
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  /// Constructs `f`'s decayed copy in the inline buffer. The callback must
  /// be empty.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= kInlineBytes,
                  "event callback capture exceeds the inline event-pool "
                  "buffer; shrink the capture (pass a pointer to shared "
                  "state instead of copying it)");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned event callback capture");
    new (buf_) D(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
    if constexpr (!std::is_trivially_destructible_v<D>) {
      destroy_ = [](void* p) { static_cast<D*>(p)->~D(); };
    }
  }

  void operator()() { invoke_(buf_); }

  /// Destroys the stored callable (releasing any resources it owns) and
  /// returns to the empty state.
  void reset() {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  /// Null for trivially destructible callables: reset() then only clears.
  void (*destroy_)(void*) = nullptr;
};

/// Deterministic discrete-event simulator.
///
/// Events at equal timestamps fire in scheduling order (FIFO tie-break), so a
/// run is fully reproducible. The simulator is the time substrate for the
/// XRBench runtime: inference completions, retries and outage windows are
/// events. Sensor frame arrivals, all known before a run starts, stay out of
/// the queue: the runner walks them in sorted order and calls run_before()
/// ahead of each one.
///
/// Events live in a pooled free-list arena: the priority queue holds small
/// POD entries and each callable is constructed directly in a recycled pool
/// node, where it also fires, so steady-state scheduling performs no heap
/// allocation (the pool and the queue retain their high-water capacity) and
/// a callable is never moved after it is scheduled. Nodes live in
/// fixed-size chunks that are only ever appended, so a callback that
/// schedules events while it runs never sees its own node move.
/// Cancellation is O(1): the node is released immediately and the stale
/// queue entry is skipped on pop via its generation tag.
class Simulator {
 public:
  /// Current simulation time. 0 before the first event fires.
  TimeMs now() const { return now_; }

  /// Schedules the callable `f` (invoked with no arguments) at absolute
  /// time `when` (>= now, clamped otherwise), constructing it in its pool
  /// node. Returns an id usable with cancel().
  template <typename F>
  EventId schedule_at(TimeMs when, F&& f) {
    const std::uint32_t slot = alloc_slot();
    Node& n = node(slot);
    try {
      n.cb.emplace(std::forward<F>(f));
    } catch (...) {
      release_slot(slot);
      throw;
    }
    queue_.push(QueueEntry{std::max(when, now_), next_seq_++, slot,
                           n.generation});
    ++live_events_;
    return (static_cast<EventId>(n.generation) << 32) | slot;
  }

  /// Schedules `f` `delay` milliseconds from now.
  template <typename F>
  EventId schedule_after(TimeMs delay, F&& f) {
    return schedule_at(now_ + std::max(delay, 0.0), std::forward<F>(f));
  }

  /// Cancels a pending event. Returns false if it already fired (or is
  /// firing), was cancelled before, or never existed (including ids whose
  /// pool slot has since been reused by a newer event).
  bool cancel(EventId id);

  /// Runs events until the queue is empty. Returns the number of events
  /// fired. An exception from a callback propagates out; that event's node
  /// is released first and the remaining events stay pending.
  std::size_t run();

  /// Runs events with timestamp strictly before `t` (events they schedule
  /// before `t` included), then sets now() to `t` if it is behind it; events
  /// at exactly `t` stay pending. The hook for a caller that feeds
  /// externally-known arrivals in (time, order) sequence: it fires this
  /// before handling an arrival at `t`, which then precedes every pending
  /// event at `t` exactly as if it had been scheduled first. Returns events
  /// fired.
  std::size_t run_before(TimeMs t);

  /// Fires exactly one event if available. Returns false when queue is empty.
  bool step();

  bool empty() const { return live_events_ == 0; }
  std::size_t pending_events() const { return live_events_; }
  std::size_t fired_events() const { return fired_; }

  /// Pre-sizes the event pool and queue storage (optional; the pool also
  /// grows on demand and is reused across the run).
  void reserve(std::size_t events);

  /// Rewinds the clock to 0 for a new run, keeping the pool's high-water
  /// capacity — the arena-reuse hook for sweep workers that run thousands
  /// of trials. Only legal once the queue has drained (run() returned and
  /// nothing was scheduled since); throws std::logic_error otherwise.
  /// The FIFO sequence counter keeps running — only the relative order of
  /// equal-time events matters, so a reused simulator replays a seeded run
  /// bit-identically to a fresh one (enforced by test).
  void reset();

  /// Number of pool slots ever handed out (high-water mark of concurrently
  /// pending or firing events; exposed for tests and diagnostics).
  std::size_t pool_slots() const { return slots_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;  // 64

  struct Node {
    EventCallback cb;
    std::uint32_t generation = 0;  ///< Bumped on each allocation of the slot.
    std::uint32_t next_free = kNil;
    bool live = false;
  };

  /// POD heap entry; `generation` detects entries whose slot was cancelled
  /// (and possibly reused) between push and pop.
  struct QueueEntry {
    TimeMs when;
    std::uint64_t seq;  // FIFO tie-break
    std::uint32_t slot;
    std::uint32_t generation;
    bool operator>(const QueueEntry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  Node& node(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkNodes - 1)];
  }
  std::uint32_t alloc_slot() {
    std::uint32_t slot;
    if (free_head_ != kNil) {
      slot = free_head_;
      free_head_ = node(slot).next_free;
    } else {
      if (slots_ == chunks_.size() * kChunkNodes) add_chunk();
      slot = slots_++;
    }
    Node& n = node(slot);
    ++n.generation;  // stale ids/entries from the previous tenant now mismatch
    n.live = true;
    n.next_free = kNil;
    return slot;
  }
  void add_chunk();
  void release_slot(std::uint32_t slot);
  bool entry_live(const QueueEntry& e) const {
    const Node& n = node(e.slot);
    return n.live && n.generation == e.generation;
  }
  void skip_stale_top();
  bool fire_next();

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue_;
  /// Slot s is node s % kChunkNodes of chunk s / kChunkNodes.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t slots_ = 0;
  std::uint32_t free_head_ = kNil;
  TimeMs now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::size_t fired_ = 0;
};

}  // namespace xrbench::sim
