#include "sim/simulator.h"

#include <stdexcept>

namespace xrbench::sim {

void Simulator::add_chunk() {
  chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
}

void Simulator::release_slot(std::uint32_t slot) {
  Node& n = node(slot);
  n.cb.reset();
  n.live = false;
  n.next_free = free_head_;
  free_head_ = slot;
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_) return false;
  Node& n = node(slot);
  if (!n.live || n.generation != generation) return false;
  release_slot(slot);  // the stale queue entry is skipped on pop
  if (live_events_ > 0) --live_events_;
  return true;
}

void Simulator::skip_stale_top() {
  while (!queue_.empty() && !entry_live(queue_.top())) queue_.pop();
}

bool Simulator::fire_next() {
  while (!queue_.empty()) {
    const QueueEntry e = queue_.top();
    queue_.pop();
    if (!entry_live(e)) continue;
    // Fire in place: chunks never move, so the callback may schedule
    // events (growing the pool) while it runs. The node is dead from here
    // on, which makes a cancel() of this id during the callback a no-op,
    // and it goes back to the free list only once the call has returned or
    // thrown, so no event scheduled meanwhile can take it.
    Node& n = node(e.slot);
    n.live = false;
    now_ = e.when;
    --live_events_;
    ++fired_;
    struct Release {
      Simulator* sim;
      std::uint32_t slot;
      ~Release() { sim->release_slot(slot); }
    } release{this, e.slot};
    n.cb();
    return true;
  }
  return false;
}

std::size_t Simulator::run() {
  std::size_t fired = 0;
  while (fire_next()) ++fired;
  return fired;
}

std::size_t Simulator::run_before(TimeMs t) {
  std::size_t fired = 0;
  while (true) {
    skip_stale_top();
    if (queue_.empty() || queue_.top().when >= t) break;
    if (fire_next()) ++fired;
  }
  now_ = std::max(now_, t);
  return fired;
}

bool Simulator::step() { return fire_next(); }

void Simulator::reserve(std::size_t events) {
  while (chunks_.size() * kChunkNodes < events) add_chunk();
  // priority_queue has no reserve; rebuild its container with capacity.
  std::vector<QueueEntry> storage;
  storage.reserve(events);
  while (!queue_.empty()) {
    storage.push_back(queue_.top());
    queue_.pop();
  }
  queue_ = std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                               std::greater<>>(std::greater<>{},
                                               std::move(storage));
}

void Simulator::reset() {
  if (live_events_ != 0) {
    throw std::logic_error("Simulator::reset: events are still pending");
  }
  // Every remaining queue entry is stale (its slot was cancelled — live
  // slots are counted by live_events_); drop them so the rewound clock can
  // never resurrect one.
  while (!queue_.empty()) queue_.pop();
  now_ = 0.0;
  fired_ = 0;
}

}  // namespace xrbench::sim
