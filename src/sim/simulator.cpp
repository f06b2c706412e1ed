#include "sim/simulator.h"

#include <algorithm>
#include <bit>

namespace netseer::sim {

Simulator::Simulator() = default;

TaskHandle Simulator::enqueue_slot(SimTime when, std::uint32_t slot) {
  if (when < now_) when = now_;
  Slot& cell = slot_ref(slot);
  cell.when = when;
  cell.seq = next_seq_++;
  const std::uint64_t gen = cell.gen;
  push_slot(slot);
  return TaskHandle(this, slot, gen);
}

std::uint32_t Simulator::acquire_slot() {
  std::uint32_t index;
  if (free_slot_ != kNoSlot) {
    index = free_slot_;
    free_slot_ = slot_ref(index).next;
  } else {
    index = slot_count_++;
    if ((index >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
  }
  Slot& slot = slot_ref(index);
  slot.in_use = true;
  slot.cancelled = false;
  return index;
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slot_ref(index);
  slot.fn.reset();  // drop captures eagerly (cancelled tasks may pin buffers)
  ++slot.gen;       // invalidate outstanding handles
  slot.in_use = false;
  slot.cancelled = false;
  slot.next = free_slot_;
  free_slot_ = index;
}

void Simulator::append(std::uint32_t slot) {
  Slot& cell = slot_ref(slot);
  cell.next = kNoSlot;
  const std::size_t index = bucket_of(cell.when);
  Bucket& bucket = ring_[index];
  if (bucket.tail == kNoSlot) {
    bucket.head = slot;
    mark(index);
  } else {
    slot_ref(bucket.tail).next = slot;
  }
  bucket.tail = slot;
}

void Simulator::push_slot(std::uint32_t slot) {
  ++size_;
  const Slot& cell = slot_ref(slot);
  // when >= now_ >= cursor_, so an in-horizon instant has its own bucket.
  if (cell.when - cursor_ < static_cast<SimTime>(kBucketCount)) {
    append(slot);
  } else {
    overflow_.push_back(Entry{cell.when, cell.seq, slot});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

void Simulator::migrate_overflow() {
  const SimTime horizon = cursor_ + static_cast<SimTime>(kBucketCount);
  while (!overflow_.empty() && overflow_.front().when < horizon) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    append(overflow_.back().slot);
    overflow_.pop_back();
  }
}

std::size_t Simulator::next_occupied(std::size_t base) const {
  std::size_t word = base >> 6;
  const std::uint64_t head = occupied_[word] >> (base & 63);
  if (head != 0) return static_cast<std::size_t>(std::countr_zero(head));
  std::size_t dist = 64 - (base & 63);
  for (;;) {
    word = (word + 1) % kWords;
    if (occupied_[word] != 0) {
      return dist + static_cast<std::size_t>(std::countr_zero(occupied_[word]));
    }
    dist += 64;
  }
}

bool Simulator::advance(SimTime limit) {
  // Every overflow entry lies at or past the horizon, so the ring, when
  // it holds anything, holds the earliest instant.
  SimTime next;
  if (size_ > overflow_.size()) {
    next = cursor_ + static_cast<SimTime>(next_occupied(bucket_of(cursor_)));
  } else if (!overflow_.empty()) {
    next = overflow_.front().when;
  } else {
    return false;
  }
  if (next > limit) return false;
  cursor_ = next;
  migrate_overflow();
  return true;
}

void Simulator::fire(std::uint32_t index) {
  // Chunked slab cells never move, so the Task runs in place even if the
  // callback grows the slab or cancels its own handle.
  Slot& cell = slot_ref(index);
  if (cell.cancelled) {
    release_slot(index);
    return;
  }
  ++processed_;
  cell.fn();
  if (cell.interval == 0 || cell.cancelled) {
    // One-shot handles report inactive after firing, so owners can re-arm
    // timers by checking handle.active(); a periodic cancelled from inside
    // its own firing retires here too.
    release_slot(index);
  } else {
    cell.when = now_ + cell.interval;
    cell.seq = next_seq_++;
    push_slot(index);
  }
}

void Simulator::drain(SimTime limit) {
  stopped_ = false;
  while (!stopped_ && advance(limit)) {
    // Drain the cursor's bucket in place; a same-instant schedule from
    // the callback appends to its tail.
    const std::size_t index = bucket_of(cursor_);
    Bucket& bucket = ring_[index];
    const std::uint32_t slot = bucket.head;
    bucket.head = slot_ref(slot).next;
    if (bucket.head == kNoSlot) {
      bucket.tail = kNoSlot;
      unmark(index);
    }
    --size_;
    now_ = cursor_;  // cancelled entries still advance time
    fire(slot);
  }
}

void Simulator::run_until(SimTime limit) {
  drain(limit);
  if (!stopped_ && now_ < limit) now_ = limit;
}

}  // namespace netseer::sim
