#include "packet/pool.h"

#include <sanitizer/asan_interface.h>

namespace netseer::packet {

Pool::~Pool() {
  // The slab destructor runs ~Packet over free slots too.
  for (const auto& chunk : chunks_) {
    ASAN_UNPOISON_MEMORY_REGION(chunk.get(), kChunkPackets * sizeof(Packet));
  }
}

Pool& Pool::local() {
  static Pool pool;
  return pool;
}

PooledPacket Pool::acquire(Packet&& pkt) {
  ++acquires_;
  Packet* slot;
  if (!free_.empty()) {
    ++reuses_;
    slot = free_.back();
    free_.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(slot, sizeof(Packet));
  } else {
    slot = materialize_slot();
  }
  *slot = std::move(pkt);
  slot->stamp();
  return PooledPacket(this, slot);
}

Packet* Pool::materialize_slot() {
  const std::size_t index = slot_count_++;
  if (index % kChunkPackets == 0) {
    chunks_.push_back(std::make_unique<Packet[]>(kChunkPackets));
  }
  return &chunks_.back()[index % kChunkPackets];
}

void Pool::release(Packet* pkt) {
  // Drop the (possibly shared) control payload now so pooling never
  // extends a payload's lifetime; header fields are plain values and get
  // overwritten wholesale by the next acquire.
  pkt->control.reset();
  ASAN_POISON_MEMORY_REGION(pkt, sizeof(Packet));
  // NETSEER_LINT_ALLOW(hot-alloc): free-list push reuses capacity at steady
  // state; growth is bounded by the high-water in-flight population.
  free_.push_back(pkt);
}

}  // namespace netseer::packet
