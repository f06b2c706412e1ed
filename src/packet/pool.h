#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "packet/packet.h"
#include "util/annotations.h"

namespace netseer::packet {

class Pool;

/// Move-only handle to a pooled in-flight Packet, and the unit every
/// network hop passes: a frame gets one slot where it is created
/// (Host::send, Switch::inject, a switch's PFC generator) and keeps it
/// through every TX queue, link delivery and pipeline-latency hop until
/// its last hop drops the handle. Two pointers (16 bytes), so a
/// scheduled hop capturing `this` plus a PooledPacket stays inside
/// sim::Task's inline buffer — the frame rides the event queue without a
/// heap allocation or a Packet copy per hop. The slot returns to the pool
/// when the handle dies.
class PooledPacket {
 public:
  PooledPacket() = default;
  PooledPacket(PooledPacket&& other) noexcept : pool_(other.pool_), pkt_(other.pkt_) {
    other.pool_ = nullptr;
    other.pkt_ = nullptr;
  }
  PooledPacket& operator=(PooledPacket&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      pkt_ = other.pkt_;
      other.pool_ = nullptr;
      other.pkt_ = nullptr;
    }
    return *this;
  }
  PooledPacket(const PooledPacket&) = delete;
  PooledPacket& operator=(const PooledPacket&) = delete;
  ~PooledPacket() { reset(); }

  [[nodiscard]] explicit operator bool() const { return pkt_ != nullptr; }
  [[nodiscard]] Packet& operator*() { return *pkt_; }
  [[nodiscard]] Packet* operator->() { return pkt_; }

  /// Return the slot to the pool now instead of at destruction. Any
  /// Packet& taken from this handle dangles afterwards.
  NETSEER_HOT void reset();

 private:
  friend class Pool;
  PooledPacket(Pool* pool, Packet* pkt) : pool_(pool), pkt_(pkt) {}

  Pool* pool_ = nullptr;
  Packet* pkt_ = nullptr;
};

/// Recycling arena for in-flight Packet buffers. Slots live in chunked
/// slabs with stable addresses and cycle through a LIFO free list, so the
/// steady-state hot path reuses the same few cache-warm slots and never
/// touches the allocator. acquires() counts frames created: a frame
/// keeps its slot for its whole trip.
///
/// Under AddressSanitizer a free slot is poisoned, so reading a frame
/// through a Packet& that outlived its handle is reported as
/// use-after-poison instead of silently reading a recycled frame.
///
/// Single-threaded, like the simulator it feeds: acquire() and every
/// handle release must happen on one thread.
/// hit-rate telemetry: reuses()/acquires() is exported as the
/// pool.hit_rate gauge (basis points) — a low value means the in-flight
/// population keeps growing, i.e. the pool is being used somewhere
/// packets are parked long-term.
class Pool {
 public:
  static constexpr std::size_t kChunkPackets = 64;

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool();

  /// Process-wide pool every frame in the simulation lives in.
  [[nodiscard]] static Pool& local();

  /// Park `pkt` in a recycled slot, stamp its frame facts (flow hash and
  /// unshimmed length, see Packet) and get the small handle for it.
  [[nodiscard]] NETSEER_HOT PooledPacket acquire(Packet&& pkt);

  [[nodiscard]] std::uint64_t acquires() const { return acquires_; }
  /// Acquires served from the free list (no new slot materialized).
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }
  /// Distinct slots ever materialized (high-water in-flight population).
  [[nodiscard]] std::size_t slots() const { return slot_count_; }
  [[nodiscard]] std::size_t free_slots() const { return free_.size(); }

 private:
  friend class PooledPacket;
  /// Free-list miss: carve the next slot, growing a slab when the
  /// current one fills. The only allocating branch of acquire().
  NETSEER_HOT_ALLOW_INIT Packet* materialize_slot();
  NETSEER_HOT void release(Packet* pkt);

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_;
  std::size_t slot_count_ = 0;
  std::uint64_t acquires_ = 0;
  std::uint64_t reuses_ = 0;
};

inline void PooledPacket::reset() {
  if (pool_ != nullptr) {
    pool_->release(pkt_);
    pool_ = nullptr;
    pkt_ = nullptr;
  }
}

}  // namespace netseer::packet
