#pragma once

#include <string>

#include "packet/pool.h"
#include "util/ids.h"
#include "util/time.h"

namespace netseer::net {

/// Anything that can accept a packet (a link endpoint, a port, a sink in a
/// test). Decouples senders from the concrete receiver type. Frames move
/// between hops as pool handles: the sink takes ownership of the slot.
/// send() is called when the frame's first bit leaves; its last bit
/// leaves `serialization` later.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void send(packet::PooledPacket pkt, util::SimDuration serialization) = 0;
};

/// A device attached to the network: switch, host, or collector.
/// Frames arrive via receive() with the local port they came in on; the
/// node owns the frame's pool slot from then on.
class Node {
 public:
  Node(util::NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] util::NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  virtual void receive(packet::PooledPacket pkt, util::PortId in_port) = 0;

 private:
  util::NodeId id_;
  std::string name_;
};

}  // namespace netseer::net
