// A node in the simulated topology: a host NIC endpoint or a switch.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "wire/framebuf.hpp"

namespace netclone::phys {

class Link;

class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Called by a link when a frame arrives on `port`. The handle may share
  /// its bytes with other in-flight copies of the frame (multicast); treat
  /// the bytes as immutable and mutate only via Packet's copy-on-write
  /// serialize path. (wire::Frame converts implicitly, so legacy callers
  /// passing owned vectors still work.)
  virtual void handle_frame(std::size_t port, wire::FrameHandle frame) = 0;

  /// Registers an egress link and returns the new port index. Called by
  /// Topology while wiring; a node's ingress port i receives from the peer
  /// wired at the same index.
  std::size_t attach_egress(Link* link);

  [[nodiscard]] std::size_t port_count() const { return egress_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  /// Transmits a frame out of `port`. Silently counts (and drops) frames
  /// sent on an unattached port — that models unplugged cables, not a bug.
  void send(std::size_t port, wire::FrameHandle frame);

  /// Transmits a run of frames out of `port` back-to-back: one egress
  /// lookup for the whole batch, and the link's batched FIFO arms at most
  /// one delivery event for all of them. The handles are moved out of
  /// `frames`. Fragmented responses use this.
  void send_burst(std::size_t port, std::span<wire::FrameHandle> frames);

 private:
  std::string name_;
  std::vector<Link*> egress_;
};

}  // namespace netclone::phys
