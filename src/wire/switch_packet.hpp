// The switch pipeline's view of a frame: parser and deparser over the
// pooled bytes, with no Packet in between.
//
// Switch programs read and write exactly three things: the IPv4 source
// and destination addresses and the NetClone header. SwitchPacket loads
// only those from the frame, lets the program edit them as plain fields,
// and deparse() writes back just what changed — the way a P4 deparser
// edits fields in place over the packet buffer. An untouched frame comes
// back as the same buffer (no copy, no pool acquire); a changed one gets
// its dirty header bytes rewritten in place (copy-on-write when the
// buffer is shared) with RFC 1624 incremental IPv4/UDP checksums.
//
// Parsing validates the header stack exactly as Packet::parse_backed does
// and throws CodecError on exactly the frames it rejects. A frame whose
// header region Packet would rewrite beyond the program's fields — a zero
// UDP checksum, IP/UDP lengths that disagree with the frame size, non-zero
// IP flags/fragment bytes, or a copy-on-write split that is not at the
// header boundary — is "non-canonical"; only corruption produces one. Its
// deparse goes through Packet (parse_backed, the program's fields copied
// over, serialize_pooled), so every frame leaves the switch with the same
// bytes as Packet would emit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wire/framebuf.hpp"
#include "wire/ipv4.hpp"
#include "wire/netclone_header.hpp"

namespace netclone::wire {

class SwitchPacket {
 public:
  /// The IPv4 fields a switch program may read and rewrite.
  struct Addresses {
    Ipv4Address src{};
    Ipv4Address dst{};
  };
  Addresses ip{};

  SwitchPacket() = default;

  /// Takes over `frame` and loads the program-visible fields. Throws
  /// CodecError on exactly the frames Packet::parse_backed rejects.
  [[nodiscard]] static SwitchPacket parse(FrameHandle frame);

  [[nodiscard]] bool has_netclone() const { return has_netclone_; }
  /// Mutable access that fails loudly instead of reading absent state.
  [[nodiscard]] NetCloneHeader& nc();
  [[nodiscard]] const NetCloneHeader& nc() const;

  /// Total wire size in bytes (the layout never changes in the switch).
  [[nodiscard]] std::size_t wire_size() const { return frame_.size(); }

  /// Writes the fields back and releases the frame: the same buffer when
  /// nothing changed, patched in place otherwise. Call at most once.
  [[nodiscard]] FrameHandle deparse();

 private:
  /// The non-canonical route: deparse through Packet.
  [[nodiscard]] FrameHandle deparse_via_packet();

  FrameHandle frame_{};
  NetCloneHeader netclone_{};
  std::uint8_t header_len_ = 0;
  bool has_netclone_ = false;
  bool canonical_ = false;
};

}  // namespace netclone::wire
