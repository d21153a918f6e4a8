// Incremental IPv4/UDP checksum updates over a serialized frame's header
// region (RFC 1624), shared by the two deparsers: Packet::serialize_pooled
// and SwitchPacket::deparse. Both must derive bit-identical checksums from
// the same field changes, so both accumulate through FieldDelta.
#pragma once

#include <cstddef>
#include <cstdint>

#include "wire/bytes.hpp"
#include "wire/ethernet.hpp"
#include "wire/ipv4.hpp"
#include "wire/netclone_header.hpp"
#include "wire/udp.hpp"

namespace netclone::wire::detail {

// Absolute byte offsets within a serialized frame.
inline constexpr std::size_t kIpOff = EthernetHeader::kSize;        // 14
inline constexpr std::size_t kUdpOff = kIpOff + Ipv4Header::kSize;  // 34
inline constexpr std::size_t kIpLenOff = kIpOff + 2;                // 16
inline constexpr std::size_t kIpFragOff = kIpOff + 6;               // 20
inline constexpr std::size_t kIpProtoOff = kIpOff + 9;              // 23
inline constexpr std::size_t kIpCsumOff = kIpOff + 10;              // 24
inline constexpr std::size_t kIpSrcOff = kIpOff + 12;               // 26
inline constexpr std::size_t kUdpLenOff = kUdpOff + 4;              // 38
inline constexpr std::size_t kUdpCsumOff = kUdpOff + 6;             // 40
inline constexpr std::size_t kNcOff = kUdpOff + UdpHeader::kSize;   // 42

/// Folds a 32-bit accumulator and returns its one's complement — the final
/// step of every internet-checksum computation here.
inline std::uint16_t fold_complement(std::uint32_t sum) {
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFFU) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFFU);
}

/// Compares header fields against their wire bytes and accumulates RFC 1624
/// (eqn 3) checksum deltas: per changed byte m -> m', add (~m + m') at the
/// byte's position within its 16-bit word (headers start at even frame
/// offsets, so the position is the offset parity). The unchanged partner
/// byte of a half-dirty word contributes (~x + x) = 0xFFFF == 0 in one's
/// complement, which is why per-byte and per-word accumulation agree.
struct FieldDelta {
  const std::byte* old;
  std::uint32_t sum = 0;
  bool dirty = false;

  void u8(std::size_t off, std::uint8_t v) {
    const std::uint8_t o = load_u8(old, off);
    if (o == v) {
      return;
    }
    dirty = true;
    const std::uint32_t shift = (off & 1U) != 0 ? 0 : 8;
    sum += (~(static_cast<std::uint32_t>(o) << shift) & 0xFFFFU) +
           (static_cast<std::uint32_t>(v) << shift);
  }
  void u16(std::size_t off, std::uint16_t v) {
    if ((off & 1U) == 0) {
      const std::uint16_t o = load_u16(old, off);
      if (o == v) {
        return;
      }
      dirty = true;
      sum += (~static_cast<std::uint32_t>(o) & 0xFFFFU) + v;
    } else {
      u8(off, static_cast<std::uint8_t>(v >> 8));
      u8(off + 1, static_cast<std::uint8_t>(v & 0xFFU));
    }
  }
  void u32(std::size_t off, std::uint32_t v) {
    u16(off, static_cast<std::uint16_t>(v >> 16));
    u16(off + 2, static_cast<std::uint16_t>(v & 0xFFFFU));
  }

  /// Every NetClone header field at its wire offset (kNcOff onwards).
  void netclone(const NetCloneHeader& h) {
    u8(kNcOff + 0, static_cast<std::uint8_t>(h.type));
    u8(kNcOff + 1, static_cast<std::uint8_t>(h.clo));
    u16(kNcOff + 2, h.grp);
    u32(kNcOff + 4, h.req_id);
    u8(kNcOff + 8, h.sid);
    u16(kNcOff + 9, h.state);
    u8(kNcOff + 11, h.idx);
    u8(kNcOff + 12, h.switch_id);
    u16(kNcOff + 13, h.client_id);
    u32(kNcOff + 15, h.client_seq);
    u8(kNcOff + 19, h.frag_idx);
    u8(kNcOff + 20, h.frag_count);
  }
};

/// The RFC 1624 (eqn 3) update HC' = ~(~HC + delta). A zero delta keeps
/// the wire value even when fields changed.
inline std::uint16_t patched_ip_checksum(std::uint16_t old,
                                         std::uint32_t delta) {
  return delta != 0 ? fold_complement((~old & 0xFFFFU) + delta) : old;
}

/// As patched_ip_checksum, but a computed zero goes on the wire as
/// all-ones (RFC 768: zero means "no checksum").
inline std::uint16_t patched_udp_checksum(std::uint16_t old,
                                          std::uint32_t delta) {
  if (delta == 0) {
    return old;
  }
  const std::uint16_t csum = fold_complement((~old & 0xFFFFU) + delta);
  return csum == 0 ? 0xFFFF : csum;
}

}  // namespace netclone::wire::detail
