#include "wire/switch_packet.hpp"

#include <span>
#include <utility>

#include "common/check.hpp"
#include "wire/checksum_delta.hpp"
#include "wire/frame.hpp"

namespace netclone::wire {

using detail::FieldDelta;
using detail::kIpFragOff;
using detail::kIpLenOff;
using detail::kIpOff;
using detail::kIpSrcOff;
using detail::kNcOff;
using detail::kUdpCsumOff;
using detail::kUdpLenOff;
using detail::kUdpOff;

SwitchPacket SwitchPacket::parse(FrameHandle frame) {
  // The same checks, in the same order and over the same bytes, as
  // Packet::parse_backed: a split frame is parsed from its private head
  // alone (a header that runs past it is an underrun there too).
  const bool split = frame.split();
  const std::span<const std::byte> head =
      split ? frame.head_bytes() : frame.bytes();
  ByteReader r{head};
  const std::byte* eth = r.raw(EthernetHeader::kSize);
  if (load_u16(eth, 12) != static_cast<std::uint16_t>(EtherType::kIpv4)) {
    throw CodecError{"not an IPv4 frame"};
  }
  const std::byte* ip = r.raw(Ipv4Header::kSize);
  if (load_u8(ip, 0) != 0x45) {
    throw CodecError{"unsupported IPv4 version/IHL"};
  }
  if (load_u8(ip, 9) != static_cast<std::uint8_t>(IpProto::kUdp)) {
    throw CodecError{"not a UDP packet"};
  }
  const std::byte* udp = r.raw(UdpHeader::kSize);
  SwitchPacket pkt;
  if (load_u16(udp, 0) == kNetClonePort || load_u16(udp, 2) == kNetClonePort) {
    pkt.netclone_ = NetCloneHeader::parse(r);
    pkt.has_netclone_ = true;
  }
  pkt.header_len_ = static_cast<std::uint8_t>(r.offset());
  pkt.ip.src.value = load_u32(ip, 12);
  pkt.ip.dst.value = load_u32(ip, 16);

  // Canonical: Packet's deparser would rewrite nothing in the header
  // region but the program's fields and the two checksums.
  const std::byte* o = head.data();
  const std::size_t total = frame.size();
  pkt.canonical_ =
      (!split || head.size() == pkt.header_len_) &&
      load_u16(o, kUdpCsumOff) != 0 &&
      load_u16(o, kIpLenOff) == static_cast<std::uint16_t>(total - kIpOff) &&
      load_u16(o, kUdpLenOff) == static_cast<std::uint16_t>(total - kUdpOff) &&
      load_u16(o, kIpFragOff) == 0;
  pkt.frame_ = std::move(frame);
  return pkt;
}

NetCloneHeader& SwitchPacket::nc() {
  NETCLONE_CHECK(has_netclone_, "packet has no NetClone header");
  return netclone_;
}

const NetCloneHeader& SwitchPacket::nc() const {
  NETCLONE_CHECK(has_netclone_, "packet has no NetClone header");
  return netclone_;
}

FrameHandle SwitchPacket::deparse() {
  if (!canonical_) [[unlikely]] {
    return deparse_via_packet();
  }
  const std::byte* o =
      frame_.split() ? frame_.head_bytes().data() : frame_.bytes().data();
  // IP src/dst feed both checksums (the UDP one through its
  // pseudo-header); the NetClone header only the UDP one.
  FieldDelta addr{o};
  addr.u32(kIpSrcOff, ip.src.value);
  addr.u32(kIpSrcOff + 4, ip.dst.value);
  FieldDelta l4{o};
  if (has_netclone_) {
    l4.netclone(netclone_);
  }
  if (!(addr.dirty || l4.dirty)) {
    return std::move(frame_);  // untouched: forward the very same buffer
  }
  const std::uint16_t ip_csum = detail::patched_ip_checksum(
      load_u16(o, detail::kIpCsumOff), addr.sum);
  const std::uint16_t udp_csum = detail::patched_udp_checksum(
      load_u16(o, kUdpCsumOff), l4.sum + addr.sum);

  // Copy-on-write: this packet holds the only reference it owns, so a
  // body shared beyond it (multicast copies in flight) gets a private
  // header region and keeps sharing the payload.
  std::byte* dst =
      frame_.writable_head(header_len_, /*tolerated_body_refs=*/1);
  store_u16(dst, detail::kIpCsumOff, ip_csum);
  if (addr.dirty) {
    store_u32(dst, kIpSrcOff, ip.src.value);
    store_u32(dst, kIpSrcOff + 4, ip.dst.value);
  }
  store_u16(dst, kUdpCsumOff, udp_csum);
  if (l4.dirty) {
    ByteWriter w{std::span<std::byte>{dst + kNcOff, NetCloneHeader::kSize}};
    netclone_.serialize(w);
  }
  return std::move(frame_);
}

FrameHandle SwitchPacket::deparse_via_packet() {
  Packet pkt = Packet::parse_backed(frame_);
  frame_.reset();  // the packet's backing now holds the only references
  pkt.ip.src = ip.src;
  pkt.ip.dst = ip.dst;
  if (has_netclone_) {
    pkt.nc() = netclone_;
  }
  return pkt.serialize_pooled();
}

}  // namespace netclone::wire
