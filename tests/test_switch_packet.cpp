// SwitchPacket against the Packet byte oracle.
//
// The switch parses frames into a SwitchPacket and deparses them by
// patching only the bytes a program changed. Packet (parse_backed, then
// serialize_pooled) is the oracle: for every frame and every program
// mutation, the two must emit identical bytes, and SwitchPacket::parse
// must throw CodecError on exactly the frames Packet::parse_backed
// rejects. The corpus covers every message type, plain UDP, refcount-
// shared (multicast) and copy-on-write split frames, scatter-gather
// fragments, a zero UDP checksum, and every single-bit flip of the header
// region of a request and of a response — the flips are how corrupted
// ("non-canonical") frames reach the Packet fallback inside SwitchPacket.
#include "wire/switch_packet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "wire/frame.hpp"
#include "wire/framebuf.hpp"

namespace netclone::wire {
namespace {

enum class Mutation {
  kNone,
  kIpDst,
  kCloSid,
  kReqIdSwitchId,
  kState,
};

constexpr Mutation kMutations[] = {Mutation::kNone, Mutation::kIpDst,
                                   Mutation::kCloSid,
                                   Mutation::kReqIdSwitchId,
                                   Mutation::kState};

const char* name_of(Mutation m) {
  switch (m) {
    case Mutation::kNone:
      return "none";
    case Mutation::kIpDst:
      return "ip.dst";
    case Mutation::kCloSid:
      return "clo+sid";
    case Mutation::kReqIdSwitchId:
      return "req_id+switch_id";
    case Mutation::kState:
      return "state";
  }
  return "?";
}

/// The header rewrites switch programs make, on either packet type. The
/// NetClone mutations leave a packet without the header untouched.
template <typename P>
void mutate(P& pkt, Mutation m) {
  switch (m) {
    case Mutation::kNone:
      return;
    case Mutation::kIpDst:
      pkt.ip.dst = Ipv4Address::from_octets(10, 0, 1, 103);
      return;
    default:
      break;
  }
  if (!pkt.has_netclone()) {
    return;
  }
  NetCloneHeader& nc = pkt.nc();
  switch (m) {
    case Mutation::kCloSid:
      nc.clo = CloneStatus::kClonedCopy;
      nc.sid = static_cast<std::uint8_t>(nc.sid + 5);
      return;
    case Mutation::kReqIdSwitchId:
      nc.req_id = 0xFFFF0000U ^ nc.req_id;
      nc.switch_id = 3;
      return;
    case Mutation::kState:
      nc.state = nc.state == 0 ? 0xFFFF : 0;
      return;
    default:
      return;
  }
}

struct Outcome {
  bool rejected = false;
  Frame bytes{};
};

/// The switch path: SwitchPacket::parse -> mutate -> deparse, exactly as
/// SwitchDevice runs it (the device hands its only handle over).
Outcome via_switch_packet(FrameHandle frame, Mutation m) {
  Outcome out;
  SwitchPacket pkt;
  try {
    pkt = SwitchPacket::parse(std::move(frame));
  } catch (const CodecError&) {
    out.rejected = true;
    return out;
  }
  mutate(pkt, m);
  out.bytes = pkt.deparse().to_frame();
  return out;
}

/// The oracle: Packet::parse_backed -> same mutation -> serialize_pooled,
/// with the frame handle released after the parse as the switch used to.
Outcome via_packet(FrameHandle frame, Mutation m) {
  Outcome out;
  Packet pkt;
  try {
    pkt = Packet::parse_backed(frame);
  } catch (const CodecError&) {
    out.rejected = true;
    return out;
  }
  frame.reset();
  mutate(pkt, m);
  out.bytes = pkt.serialize_pooled().to_frame();
  return out;
}

/// How the input frame is held when it reaches the switch.
enum class Shape {
  kContiguous,  // one unique pooled buffer
  kShared,      // another handle (a multicast sibling) shares the buffer
  kSplit,       // copy-on-write split: private head, shared payload tail
};

constexpr Shape kShapes[] = {Shape::kContiguous, Shape::kShared,
                             Shape::kSplit};

/// A fresh input of `shape` over `bytes`; `sibling` receives the second
/// handle of shared and split frames. The split boundary is `head_len`.
FrameHandle make_input(const Frame& bytes, Shape shape, std::size_t head_len,
                       FrameHandle& sibling) {
  FrameHandle frame = FrameHandle::copy_of(bytes);
  if (shape == Shape::kContiguous) {
    return frame;
  }
  sibling = frame;
  if (shape == Shape::kSplit) {
    (void)frame.writable_head(head_len);
    EXPECT_TRUE(frame.split());
  }
  return frame;
}

/// Runs both paths on fresh copies of one input and compares them. The
/// siblings of shared and split inputs must keep their original bytes.
void expect_matches_oracle(const std::function<FrameHandle(FrameHandle&)>&
                               make,
                           const std::string& what) {
  for (const Mutation m : kMutations) {
    FrameHandle sw_sibling;
    FrameHandle oracle_sibling;
    FrameHandle sw_in = make(sw_sibling);
    FrameHandle oracle_in = make(oracle_sibling);
    const Frame original = sw_in.to_frame();
    const Outcome sw = via_switch_packet(std::move(sw_in), m);
    const Outcome oracle = via_packet(std::move(oracle_in), m);
    ASSERT_EQ(sw.rejected, oracle.rejected)
        << what << ", mutation " << name_of(m);
    ASSERT_EQ(sw.bytes, oracle.bytes) << what << ", mutation " << name_of(m);
    if (sw_sibling) {
      ASSERT_EQ(sw_sibling.to_frame(), original)
          << what << ": a shared sibling saw the rewrite";
    }
  }
}

void expect_matches_oracle(const Frame& bytes, std::size_t head_len,
                           const std::string& what) {
  for (const Shape shape : kShapes) {
    expect_matches_oracle(
        [&](FrameHandle& sibling) {
          return make_input(bytes, shape, head_len, sibling);
        },
        what + ", shape " + std::to_string(static_cast<int>(shape)));
  }
}

Frame payload_of(std::size_t size) {
  Frame out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
  }
  return out;
}

Packet netclone_packet(MsgType type, std::size_t payload_size) {
  NetCloneHeader nc;
  nc.type = type;
  nc.grp = 5;
  nc.req_id = 0x01020304;
  nc.sid = 2;
  nc.state = 3;
  nc.idx = 1;
  nc.client_id = 7;
  nc.client_seq = 41;
  Packet pkt = make_netclone_packet(
      MacAddress::from_node(7), MacAddress::from_node(1),
      Ipv4Address::from_octets(10, 0, 0, 8),
      Ipv4Address::from_octets(10, 0, 255, 1), 40007, nc,
      payload_of(payload_size));
  if (type == MsgType::kResponse) {
    std::swap(pkt.ip.src, pkt.ip.dst);
    pkt.udp.src_port = kNetClonePort;
    pkt.udp.dst_port = 40007;
  }
  return pkt;
}

Packet request() { return netclone_packet(MsgType::kRequest, 32); }
Packet response() { return netclone_packet(MsgType::kResponse, 17); }

/// Plain UDP whose source port is one bit away from kNetClonePort and
/// whose payload starts with a valid NetClone header: a single flip turns
/// it into a NetClone packet with a longer header region.
Packet plain_udp() {
  Packet pkt = request();
  pkt.udp.src_port = kNetClonePort ^ 1U;
  pkt.udp.dst_port = 40002;
  Frame payload;
  ByteWriter w{payload};
  pkt.nc().serialize(w);
  w.bytes(payload_of(9));
  pkt.netclone.reset();
  pkt.payload = std::move(payload);
  return pkt;
}

TEST(SwitchPacket, MessageTypesMatchOracle) {
  for (const MsgType type :
       {MsgType::kRequest, MsgType::kResponse, MsgType::kWriteRequest,
        MsgType::kCancel, MsgType::kChainSync}) {
    for (const std::size_t size : {0U, 1U, 32U, 128U}) {
      const Packet pkt = netclone_packet(type, size);
      expect_matches_oracle(pkt.serialize(), pkt.header_size(),
                            "type " + std::to_string(static_cast<int>(type)) +
                                " payload " + std::to_string(size));
    }
  }
}

TEST(SwitchPacket, PlainUdpMatchesOracle) {
  const Packet pkt = plain_udp();
  ASSERT_FALSE(pkt.has_netclone());
  expect_matches_oracle(pkt.serialize(), pkt.header_size(), "plain udp");
}

TEST(SwitchPacket, ScatterGatherFragmentsMatchOracle) {
  const SharedPayload tail = SharedPayload::of(payload_of(333));
  for (std::uint8_t idx = 0; idx < 3; ++idx) {
    Packet pkt = response();
    pkt.nc().frag_idx = idx;
    pkt.nc().frag_count = 3;
    pkt.payload = tail.ref();
    expect_matches_oracle(
        [&](FrameHandle&) {
          FrameHandle frame = pkt.serialize_sg(tail);
          EXPECT_TRUE(frame.split());
          return frame;
        },
        "fragment " + std::to_string(idx));
    // Two frames of the same fragment in flight share the tail and the
    // head: the multicast case of a composed frame.
    expect_matches_oracle(
        [&](FrameHandle& sibling) {
          FrameHandle frame = pkt.serialize_sg(tail);
          sibling = frame;
          return frame;
        },
        "shared fragment " + std::to_string(idx));
  }
}

TEST(SwitchPacket, ZeroUdpChecksumMatchesOracle) {
  const Packet pkt = request();
  Frame bytes = pkt.serialize();
  poke_u16(bytes, 40, 0);  // RFC 768: "no checksum"
  expect_matches_oracle(bytes, pkt.header_size(), "zero udp checksum");
}

TEST(SwitchPacket, EveryHeaderBitFlipMatchesOracle) {
  for (const Packet& pkt : {request(), response(), plain_udp()}) {
    const Frame clean = pkt.serialize();
    const std::size_t flip_end = std::min<std::size_t>(63, clean.size());
    for (std::size_t off = 0; off < flip_end; ++off) {
      for (unsigned bit = 0; bit < 8; ++bit) {
        Frame bytes = clean;
        bytes[off] ^= static_cast<std::byte>(1U << bit);
        expect_matches_oracle(bytes, pkt.header_size(),
                              "byte " + std::to_string(off) + " bit " +
                                  std::to_string(bit));
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

TEST(SwitchPacket, RejectsExactlyWhatPacketRejects) {
  // A few frames each check of the parser rejects, next to the bit-flip
  // sweep above (which also reaches them).
  const Frame clean = request().serialize();
  std::vector<Frame> bad;
  bad.emplace_back(clean.begin(), clean.begin() + 13);  // short Ethernet
  bad.emplace_back(clean.begin(), clean.begin() + 40);  // short UDP
  bad.emplace_back(clean.begin(), clean.begin() + 62);  // short NetClone
  Frame not_ipv4 = clean;
  not_ipv4[12] = std::byte{0x86};
  bad.push_back(not_ipv4);
  Frame bad_type = clean;
  bad_type[42] = std::byte{9};
  bad.push_back(bad_type);
  Frame bad_frag = clean;
  bad_frag[62] = std::byte{0};  // frag_count 0
  bad.push_back(bad_frag);
  for (const Frame& bytes : bad) {
    EXPECT_THROW((void)SwitchPacket::parse(FrameHandle::copy_of(bytes)),
                 CodecError);
    EXPECT_THROW((void)Packet::parse_backed(FrameHandle::copy_of(bytes)),
                 CodecError);
  }
}

TEST(SwitchPacket, UntouchedFrameIsTheSameBuffer) {
  const FramePool& pool = FramePool::instance();
  for (const Packet& pkt : {request(), response(), plain_udp()}) {
    for (const Shape shape : kShapes) {
      FrameHandle sibling;
      FrameHandle in =
          make_input(pkt.serialize(), shape, pkt.header_size(), sibling);
      const FrameHandle keep = in;
      const std::uint64_t acquired = pool.stats().acquired;
      SwitchPacket view = SwitchPacket::parse(std::move(in));
      const FrameHandle out = view.deparse();
      EXPECT_EQ(pool.stats().acquired, acquired);
      EXPECT_TRUE(out.shares_body_with(keep));
      EXPECT_EQ(out.split(), keep.split());
      EXPECT_EQ(out.to_frame(), keep.to_frame());
    }
  }
}

TEST(SwitchPacket, ExclusiveFrameIsPatchedInPlace) {
  const FramePool& pool = FramePool::instance();
  const Packet pkt = request();
  FrameHandle in = FrameHandle::copy_of(pkt.serialize());
  const std::byte* body = in.bytes().data();
  const std::uint64_t acquired = pool.stats().acquired;
  SwitchPacket view = SwitchPacket::parse(std::move(in));
  view.ip.dst = Ipv4Address::from_octets(10, 0, 1, 104);
  view.nc().clo = CloneStatus::kClonedOriginal;
  const FrameHandle out = view.deparse();
  EXPECT_EQ(pool.stats().acquired, acquired);
  ASSERT_FALSE(out.split());
  EXPECT_EQ(out.bytes().data(), body);
  EXPECT_TRUE(verify_frame_checksums(out));
  const Packet parsed = Packet::parse(out.to_frame());
  EXPECT_EQ(parsed.ip.dst, Ipv4Address::from_octets(10, 0, 1, 104));
  EXPECT_EQ(parsed.nc().clo, CloneStatus::kClonedOriginal);
}

TEST(SwitchPacket, SharedFrameSplitsOnlyTheHeader) {
  const Packet pkt = request();
  const FrameHandle sibling = FrameHandle::copy_of(pkt.serialize());
  SwitchPacket view = SwitchPacket::parse(sibling);
  view.nc().sid = 9;
  const FrameHandle out = view.deparse();
  ASSERT_TRUE(out.split());
  EXPECT_EQ(out.head_bytes().size(), pkt.header_size());
  EXPECT_TRUE(out.shares_body_with(sibling));
  EXPECT_EQ(sibling.to_frame(), pkt.serialize());
  EXPECT_TRUE(verify_frame_checksums(out));
}

TEST(SwitchPacket, ReadsProgramFields) {
  const Packet pkt = response();
  const SwitchPacket view =
      SwitchPacket::parse(FrameHandle::copy_of(pkt.serialize()));
  EXPECT_EQ(view.ip.src, pkt.ip.src);
  EXPECT_EQ(view.ip.dst, pkt.ip.dst);
  ASSERT_TRUE(view.has_netclone());
  EXPECT_EQ(view.nc().req_id, pkt.nc().req_id);
  EXPECT_TRUE(view.nc().is_response());
  EXPECT_EQ(view.wire_size(), pkt.wire_size());

  const SwitchPacket udp =
      SwitchPacket::parse(FrameHandle::copy_of(plain_udp().serialize()));
  EXPECT_FALSE(udp.has_netclone());
  EXPECT_THROW((void)udp.nc(), CheckFailure);
}

TEST(SwitchPacket, UdpLengthFlipIsRebuiltAndHealed) {
  // Pins today's bytes for a frame whose UDP length a corrupt impairment
  // flipped. Such a frame is non-canonical, and the Packet route rebuilds
  // it from scratch: the UDP length is restored and the UDP checksum is
  // recomputed over the payload, so the frame leaves the switch checksum-
  // clean although it arrived corrupt. A hardware deparser would forward
  // it still corrupt for the receiving host to drop.
  const Packet pkt = request();
  Frame bytes = pkt.serialize();
  bytes[39] ^= std::byte{0x04};
  ASSERT_FALSE(verify_frame_checksums(FrameHandle::copy_of(bytes)));
  const Outcome out =
      via_switch_packet(FrameHandle::copy_of(bytes), Mutation::kNone);
  ASSERT_FALSE(out.rejected);
  EXPECT_EQ(out.bytes, pkt.serialize());
  EXPECT_TRUE(verify_frame_checksums(FrameHandle::copy_of(out.bytes)));
}

}  // namespace
}  // namespace netclone::wire
