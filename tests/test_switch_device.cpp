#include "sim/simulator.hpp"
#include "pisa/switch_device.hpp"

#include <gtest/gtest.h>

#include "phys/topology.hpp"
#include "pisa/resources.hpp"
#include "test_util.hpp"

namespace netclone::pisa {
namespace {

using namespace netclone::literals;
using netclone::testing::CaptureNode;
using netclone::testing::make_request;

/// Forwards every packet to a fixed port; counts passes in a register.
class EchoProgram : public SwitchProgram {
 public:
  EchoProgram(Pipeline& pipeline, std::size_t out_port)
      : counter_(pipeline, "count", 0), out_port_(out_port) {}

  void on_ingress(wire::SwitchPacket&, PacketMetadata& md,
                  PipelinePass& pass) override {
    (void)counter_.execute(pass, [](std::uint32_t& c) { return ++c; });
    md.egress_port = out_port_;
  }
  [[nodiscard]] const char* name() const override { return "Echo"; }
  [[nodiscard]] std::uint32_t count() const { return counter_.peek(); }

 private:
  RegisterScalar<std::uint32_t> counter_;
  std::size_t out_port_;
};

/// Multicasts requests to group 1, drops responses.
class McastProgram : public SwitchProgram {
 public:
  void on_ingress(wire::SwitchPacket& pkt, PacketMetadata& md,
                  PipelinePass&) override {
    if (pkt.has_netclone() && pkt.nc().is_response()) {
      md.drop = true;
      return;
    }
    md.multicast_group = 1;
  }
  [[nodiscard]] const char* name() const override { return "Mcast"; }
};

/// First pass: send to the loopback port. Recirculated pass: forward to
/// port `out`, stamping SID so the test can observe the second pass.
class RecircProgram : public SwitchProgram {
 public:
  RecircProgram(std::size_t loopback, std::size_t out)
      : loopback_(loopback), out_(out) {}

  void on_ingress(wire::SwitchPacket& pkt, PacketMetadata& md,
                  PipelinePass&) override {
    if (md.is_recirculated) {
      pkt.nc().sid = 99;
      md.egress_port = out_;
    } else {
      md.egress_port = loopback_;
    }
  }
  [[nodiscard]] const char* name() const override { return "Recirc"; }

 private:
  std::size_t loopback_;
  std::size_t out_;
};

struct Rig {
  sim::Simulator sim;
  phys::Topology topo{sim};
  pisa::SwitchDevice* sw = nullptr;
  CaptureNode* a = nullptr;
  CaptureNode* b = nullptr;
  std::size_t port_a = 0;  // switch-side ports
  std::size_t port_b = 0;

  Rig() {
    sw = &topo.add_node<SwitchDevice>(sim, "sw");
    a = &topo.add_node<CaptureNode>("a");
    b = &topo.add_node<CaptureNode>("b");
    port_a = topo.connect(*a, *sw).port_on_b;
    port_b = topo.connect(*b, *sw).port_on_b;
  }
};

TEST(SwitchDevice, ForwardsThroughProgramWithPipelineLatency) {
  Rig rig;
  auto program =
      std::make_shared<EchoProgram>(rig.sw->pipeline(), rig.port_b);
  rig.sw->load_program(program);

  rig.a->transmit(0, make_request(0, 1, 0, 0).serialize());
  rig.sim.run();
  ASSERT_EQ(rig.b->received.size(), 1U);
  EXPECT_EQ(program->count(), 1U);
  EXPECT_EQ(rig.sw->stats().rx_frames, 1U);
  EXPECT_EQ(rig.sw->stats().tx_frames, 1U);
  // Two link hops (850 ns each + serialization) + 400 ns pipeline.
  EXPECT_GT(rig.sim.now(), 2100_ns);
}

TEST(SwitchDevice, NoProgramDropsEverything) {
  Rig rig;
  rig.a->transmit(0, make_request(0, 1, 0, 0).serialize());
  rig.sim.run();
  EXPECT_TRUE(rig.b->received.empty());
  EXPECT_EQ(rig.sw->stats().dropped_while_failed, 1U);
}

TEST(SwitchDevice, ProgramWithoutDecisionCountsDrop) {
  class NullProgram : public SwitchProgram {
    void on_ingress(wire::SwitchPacket&, PacketMetadata&,
                    PipelinePass&) override {}
    [[nodiscard]] const char* name() const override { return "Null"; }
  };
  Rig rig;
  rig.sw->load_program(std::make_shared<NullProgram>());
  rig.a->transmit(0, make_request(0, 1, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.sw->stats().dropped_by_program, 1U);
}

TEST(SwitchDevice, ParseErrorsAreCounted) {
  Rig rig;
  rig.sw->load_program(std::make_shared<EchoProgram>(rig.sw->pipeline(),
                                                     rig.port_b));
  rig.a->transmit(0, wire::Frame(10, std::byte{0}));
  rig.sim.run();
  EXPECT_EQ(rig.sw->stats().parse_errors, 1U);
  EXPECT_TRUE(rig.b->received.empty());
}

TEST(SwitchDevice, MulticastCopiesToAllGroupPorts) {
  Rig rig;
  rig.sw->load_program(std::make_shared<McastProgram>());
  rig.sw->configure_multicast_group(1, {rig.port_a, rig.port_b});
  rig.a->transmit(0, make_request(0, 7, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.a->received.size(), 1U);
  EXPECT_EQ(rig.b->received.size(), 1U);
  EXPECT_EQ(rig.sw->stats().multicast_copies, 1U);
  // Copies are identical on the wire.
  EXPECT_EQ(rig.a->received[0].frame, rig.b->received[0].frame);
}

TEST(SwitchDevice, MissingMulticastGroupDrops) {
  Rig rig;
  rig.sw->load_program(std::make_shared<McastProgram>());
  rig.a->transmit(0, make_request(0, 7, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.sw->stats().dropped_by_program, 1U);
}

TEST(SwitchDevice, RecirculationReentersIngress) {
  Rig rig;
  const std::size_t loopback = rig.sw->add_internal_port();
  rig.sw->set_loopback_port(loopback);
  rig.sw->load_program(
      std::make_shared<RecircProgram>(loopback, rig.port_b));

  rig.a->transmit(0, make_request(0, 5, 0, 0).serialize());
  rig.sim.run();
  ASSERT_EQ(rig.b->received.size(), 1U);
  const auto pkt = wire::Packet::parse(rig.b->received[0].frame);
  EXPECT_EQ(pkt.nc().sid, 99);  // stamped on the recirculated pass
  EXPECT_EQ(rig.sw->stats().recirculated, 1U);
  EXPECT_EQ(rig.sw->stats().rx_frames, 2U);  // ingress seen twice
}

TEST(SwitchDevice, FailureDropsAndWipesSoftState) {
  Rig rig;
  auto program =
      std::make_shared<EchoProgram>(rig.sw->pipeline(), rig.port_b);
  rig.sw->load_program(program);

  rig.a->transmit(0, make_request(0, 1, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(program->count(), 1U);

  rig.sw->fail();
  EXPECT_TRUE(rig.sw->failed());
  EXPECT_EQ(program->count(), 0U);  // registers wiped on reboot

  rig.a->transmit(0, make_request(0, 2, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.b->received.size(), 1U);  // still only the pre-failure one
  EXPECT_GE(rig.sw->stats().dropped_while_failed, 1U);

  rig.sw->recover();
  rig.a->transmit(0, make_request(0, 3, 0, 0).serialize());
  rig.sim.run();
  EXPECT_EQ(rig.b->received.size(), 2U);
  EXPECT_EQ(program->count(), 1U);
}

TEST(SwitchDevice, DoubleFailAndRecoverAreIdempotent) {
  Rig rig;
  rig.sw->fail();
  rig.sw->fail();
  rig.sw->recover();
  rig.sw->recover();
  EXPECT_FALSE(rig.sw->failed());
}

}  // namespace
}  // namespace netclone::pisa
