#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/netclone_program.hpp"
#include "host/addressing.hpp"
#include "phys/node.hpp"
#include "phys/topology.hpp"
#include "pisa/switch_device.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "wire/frame.hpp"

namespace perfbench {

namespace nc = netclone;

namespace {

constexpr std::size_t kRequests = 2048;
constexpr std::size_t kServers = 6;
constexpr std::size_t kClients = 2;
/// 2·C(6,2) candidate groups, as the controller installs for 6 servers.
constexpr std::uint16_t kGroups = 30;
/// Frames handed to a link before the rig drains it (well below the
/// 1024-frame drop-tail queue).
constexpr std::size_t kChunk = 32;
constexpr std::size_t kEvents = 4096;

/// Keeps timed results observable so the loops are not optimized away.
volatile std::uint64_t g_keep = 0;

enum Rig : std::uint8_t { kBuild, kParse, kVerify, kHop, kPass, kEvent };

/// One workload request as its client would stamp it.
struct Request {
  nc::wire::RpcRequest rpc;
  nc::wire::NetCloneHeader header;
  std::uint16_t client = 0;
};

nc::wire::FrameHandle build_request(const Request& r) {
  nc::wire::Packet pkt = nc::wire::make_netclone_packet(
      nc::wire::MacAddress::from_node(0x0200U + r.client),
      nc::wire::MacAddress::broadcast(), nc::host::client_ip(r.client),
      nc::host::service_vip(), static_cast<std::uint16_t>(40000 + r.client),
      r.header, r.rpc.to_frame());
  return pkt.serialize_pooled();
}

/// A server's response to a request header, built the way
/// host::Server::on_complete builds it.
nc::wire::FrameHandle build_response(const nc::wire::NetCloneHeader& req,
                                     const nc::wire::RpcResponse& body,
                                     std::uint8_t sid, std::uint16_t state) {
  const std::uint16_t client = req.client_id;
  nc::wire::Packet resp;
  resp.eth.src = nc::wire::MacAddress::from_node(0x0100U + sid);
  resp.eth.dst = nc::wire::MacAddress::from_node(0x0200U + client);
  resp.ip.src = nc::host::server_ip(static_cast<nc::ServerId>(sid));
  resp.ip.dst = nc::host::client_ip(client);
  resp.udp.src_port = nc::wire::kNetClonePort;
  resp.udp.dst_port = static_cast<std::uint16_t>(40000 + client);
  nc::wire::NetCloneHeader h = req;
  h.type = nc::wire::MsgType::kResponse;
  h.sid = sid;
  h.state = state;
  h.frag_idx = 0;
  h.frag_count = 1;
  resp.netclone = h;
  const nc::wire::SharedPayload tail =
      nc::wire::SharedPayload::of(body.to_frame());
  resp.payload = tail.ref();
  return resp.serialize_sg(tail);
}

/// The workload's own requests and service responses.
struct FrameSet {
  std::vector<Request> requests;
  std::vector<nc::wire::RpcResponse> bodies;
  std::vector<nc::wire::FrameHandle> frames;  // request, response, ...
};

FrameSet generate(const Inputs& inputs, std::uint64_t seed) {
  FrameSet set;
  nc::Rng rng{seed};
  for (std::size_t i = 0; i < kRequests; ++i) {
    Request r;
    r.rpc = inputs.factory->make(rng);
    r.client = static_cast<std::uint16_t>(i % kClients);
    r.header.type = r.rpc.op == nc::wire::RpcOp::kSet
                        ? nc::wire::MsgType::kWriteRequest
                        : nc::wire::MsgType::kRequest;
    r.header.clo = nc::wire::CloneStatus::kNotCloned;
    r.header.frag_count = 1;
    r.header.grp = static_cast<std::uint16_t>(rng.next_below(kGroups));
    r.header.idx = static_cast<std::uint8_t>(rng.next_below(2));
    r.header.client_id = r.client;
    r.header.client_seq = static_cast<std::uint32_t>(i + 1);
    nc::wire::RpcResponse body = inputs.service->execute(r.rpc);
    const nc::SimTime service = inputs.service->execution_time(r.rpc, rng);
    body.service_ns = static_cast<std::uint32_t>(service.ns());
    set.frames.push_back(build_request(r));
    set.frames.push_back(build_response(
        r.header, body, static_cast<std::uint8_t>(i % kServers), 0));
    set.requests.push_back(r);
    set.bodies.push_back(std::move(body));
  }
  return set;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed batch of a rig: `calls` calls took `ns`, of which
/// `excluded_ns` belong to another layer.
struct Batch {
  std::uint64_t calls = 0;
  double ns = 0.0;
  double excluded_ns = 0.0;
};

/// Runs `batch` until `budget_s` is spent, at least three times, and
/// returns the median ns per call.
double median_ns_per_call(double budget_s, Tracer* tracer, Rig rig,
                          const std::function<Batch()>& batch) {
  std::vector<double> samples;
  const double deadline = now_s() + budget_s;
  while (samples.size() < 3 || now_s() < deadline) {
    const std::uint64_t span_start = tracer != nullptr ? tracer->now_ns() : 0;
    const Batch b = batch();
    if (tracer != nullptr) {
      tracer->record(SpanKind::kReplay, rig, span_start, tracer->now_ns());
    }
    const auto calls = std::max<std::uint64_t>(b.calls, 1);
    samples.push_back((b.ns - b.excluded_ns) / static_cast<double>(calls));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Host nanoseconds `fn` takes.
template <typename Fn>
double timed(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// A host stand-in: counts what arrives and, when armed, hands each
/// frame to `respond` (the switch rig's capture answers requests there).
class Sink final : public nc::phys::Node {
 public:
  Sink() : nc::phys::Node("sink") {}

  void handle_frame(std::size_t /*port*/,
                    nc::wire::FrameHandle frame) override {
    ++frames;
    if (respond) {
      respond(frame);
    }
  }

  std::uint64_t frames = 0;
  std::function<void(const nc::wire::FrameHandle&)> respond;
};

/// A rack switch loaded with NetCloneProgram, its control plane wired
/// like harness::Experiment's: 6 servers, 2 clients, a loopback port.
struct SwitchRig {
  SwitchRig() {
    sw = &topo.add_node<nc::pisa::SwitchDevice>(sim, "tor");
    const std::size_t recirc = sw->add_internal_port();
    sw->set_loopback_port(recirc);
    program = std::make_shared<nc::core::NetCloneProgram>(
        sw->pipeline(), nc::core::NetCloneConfig{});
    sw->load_program(program);
    controller =
        std::make_unique<nc::core::Controller>(*program, *sw, recirc);
    for (std::size_t i = 0; i < kServers; ++i) {
      Sink& s = topo.add_node<Sink>();
      const nc::phys::DuplexPorts ports = topo.connect(s, *sw);
      const auto sid = static_cast<nc::ServerId>(static_cast<std::uint8_t>(i));
      controller->add_server(sid, nc::host::server_ip(sid), ports.port_on_b);
      servers.push_back(&s);
      server_ports.push_back(ports.port_on_b);
      egress.push_back(ports.b_to_a);
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      Sink& s = topo.add_node<Sink>();
      const nc::phys::DuplexPorts ports = topo.connect(s, *sw);
      controller->add_route(
          nc::host::client_ip(static_cast<std::uint16_t>(c)),
          ports.port_on_b);
      client_ports.push_back(ports.port_on_b);
      egress.push_back(ports.b_to_a);
    }
  }

  [[nodiscard]] std::uint64_t emitted() const {
    std::uint64_t sum = 0;
    for (const nc::phys::Link* link : egress) {
      sum += link->stats().tx_frames;
    }
    return sum;
  }

  nc::sim::Simulator sim;
  nc::phys::Topology topo{sim};
  nc::pisa::SwitchDevice* sw = nullptr;
  std::shared_ptr<nc::core::NetCloneProgram> program;
  std::unique_ptr<nc::core::Controller> controller;
  std::vector<Sink*> servers;
  std::vector<std::size_t> server_ports;
  std::vector<std::size_t> client_ports;
  std::vector<nc::phys::Link*> egress;  // switch -> host links
};

/// Ingress frames of one switch step: injected together, then drained.
struct Step {
  std::size_t port = 0;
  nc::wire::Frame bytes;
};

/// Captures the switch's ingress sequence for the workload's requests:
/// each request, then the responses its (instant) servers send back.
/// Servers report busy with probability `busy` per response.
std::vector<std::vector<Step>> capture_switch_steps(const FrameSet& set,
                                                   double busy,
                                                   std::uint64_t seed) {
  SwitchRig rig;
  nc::Rng rng{seed ^ 0x5EEDULL};
  std::vector<Step> replies;
  for (std::size_t i = 0; i < kServers; ++i) {
    rig.servers[i]->respond = [&, i](const nc::wire::FrameHandle& frame) {
      const nc::wire::Packet req = nc::wire::Packet::parse_backed(frame);
      const std::uint32_t seq = req.nc().client_seq;
      const std::size_t k = (seq - 1) % set.bodies.size();
      const auto state =
          static_cast<std::uint16_t>(rng.next_double() < busy ? 1 : 0);
      replies.push_back(
          {rig.server_ports[i],
           build_response(req.nc(), set.bodies[k],
                          static_cast<std::uint8_t>(i), state)
               .to_frame()});
    };
  }
  std::vector<std::vector<Step>> steps;
  for (std::size_t i = 0; i < set.requests.size(); ++i) {
    const std::size_t port = rig.client_ports[set.requests[i].client];
    Step step{port, set.frames[2 * i].to_frame()};
    rig.sw->handle_frame(port, nc::wire::FrameHandle::copy_of(step.bytes));
    rig.sim.run();
    steps.push_back({std::move(step)});
    if (!replies.empty()) {
      for (const Step& r : replies) {
        rig.sw->handle_frame(r.port, nc::wire::FrameHandle::copy_of(r.bytes));
      }
      rig.sim.run();
      steps.push_back(std::move(replies));
      replies.clear();
    }
  }
  return steps;
}

}  // namespace

ReplayCosts measure_replay(const Inputs& inputs, std::uint64_t seed,
                           double clone_ratio, double budget_s,
                           Tracer* tracer) {
  ReplayCosts costs;
  const FrameSet set = generate(inputs, seed);
  const double share = budget_s / 6.0;

  costs.build_ns = median_ns_per_call(
      share, tracer, kBuild, [&] {
        std::uint64_t keep = 0;
        const double ns = timed([&] {
          for (std::size_t i = 0; i < set.requests.size(); ++i) {
            const Request& r = set.requests[i];
            keep += build_request(r).size();
            keep += build_response(r.header, set.bodies[i],
                                   static_cast<std::uint8_t>(i % kServers),
                                   0)
                        .size();
          }
        });
        g_keep = g_keep + keep;
        return Batch{2 * set.requests.size(), ns, 0.0};
      });

  costs.parse_ns = median_ns_per_call(
      share, tracer, kParse, [&] {
        std::uint64_t keep = 0;
        const double ns = timed([&] {
          for (const nc::wire::FrameHandle& f : set.frames) {
            keep += nc::wire::Packet::parse_backed(f).udp.dst_port;
          }
        });
        g_keep = g_keep + keep;
        return Batch{set.frames.size(), ns, 0.0};
      });

  costs.verify_ns = median_ns_per_call(
      share, tracer, kVerify, [&] {
        std::uint64_t keep = 0;
        const double ns = timed([&] {
          for (const nc::wire::FrameHandle& f : set.frames) {
            keep += nc::wire::verify_frame_checksums(f) ? 1U : 0U;
          }
        });
        g_keep = g_keep + keep;
        return Batch{set.frames.size(), ns, 0.0};
      });

  costs.hop_ns = median_ns_per_call(
      share, tracer, kHop, [&] {
        nc::sim::Simulator sim;
        nc::phys::Topology topo{sim};
        Sink& a = topo.add_node<Sink>();
        Sink& b = topo.add_node<Sink>();
        nc::phys::Link* link = topo.connect(a, b).a_to_b;
        const double ns = timed([&] {
          for (std::size_t i = 0; i < set.frames.size(); i += kChunk) {
            const std::size_t end = std::min(i + kChunk, set.frames.size());
            for (std::size_t j = i; j < end; ++j) {
              link->transmit(set.frames[j]);
            }
            sim.run();
          }
        });
        return Batch{b.frames, ns, 0.0};
      });

  // Servers report busy often enough that both candidates of a group are
  // idle — the cloning condition — at the run's measured clone ratio.
  const double busy =
      1.0 - std::sqrt(std::clamp(clone_ratio, 0.0, 1.0));
  const std::vector<std::vector<Step>> steps =
      capture_switch_steps(set, busy, seed);
  costs.pass_ns = median_ns_per_call(
      share, tracer, kPass, [&] {
        SwitchRig rig;
        // Unshared copies, as a link hands the switch its own frame.
        std::vector<std::vector<nc::wire::FrameHandle>> frames;
        for (const std::vector<Step>& step : steps) {
          auto& out = frames.emplace_back();
          for (const Step& s : step) {
            out.push_back(nc::wire::FrameHandle::copy_of(s.bytes));
          }
        }
        const double ns = timed([&] {
          for (std::size_t i = 0; i < steps.size(); ++i) {
            for (std::size_t j = 0; j < steps[i].size(); ++j) {
              rig.sw->handle_frame(steps[i][j].port,
                                   std::move(frames[i][j]));
            }
            rig.sim.run();
          }
        });
        const double hops_ns =
            static_cast<double>(rig.emitted()) * costs.hop_ns;
        return Batch{rig.sw->stats().rx_frames, ns, hops_ns};
      });

  costs.event_ns = median_ns_per_call(
      share, tracer, kEvent, [&] {
        nc::sim::Simulator sim;
        std::uint64_t fired = 0;
        const double ns = timed([&] {
          for (std::size_t i = 0; i < kEvents; ++i) {
            // Scattered offsets up to ~5 us, like link and service delays.
            sim.schedule_after(
                nc::SimTime::nanoseconds(
                    static_cast<std::int64_t>(1 + (i * 7919) % 5000)),
                [&fired] { ++fired; });
          }
          sim.run();
        });
        return Batch{fired, ns, 0.0};
      });
  return costs;
}

}  // namespace perfbench
