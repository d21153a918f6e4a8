#include "pisa/switch_device.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace netclone::pisa {

SwitchDevice::SwitchDevice(sim::Scheduler& scheduler, std::string name,
                           SwitchParams params)
    : phys::Node(std::move(name)),
      sim_(scheduler),
      params_(params),
      pipeline_(params.stage_count) {}

void SwitchDevice::load_program(std::shared_ptr<SwitchProgram> program) {
  program_ = std::move(program);
}

std::size_t SwitchDevice::add_internal_port() {
  ++internal_ports_;
  return attach_egress(nullptr);
}

void SwitchDevice::set_loopback_port(std::size_t port) {
  if (port >= loopback_ports_.size()) {
    loopback_ports_.resize(port + 1, false);
  }
  loopback_ports_[port] = true;
}

void SwitchDevice::configure_multicast_group(std::uint16_t group,
                                             std::vector<std::size_t> ports) {
  mcast_groups_.insert_or_assign(group, std::move(ports));
}

void SwitchDevice::fail() {
  if (failed_) {
    return;
  }
  failed_ = true;
  // A reboot wipes all stateful (register) memory: server states, the SEQ
  // counter, and filter-table fingerprints — the soft state of §3.6.
  pipeline_.reset_soft_state();
  log_info("switch '" + name() + "' failed at " + to_string(sim_.now()));
}

void SwitchDevice::recover() {
  if (!failed_) {
    return;
  }
  failed_ = false;
  log_info("switch '" + name() + "' recovered at " + to_string(sim_.now()));
}

void SwitchDevice::wipe_soft_state() {
  ++stats_.soft_state_wipes;
  pipeline_.reset_soft_state();
  log_info("switch '" + name() + "' soft state wiped at " +
           to_string(sim_.now()));
}

void SwitchDevice::handle_frame(std::size_t port, wire::FrameHandle frame) {
  process(port, std::move(frame), /*recirculated=*/false);
}

void SwitchDevice::process(std::size_t port, wire::FrameHandle frame,
                           bool recirculated) {
  ++stats_.rx_frames;
  if (failed_ || program_ == nullptr) {
    ++stats_.dropped_while_failed;
    return;
  }

  wire::Packet pkt;
  try {
    pkt = wire::Packet::parse_backed(frame);
  } catch (const wire::CodecError&) {
    ++stats_.parse_errors;
    return;
  }
  frame.reset();  // the packet's backing now holds the only live references

  PacketMetadata md;
  md.ingress_port = port;
  md.is_recirculated = recirculated;

  PipelinePass pass{pipeline_};
  program_->on_ingress(pkt, md, pass);

  if (md.drop) {
    ++stats_.dropped_by_program;
    return;
  }

  // Resolve the output port set and schedule the egress after the fixed
  // pipeline traversal latency. The deparser (serialize) runs exactly
  // once; a multicast set then shares the resulting buffer across all
  // output ports by reference count. The common unicast case carries its
  // single port in the closure — no port-vector allocation per packet.
  if (md.multicast_group) {
    const std::vector<std::size_t>* ports =
        mcast_groups_.find(*md.multicast_group);
    if (ports == nullptr) {
      ++stats_.dropped_by_program;
      return;
    }
    if (ports->size() > 1) {
      stats_.multicast_copies += ports->size() - 1;
    }
    ++stats_.egress_scheduled;
    sim_.schedule_after(params_.pipeline_latency,
                        [this, out_ports = *ports,
                         pkt = std::move(pkt)]() mutable {
                          if (failed_) {
                            ++stats_.flushed_in_pipeline;
                            return;
                          }
                          const wire::FrameHandle bytes =
                              pkt.serialize_pooled();
                          for (const std::size_t p : out_ports) {
                            emit(p, bytes);
                          }
                        });
  } else if (md.egress_port) {
    ++stats_.egress_scheduled;
    sim_.schedule_after(params_.pipeline_latency,
                        [this, port = *md.egress_port,
                         pkt = std::move(pkt)]() mutable {
                          if (failed_) {
                            ++stats_.flushed_in_pipeline;
                            return;
                          }
                          emit(port, pkt.serialize_pooled());
                        });
  } else {
    ++stats_.dropped_by_program;  // program made no forwarding decision
  }
}

void SwitchDevice::emit(std::size_t port, wire::FrameHandle bytes) {
  if (is_loopback(port)) {
    ++stats_.recirculated;
    sim_.schedule_after(
        params_.recirculation_latency,
        [this, port, bytes = std::move(bytes)]() mutable {
          process(port, std::move(bytes), /*recirculated=*/true);
        });
    return;
  }
  ++stats_.tx_frames;
  send(port, std::move(bytes));
}

}  // namespace netclone::pisa
