#include "pisa/tracing.hpp"

#include <cstdio>

namespace netclone::pisa {

void TracingProgram::on_ingress(wire::SwitchPacket& pkt, PacketMetadata& md,
                                PipelinePass& pass) {
  if (!enabled_) [[likely]] {
    inner_->on_ingress(pkt, md, pass);
    return;
  }
  record_ingress(pkt, md, pass);
}

void TracingProgram::record_ingress(wire::SwitchPacket& pkt,
                                    PacketMetadata& md, PipelinePass& pass) {
  TraceRecord record;
  record.pass_id = pass.id();
  record.recirculated = md.is_recirculated;
  record.is_netclone = pkt.has_netclone();

  inner_->on_ingress(pkt, md, pass);

  if (pkt.has_netclone()) {
    const wire::NetCloneHeader& nc = pkt.nc();
    record.is_request = nc.is_request();
    record.clo = static_cast<std::uint8_t>(nc.clo);
    record.req_id = nc.req_id;
    record.client_id = nc.client_id;
    record.client_seq = nc.client_seq;
  }
  record.dropped = md.drop;
  record.multicast = md.multicast_group.has_value();
  if (md.egress_port) {
    record.egress_port = *md.egress_port;
  }
  records_.push_back(record);
  ++total_;
  while (records_.size() > capacity_) {
    records_.pop_front();
  }
}

std::string TraceRecord::to_string() const {
  char head[120];
  std::snprintf(head, sizeof(head),
                "pass=%llu %s%s clo=%u req=%u client=%u/%u -> ",
                static_cast<unsigned long long>(pass_id),
                is_netclone ? (is_request ? "REQ" : "RESP") : "L3",
                recirculated ? "(recirc)" : "", clo, req_id, client_id,
                client_seq);
  std::string out{head};
  if (dropped) {
    out += "DROP";
  } else if (multicast) {
    out += "MCAST";
  } else {
    out += "FWD port=" + std::to_string(egress_port);
  }
  return out;
}

}  // namespace netclone::pisa
