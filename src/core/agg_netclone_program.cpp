#include "core/agg_netclone_program.hpp"

#include "common/check.hpp"

namespace netclone::core {
namespace {

[[nodiscard]] std::uint64_t route_key(wire::Ipv4Address ip) {
  return static_cast<std::uint64_t>(ip.value);
}

}  // namespace

AggNetCloneProgram::AggNetCloneProgram(pisa::Pipeline& pipeline,
                                       NetCloneConfig config,
                                       AggChainRole role)
    : config_(config),
      role_(role),
      grp_table_(pipeline, "GrpT", 1, config.max_groups, /*key_bytes=*/2,
                 /*value_bytes=*/2),
      addr_table_(pipeline, "AddrT", 2, config.max_servers, /*key_bytes=*/1,
                  /*value_bytes=*/6),
      state_table_(pipeline, "StateT", 3, config.max_servers),
      shadow_table_(pipeline, "ShadowT", 4, config.max_servers),
      hash_unit_(pipeline, "FilterHash", 5),
      fwd_table_(pipeline, "FwdT", 6, /*capacity=*/1024, /*key_bytes=*/4,
                 /*value_bytes=*/2),
      chain_next_(role.chain_next_port) {
  NETCLONE_CHECK(config_.num_filter_tables >= 1 &&
                     config_.num_filter_tables <= 8,
                 "filter table count out of range");
  NETCLONE_CHECK(config_.filter_slots > 0, "filter tables need slots");
  NETCLONE_CHECK(role_.chain_length >= 1 &&
                     role_.replica_index < role_.chain_length,
                 "chain role out of range");
  NETCLONE_CHECK(role_.is_tail() == !role_.chain_next_port.has_value(),
                 "every non-tail replica needs chain_next_port (and the "
                 "tail must not have one)");
  filter_tables_.reserve(config_.num_filter_tables);
  for (std::size_t i = 0; i < config_.num_filter_tables; ++i) {
    filter_tables_.push_back(
        std::make_unique<pisa::RegisterArray<std::uint32_t>>(
            pipeline, "FilterT" + std::to_string(i), 5,
            config_.filter_slots));
  }
}

void AggNetCloneProgram::add_server(ServerId sid, wire::Ipv4Address ip,
                                    std::size_t port,
                                    std::uint16_t clone_mcast_group) {
  NETCLONE_CHECK(value_of(sid) < config_.max_servers,
                 "server id exceeds table sizing");
  addr_table_.insert(value_of(sid), AddrEntry{ip, clone_mcast_group});
  fwd_table_.insert(route_key(ip), port);
}

void AggNetCloneProgram::install_groups(
    const std::vector<GroupPair>& groups) {
  grp_table_.clear_entries();
  for (std::size_t id = 0; id < groups.size(); ++id) {
    grp_table_.insert(id, groups[id]);
  }
}

void AggNetCloneProgram::add_route(wire::Ipv4Address ip, std::size_t port) {
  fwd_table_.insert(route_key(ip), port);
}

void AggNetCloneProgram::on_ingress(wire::Packet& pkt,
                                    pisa::PacketMetadata& md,
                                    pisa::PipelinePass& pass) {
  if (!pkt.has_netclone()) {
    l3_forward(pkt, md, pass);
    return;
  }
  wire::NetCloneHeader& nc = pkt.nc();
  // A packet stamped by a different switch tier is just passing through.
  if (nc.switch_id != 0 && nc.switch_id != config_.switch_id) {
    ++stats_.foreign_packets;
    l3_forward(pkt, md, pass);
    return;
  }
  if (nc.is_chain_sync()) {
    handle_chain_sync(pkt, md);
    return;
  }
  if (nc.is_cancel()) {
    l3_forward(pkt, md, pass);
    return;
  }
  if (nc.is_request()) {
    handle_request(pkt, md, pass);
  } else {
    handle_response(pkt, md, pass);
  }
}

void AggNetCloneProgram::handle_request(wire::Packet& pkt,
                                        pisa::PacketMetadata& md,
                                        pisa::PipelinePass& pass) {
  wire::NetCloneHeader& nc = pkt.nc();

  if (md.is_recirculated) {
    // The loopback copy: mark it as the cloned duplicate and steer it to
    // the second candidate's rack (AddrT carries the global sid, FwdT the
    // trunk toward its rack — the clone crosses racks naturally).
    NETCLONE_CHECK(nc.clo == wire::CloneStatus::kClonedOriginal,
                   "recirculated request must carry CLO=1");
    ++stats_.recirculated_clones;
    nc.clo = wire::CloneStatus::kClonedCopy;
    const auto* entry = addr_table_.find(pass, nc.sid);
    if (!entry) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    pkt.ip.dst = entry->ip;
    const auto* port = fwd_table_.find(pass, route_key(entry->ip));
    if (!port) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    md.egress_port = *port;
    return;
  }

  if (nc.clo != wire::CloneStatus::kNotCloned) {
    md.drop = true;  // malformed: a fresh request must carry CLO=0
    return;
  }
  if (nc.switch_id == 0) {
    nc.switch_id = config_.switch_id;  // the shared tier identity
  }
  // Replicated deciders cannot share a SEQ register without coordination;
  // the Lamport-style client tuple is a distributed id by construction
  // and identical no matter which replica ECMP picked.
  nc.req_id = NetCloneProgram::client_tuple_id(nc.client_id, nc.client_seq);

  if (nc.is_write()) {
    ++stats_.write_requests;
    const auto* pair = grp_table_.find(pass, nc.grp);
    if (!pair) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    const auto* entry = addr_table_.find(pass, pair->srv1);
    if (!entry) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    pkt.ip.dst = entry->ip;
    l3_forward(pkt, md, pass);
    return;
  }

  ++stats_.requests;

  const auto* pair = grp_table_.find(pass, nc.grp);
  if (!pair) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  const auto* entry1 = addr_table_.find(pass, pair->srv1);
  if (!entry1) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  pkt.ip.dst = entry1->ip;

  // Relaxed replica read: both candidates idle according to the LOCAL
  // StateT/ShadowT copy. Staleness (updates still in the chain) can only
  // miss a clone opportunity or clone onto a busy server — a performance
  // wobble, never a correctness issue.
  const std::uint16_t s1 = state_table_.read(pass, pair->srv1);
  const std::uint16_t s2 = shadow_table_.read(pass, pair->srv2);

  if (config_.enable_cloning && s1 == 0 && s2 == 0) {
    nc.clo = wire::CloneStatus::kClonedOriginal;
    nc.sid = pair->srv2;
    ++stats_.cloned_requests;
    md.multicast_group = entry1->mcast_group;
    return;
  }

  const auto* port = fwd_table_.find(pass, route_key(entry1->ip));
  if (!port) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  md.egress_port = *port;
}

void AggNetCloneProgram::handle_response(wire::Packet& pkt,
                                         pisa::PacketMetadata& md,
                                         pisa::PipelinePass& pass) {
  wire::NetCloneHeader& nc = pkt.nc();
  if (!chain_member_) {
    // Stale in-flight traffic around a crash/rejoin: a non-member must
    // not touch replicated state or enact verdicts — the controller
    // resyncs it before re-admission.
    ++stats_.non_member_response_drops;
    md.drop = true;
    return;
  }
  ++stats_.responses;

  // Every replica applies the identical write in chain order, so the
  // replicated StateT/ShadowT converge cell by cell.
  if (nc.sid < config_.max_servers) {
    state_table_.write(pass, nc.sid, nc.state);
    shadow_table_.write(pass, nc.sid, nc.state);
  }

  // Every replica replays the same store-or-clear RMW; because responses
  // enter at the head and the chain links preserve order, all replicas
  // compute the same verdict for every response.
  bool duplicate = false;
  if (nc.cloned() && config_.enable_filtering) {
    const std::size_t table = nc.idx % config_.num_filter_tables;
    const std::uint32_t slot = hash_unit_.hash32(
        pass, nc.req_id, static_cast<std::uint32_t>(config_.filter_slots));
    duplicate = filter_tables_[table]->execute(
        pass, slot, [rid = nc.req_id](std::uint32_t& cell) {
          if (cell == rid) {
            cell = 0;
            return true;
          }
          cell = rid;
          return false;
        });
    if (duplicate) {
      ++stats_.filter_hits;
    } else {
      ++stats_.fingerprints_stored;
    }
  }

  if (chain_next_) {
    // Upstream replicas relay everything — the verdict is only enacted
    // once, at the live tail, so exactly-once stays a single switch's
    // call even while fail-over reshapes the chain.
    ++stats_.chain_forwards;
    md.egress_port = *chain_next_;
    return;
  }
  if (duplicate) {
    ++stats_.filtered_responses;
    md.drop = true;
    return;
  }
  l3_forward(pkt, md, pass);
}

void AggNetCloneProgram::handle_chain_sync(wire::Packet& pkt,
                                           pisa::PacketMetadata& md) {
  wire::NetCloneHeader& nc = pkt.nc();
  ++stats_.chain_sync_markers;
  NETCLONE_CHECK(sync_hub_ != nullptr,
                 "chain sync marker reached a replica without a sync hub");
  AggChainSyncRecord* record = sync_hub_->find(nc.req_id);
  NETCLONE_CHECK(record != nullptr,
                 "chain sync marker names an unknown sync record");
  if (!record->filled) {
    // First replica on the marker's walk: the snapshot cut. Everything
    // this replica applied before the marker is in the snapshot; every
    // later update follows the marker down the same FIFO links — the
    // sequenced delta stream downstream replicas replay after install.
    fill_sync_record(*record);
    if (record->filler_next_port) {
      // Admit: the old tail adopts the rejoiner as its successor in the
      // marker's own pipeline pass, so the marker is the FIRST frame on
      // the new link and every forwarded response rides behind it.
      chain_next_ = record->filler_next_port;
    }
    if (nc.req_id > last_sync_gen_) {
      last_sync_gen_ = nc.req_id;  // own state IS this snapshot
    }
  } else if (nc.req_id <= last_sync_gen_) {
    // Already absorbed a sync at least this fresh — installing would
    // clobber newer state with an older cut.
    ++stats_.chain_sync_stale;
  } else {
    install_sync_record(*record);
    last_sync_gen_ = nc.req_id;
    if (record->admit_target == role_.replica_index) {
      // Rejoin complete: become the tail. The delta stream queued behind
      // the marker replays, in chain order, everything the snapshot
      // missed.
      chain_member_ = true;
      chain_next_ = std::nullopt;
      ++stats_.chain_sync_consumed;
      md.drop = true;
      return;
    }
  }
  if (chain_next_) {
    md.egress_port = *chain_next_;
    return;
  }
  ++stats_.chain_sync_consumed;
  md.drop = true;
}

void AggNetCloneProgram::fill_sync_record(AggChainSyncRecord& record) {
  ++stats_.chain_sync_snapshots_filled;
  record.state.resize(config_.max_servers);
  record.shadow.resize(config_.max_servers);
  for (std::size_t i = 0; i < config_.max_servers; ++i) {
    record.state[i] = state_table_.peek(i);
    record.shadow[i] = shadow_table_.peek(i);
  }
  record.filters.resize(filter_tables_.size());
  for (std::size_t t = 0; t < filter_tables_.size(); ++t) {
    record.filters[t].resize(config_.filter_slots);
    for (std::size_t slot = 0; slot < config_.filter_slots; ++slot) {
      record.filters[t][slot] = filter_tables_[t]->peek(slot);
    }
  }
  record.filled = true;
}

void AggNetCloneProgram::install_sync_record(
    const AggChainSyncRecord& record) {
  ++stats_.chain_sync_installs;
  NETCLONE_CHECK(record.state.size() == config_.max_servers &&
                     record.filters.size() == filter_tables_.size(),
                 "sync record shape does not match this replica's tables");
  for (std::size_t i = 0; i < config_.max_servers; ++i) {
    state_table_.poke_write(i, record.state[i]);
    shadow_table_.poke_write(i, record.shadow[i]);
  }
  for (std::size_t t = 0; t < filter_tables_.size(); ++t) {
    for (std::size_t slot = 0; slot < config_.filter_slots; ++slot) {
      filter_tables_[t]->poke_write(slot, record.filters[t][slot]);
      if (record.filters[t][slot] != 0) {
        ++stats_.chain_sync_fingerprints_adopted;
      }
    }
  }
}

void AggNetCloneProgram::l3_forward(const wire::Packet& pkt,
                                    pisa::PacketMetadata& md,
                                    pisa::PipelinePass& pass) {
  const auto* port = fwd_table_.find(pass, route_key(pkt.ip.dst));
  if (!port) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  md.egress_port = *port;
}

std::uint64_t AggNetCloneProgram::soft_state_digest() const {
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  const auto fold = [&digest](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      digest ^= (value >> shift) & 0xFFU;
      digest *= 0x100000001B3ULL;
    }
  };
  for (std::size_t i = 0; i < config_.max_servers; ++i) {
    fold(state_table_.peek(i));
    fold(shadow_table_.peek(i));
  }
  for (const auto& table : filter_tables_) {
    for (std::size_t slot = 0; slot < config_.filter_slots; ++slot) {
      fold(table->peek(slot));
    }
  }
  return digest;
}

std::uint16_t AggNetCloneProgram::peek_state(ServerId sid) const {
  return state_table_.peek(value_of(sid));
}

std::uint32_t AggNetCloneProgram::peek_filter_slot(std::size_t table,
                                                   std::size_t slot) const {
  NETCLONE_CHECK(table < filter_tables_.size(), "filter table out of range");
  return filter_tables_[table]->peek(slot);
}

std::uint64_t AggNetCloneProgram::filter_occupancy() const {
  std::uint64_t occupied = 0;
  for (const auto& table : filter_tables_) {
    for (std::size_t slot = 0; slot < config_.filter_slots; ++slot) {
      occupied += table->peek(slot) != 0 ? 1 : 0;
    }
  }
  return occupied;
}

}  // namespace netclone::core
