// The NetClone switch data plane (paper §3, Algorithm 1).
//
// Three custom modules run in the ingress pipeline, triggered only for
// NetClone packets (UDP port 9393):
//   * request cloning   — replicate a request to both candidate servers iff
//     both tracked states are idle (StateT + ShadowT);
//   * response filtering — drop the slower duplicate response using request
//     fingerprints in hash-indexed register arrays (FilterT);
//   * state tracking    — absorb the piggybacked queue length of every
//     response into StateT/ShadowT.
// Non-NetClone packets take the traditional L3 route through FwdT.
//
// Stage layout (compile-time, mirrors the 7-stage budget of §4.1):
//
//   stage 0: SEQ       (request-id allocator, one register)
//   stage 1: GrpT      (group id -> ordered candidate pair)
//   stage 2: AddrT     (server id -> IP address)
//   stage 3: StateT    (server states, written on every response)
//   stage 4: ShadowT   (copy of StateT — the ASIC cannot read one register
//                       array twice in a pass, §3.4)
//   stage 5: HashT + FilterT[0..k)  (fingerprint filters, §3.5)
//   stage 6: FwdT      (dst IP -> egress port, the L2/L3 routing module)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/groups.hpp"
#include "pisa/program.hpp"
#include "pisa/resources.hpp"
#include "wire/ipv4.hpp"

namespace netclone::core {

/// How the switch assigns the REQ_ID (§3.7 "Protocol support").
enum class RequestIdMode {
  /// Default: the global SEQ register allocates a fresh id per request.
  kSwitchSequence,
  /// Lamport-style: REQ_ID is derived from (CLIENT_ID, CLIENT_SEQ), so a
  /// retransmission (TCP mode) and every fragment of a multi-packet
  /// request share one id.
  kClientTuple,
};

struct NetCloneConfig {
  /// Filter tables; the prototype uses two (§4.1). Client IDX values must
  /// be < this.
  std::size_t num_filter_tables = 2;
  /// Hash slots per filter table (§4.1: 2^17).
  std::size_t filter_slots = std::size_t{1} << 17;
  /// Maximum servers AddrT/StateT are sized for.
  std::size_t max_servers = 64;
  /// Maximum installed groups (n·(n-1) for n servers).
  std::size_t max_groups = 64 * 63;
  /// This ToR's identity for multi-rack deployments (§3.7); stamped into
  /// requests with SWITCH_ID == 0.
  std::uint8_t switch_id = 1;
  /// Ablation toggles (Fig. 15 disables filtering).
  bool enable_cloning = true;
  bool enable_filtering = true;
  RequestIdMode id_mode = RequestIdMode::kSwitchSequence;
  /// Multi-packet message support (§3.7): a cloned-request table makes
  /// follow-up fragments of a cloned request clone regardless of the
  /// current server states, and response fragments are filtered through
  /// ordered filter tables. Requires id_mode == kClientTuple so that all
  /// fragments share one REQ_ID.
  bool enable_multipacket = false;
  /// Slots in the cloned-request table (hash-indexed, like FilterT).
  std::size_t cloned_req_slots = std::size_t{1} << 15;
};

struct NetCloneProgramStats {
  std::uint64_t requests = 0;
  std::uint64_t cloned_requests = 0;     // fresh requests that were cloned
  std::uint64_t recirculated_clones = 0; // clone copies seen back at ingress
  std::uint64_t responses = 0;
  std::uint64_t fingerprints_stored = 0;
  std::uint64_t filtered_responses = 0;  // slower duplicates dropped
  std::uint64_t foreign_tor_packets = 0; // skipped NetClone logic (§3.7)
  std::uint64_t missing_route_drops = 0;
  std::uint64_t write_requests = 0;       // forwarded uncloned (§5.5)
  std::uint64_t continuation_fragments = 0;  // multi-packet follow-ups
  std::uint64_t cloned_fragments = 0;     // follow-ups cloned via ClonedReqT
  /// Fault injection: fingerprints planted by inject_stale_filter_entry.
  /// The auditor's filtering invariant widens by this amount.
  std::uint64_t injected_stale_entries = 0;
};

class NetCloneProgram final : public pisa::SwitchProgram {
 public:
  NetCloneProgram(pisa::Pipeline& pipeline, NetCloneConfig config);

  // -- control plane --------------------------------------------------------

  /// Registers a worker: AddrT[sid] = ip, FwdT[ip] = port, and remembers
  /// the PRE multicast group id to use when cloning toward this server
  /// (the group must contain {server port, loopback port}).
  void add_server(ServerId sid, wire::Ipv4Address ip, std::size_t port,
                  std::uint16_t clone_mcast_group);

  /// Installs the candidate-pair groups (group id = vector index).
  void install_groups(const std::vector<GroupPair>& groups);

  /// Plain L3 route for non-worker endpoints (clients, coordinator).
  void add_route(wire::Ipv4Address ip, std::size_t port);

  /// Removes a failed worker from cloning decisions (§3.6): erases its
  /// address entry and the groups referencing it.
  void remove_server(ServerId sid);

  /// Fault injection: plants `req_id` as a fingerprint in filter table
  /// `table` at the slot the hash would pick — exactly the residue a
  /// lost response or a mid-run reboot can leave behind. The next
  /// response hashing there is wrongly filtered (§3.5's collision case),
  /// which the end-to-end retransmit path must absorb.
  void inject_stale_filter_entry(std::size_t table, std::uint32_t req_id);

  // -- data plane -----------------------------------------------------------

  void on_ingress(wire::Packet& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass) override;

  [[nodiscard]] const char* name() const override { return "NetClone"; }

  [[nodiscard]] const NetCloneProgramStats& stats() const { return stats_; }
  [[nodiscard]] const NetCloneConfig& config() const { return config_; }

  /// Test/diagnostic access to filter table cells.
  [[nodiscard]] std::uint32_t peek_filter_slot(std::size_t table,
                                               std::size_t slot) const;
  /// Test/diagnostic access to a tracked server state.
  [[nodiscard]] std::uint16_t peek_state(ServerId sid) const;

  /// The hash a response with `req_id` indexes filter tables with.
  [[nodiscard]] static std::uint32_t filter_hash(std::uint32_t req_id,
                                                 std::size_t slots);

  /// The Lamport-style request id of RequestIdMode::kClientTuple.
  [[nodiscard]] static std::uint32_t client_tuple_id(
      std::uint16_t client_id, std::uint32_t client_seq);

 private:
  struct AddrEntry {
    wire::Ipv4Address ip{};
    std::uint16_t mcast_group = 0;
  };

  void handle_request(wire::Packet& pkt, pisa::PacketMetadata& md,
                      pisa::PipelinePass& pass);
  void handle_continuation_fragment(wire::Packet& pkt,
                                    pisa::PacketMetadata& md,
                                    pisa::PipelinePass& pass);
  void handle_response(wire::Packet& pkt, pisa::PacketMetadata& md,
                       pisa::PipelinePass& pass);
  void l3_forward(const wire::Packet& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass);
  void assign_request_id(wire::NetCloneHeader& nc, pisa::PipelinePass& pass);

  NetCloneConfig config_;

  pisa::RegisterScalar<std::uint32_t> seq_;
  pisa::ExactMatchTable<GroupPair> grp_table_;
  pisa::ExactMatchTable<AddrEntry> addr_table_;
  pisa::RegisterArray<std::uint16_t> state_table_;
  pisa::RegisterArray<std::uint16_t> shadow_table_;
  pisa::HashUnit hash_unit_;
  std::vector<std::unique_ptr<pisa::RegisterArray<std::uint32_t>>>
      filter_tables_;
  /// §3.7 multi-packet: ids of cloned-but-unfinished requests, so every
  /// later fragment clones regardless of the tracked server states.
  /// Allocated only when config.enable_multipacket.
  std::unique_ptr<pisa::RegisterArray<std::uint32_t>> cloned_req_table_;
  pisa::ExactMatchTable<std::size_t> fwd_table_;

  NetCloneProgramStats stats_;
};

}  // namespace netclone::core
