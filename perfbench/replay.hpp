// Replay rigs: per-call host costs of the public wire, pisa, phys and sim
// entry points, driven with frames built from the workload's own
// generated requests and responses. Multiplied by the exact call counts
// of a run, they apportion the run's self time across layers.
#pragma once

#include <cstdint>

#include "workloads.hpp"

namespace perfbench {

class Tracer;

struct ReplayCosts {
  /// wire: one frame built and serialized the way hosts do (requests via
  /// make_netclone_packet + serialize_pooled, responses via a shared
  /// payload tail + serialize_sg), averaged over both.
  double build_ns = 0.0;
  /// wire: Packet::parse_backed on a request or response frame.
  double parse_ns = 0.0;
  /// wire: verify_frame_checksums on a request or response frame.
  double verify_ns = 0.0;
  /// phys: Link::transmit to delivery at the peer, on a two-node rig.
  double hop_ns = 0.0;
  /// pisa + core: one SwitchDevice pipeline pass of NetCloneProgram
  /// (parse, program, deparse, egress), with the egress link hop taken
  /// out.
  double pass_ns = 0.0;
  /// sim: one event scheduled and dispatched on sim::Simulator.
  double event_ns = 0.0;
};

/// Runs every rig for about `budget_s` seconds in total. `clone_ratio` is
/// the run's measured share of cloned requests; the switch rig's servers
/// report busy often enough to reproduce it. With a tracer, each timed
/// batch is recorded as a replay span.
[[nodiscard]] ReplayCosts measure_replay(const Inputs& inputs,
                                         std::uint64_t seed,
                                         double clone_ratio, double budget_s,
                                         Tracer* tracer);

}  // namespace perfbench
