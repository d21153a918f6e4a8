// Experiment harness: builds a rack (clients + ToR switch + workers, plus
// the LÆDGE coordinator when compared), drives an open-loop load, and
// collects the metrics the paper's figures plot.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/l3_program.hpp"
#include "baselines/laedge.hpp"
#include "core/controller.hpp"
#include "baselines/netclone_racksched.hpp"
#include "baselines/racksched_program.hpp"
#include "common/types.hpp"
#include "core/netclone_program.hpp"
#include "harness/faults.hpp"
#include "host/client.hpp"
#include "host/server.hpp"
#include "phys/topology.hpp"
#include "pisa/switch_device.hpp"
#include "sim/scheduler.hpp"
#include "wire/framebuf.hpp"

namespace netclone::sim {
class Simulator;
}  // namespace netclone::sim

namespace netclone::harness {

/// The compared systems (§5.1.3 + §3.7).
enum class Scheme {
  kBaseline,           // random worker choice at the client, no cloning
  kCClone,             // client-based static cloning
  kLaedge,             // coordinator-based dynamic cloning
  kNetClone,           // this paper
  kNetCloneNoFilter,   // Fig. 15 ablation: cloning without response filtering
  kRackSched,          // in-switch JSQ, no cloning
  kNetCloneRackSched,  // §3.7 integration
};

[[nodiscard]] const char* scheme_name(Scheme scheme);

struct ClusterConfig {
  Scheme scheme = Scheme::kNetClone;
  std::size_t num_clients = 2;
  /// Worker threads per server; the vector length is the server count.
  std::vector<std::uint32_t> server_workers = {16, 16, 16, 16, 16, 16};
  /// Total offered load across all clients, requests per second.
  double offered_rps = 1e6;
  SimTime warmup = SimTime::milliseconds(10);
  SimTime measure = SimTime::milliseconds(60);
  /// Extra simulated time after senders stop, letting tails drain.
  SimTime drain = SimTime::milliseconds(30);
  std::uint64_t seed = 1;

  /// Workload (shared by all clients) and service (shared by all servers).
  std::shared_ptr<host::RequestFactory> factory;
  std::shared_ptr<host::ServiceModel> service;

  core::NetCloneConfig netclone{};
  /// Coordinator CPU cost per packet for the LÆDGE scheme.
  SimTime laedge_packet_cost = SimTime::nanoseconds(1200);

  host::ClientParams client_template{};
  host::ServerParams server_template{};
  pisa::SwitchParams switch_params{};

  /// Timed faults installed at build time and fired through the
  /// Scheduler (deterministic relative to every other event).
  FaultPlan faults{};
};

struct ExperimentResult {
  Scheme scheme{};
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double mean_us = 0.0;
  SimTime p50{};
  SimTime p99{};
  SimTime p999{};
  /// Decomposition of the measured samples (server-reported): where the
  /// tail comes from — queueing or execution.
  SimTime server_wait_p99{};
  SimTime server_service_p99{};
  std::uint64_t requests_sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t redundant_responses = 0;
  // Scheme internals (zero where not applicable):
  std::uint64_t cloned_requests = 0;
  std::uint64_t filtered_responses = 0;
  std::uint64_t dropped_stale_clones = 0;
  double empty_queue_fraction = 0.0;  // Fig. 13a signal
  pisa::SwitchStats switch_stats{};
};

/// One built-and-runnable cluster. Construction wires the topology;
/// run() executes warmup + measurement and returns the result. The object
/// stays inspectable afterwards (tests look at program/server stats), and
/// failure injection (Fig. 16) is exposed for timeline runs.
class Experiment {
 public:
  explicit Experiment(ClusterConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs the whole schedule and collects metrics.
  [[nodiscard]] ExperimentResult run();

  /// Timeline mode (Fig. 16): runs for `total` and returns completed
  /// requests per `bin`, with optional switch failure injection.
  [[nodiscard]] std::vector<std::uint64_t> run_timeline(
      SimTime total, SimTime bin, std::optional<SimTime> fail_at,
      std::optional<SimTime> recover_at);

  /// §3.6 server-failure handling, available for the NetClone schemes:
  /// the control plane removes the worker from the candidate groups and
  /// every client learns the shrunken group count. The server process
  /// itself keeps draining whatever it already accepted. Requests already
  /// in flight with now-stale group ids are dropped at the switch — the
  /// brief reconfiguration loss a real deployment would also see.
  void remove_server(ServerId sid);

  /// Schedules every entry of `plan` through the Scheduler. The plan
  /// from ClusterConfig is installed automatically at build time; this
  /// lets tests/benches add more afterwards.
  void install_fault_plan(const FaultPlan& plan);

  /// Applies one fault right now. Throws via NETCLONE_CHECK on unknown
  /// targets or scheme mismatches (e.g. filter_stale without NetClone).
  void apply_fault(const FaultEvent& event);

  /// Directed link by name (`c0-sw0`, `sw0-s3`, `co0-sw0`); nullptr when
  /// no such link exists.
  [[nodiscard]] phys::Link* link(const std::string& name) const;

  /// All directed links with their harness names, for the auditor.
  [[nodiscard]] const std::vector<std::pair<std::string, phys::Link*>>&
  links() const {
    return links_;
  }

  /// Scheduling surface of the engine, for tests/benches that inject
  /// events (failures, reconfigurations) into a run.
  [[nodiscard]] sim::Scheduler& scheduler();
  /// Engine telemetry: events executed so far (determinism fingerprint).
  [[nodiscard]] std::uint64_t executed_events() const;
  /// Always 0: every event runs through the engine. Kept because the
  /// repository benchmark still reads it for its sim.absorbed_share row.
  [[nodiscard]] std::uint64_t absorbed_events() const;
  /// Frame-pool balance sheet of the process-wide pool, as a one-entry
  /// list. The invariant auditor checks live == acquired − released.
  [[nodiscard]] std::vector<wire::FramePool::Stats> frame_pool_stats() const;
  [[nodiscard]] pisa::SwitchDevice& tor() { return *switch_; }
  [[nodiscard]] const pisa::SwitchDevice& tor() const { return *switch_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<host::Server*>& servers() const {
    return servers_;
  }
  [[nodiscard]] const std::vector<host::Client*>& clients() const {
    return clients_;
  }
  [[nodiscard]] const core::NetCloneProgram* netclone_program() const {
    return netclone_program_.get();
  }

 private:
  void build();
  [[nodiscard]] ExperimentResult collect() const;
  void record_link(const std::string& a, const std::string& b,
                   const phys::DuplexPorts& ports);
  /// Per-link impairment RNG seed, derived from the config seed and the
  /// link name without consuming root_rng_ draws.
  [[nodiscard]] std::uint64_t impairment_seed(const std::string& name) const;

  ClusterConfig config_;
  Rng root_rng_;
  // The engine must outlive topology_ (links cancel events and nodes
  // release pooled frames on destruction), so it is declared before it.
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<phys::Topology> topology_;
  pisa::SwitchDevice* switch_ = nullptr;
  std::vector<host::Server*> servers_;
  std::vector<host::Client*> clients_;
  /// Directed links keyed by `<src>-<dst>` harness names.
  std::vector<std::pair<std::string, phys::Link*>> links_;
  baselines::LaedgeCoordinator* coordinator_ = nullptr;
  // Exactly one of these is loaded, depending on the scheme.
  std::shared_ptr<core::NetCloneProgram> netclone_program_;
  std::unique_ptr<core::Controller> controller_;  // NetClone schemes only
  std::shared_ptr<baselines::L3ForwardProgram> l3_program_;
  std::shared_ptr<baselines::RackSchedProgram> racksched_program_;
  std::shared_ptr<baselines::NetCloneRackSchedProgram> integration_program_;
};

/// Total worker capacity of a cluster in requests per second, given the
/// mean *effective* service time (intrinsic mean × jitter inflation).
[[nodiscard]] double cluster_capacity_rps(
    const std::vector<std::uint32_t>& server_workers,
    double mean_service_us);

}  // namespace netclone::harness
