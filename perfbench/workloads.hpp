// The benchmark's three workloads, built only through the public harness
// API (harness::Experiment / harness::MultiRackExperiment), and the
// counters read back from one finished run.
//
// Every workload is open loop (Poisson arrivals in simulated time) at 80%
// of cluster capacity, on the default engine (no shards) with burst mode
// at its default. A benchmark seed expands into `sub_runs` harness seeds
// (seed, seed + 1000003, ...); the first one is the seed itself, so the
// committed configurations (rack_exp25 at seed 1, pod_chain at seed 23)
// are reproduced bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/types.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "kv/store.hpp"

namespace perfbench {

class Tracer;

/// kv_rw's object store. Its contents depend on nothing but the object
/// count, so one populated store can serve every sub-run.
using Store = std::shared_ptr<const netclone::kv::KvStore>;

enum class Shape {
  kRack,  // one ToR, 2 clients, 6 servers x 16 workers, Exp(25)
  kPod,   // 3 racks x 3 servers, 2 chain-replicated aggs, 4 clients
  kKv,    // one ToR, 6 servers x 8 workers, Redis profile, 1M objects
};

struct WorkloadSpec {
  std::string_view name;
  Shape shape;
  /// Distinct harness seeds one benchmark run simulates (its first
  /// pass); the simulated metrics come from all of them.
  std::size_t sub_runs;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Harness seed of sub-run `k` for benchmark seed `seed`.
[[nodiscard]] std::uint64_t harness_seed(std::uint64_t seed, std::size_t k);

/// Simulated schedule of one sub-run (the committed 2/20/10 ms point by
/// default; the self-check shrinks it).
struct Window {
  netclone::SimTime warmup = netclone::SimTime::milliseconds(2);
  netclone::SimTime measure = netclone::SimTime::milliseconds(20);
  netclone::SimTime drain = netclone::SimTime::milliseconds(10);

  [[nodiscard]] bool is_default() const;
};

/// Everything the benchmark reads back from one finished sub-run. Host
/// times are seconds of steady_clock; everything else is exact for a
/// harness seed.
struct SubRun {
  std::uint64_t seed = 0;
  double setup_s = 0.0;     // populate + cluster construction
  double populate_s = 0.0;  // KV population (kv_rw only)
  double build_s = 0.0;     // cluster construction alone
  /// kv_rw: the run reused an already populated store, so its set-up
  /// time leaves out the population.
  bool reused_store = false;
  double run_s = 0.0;       // Experiment::run()

  // Client side.
  std::uint64_t requests_sent = 0;
  std::uint64_t completed = 0;            // all completions, whole run
  std::uint64_t completed_in_window = 0;  // completions in the window
  std::uint64_t incomplete = 0;           // Client::audit() leftovers
  std::uint64_t retransmissions = 0;
  std::uint64_t host_tx_frames = 0;  // frames hosts built and sent
  netclone::LatencyHistogram latency;
  netclone::LatencyHistogram server_wait;
  netclone::LatencyHistogram server_service;
  double measure_s = 0.0;

  // Engine.
  std::uint64_t executed_events = 0;
  std::uint64_t absorbed_events = 0;

  // Wire: frame-pool activity during run().
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_recycled = 0;

  // Phys: summed over every directed link.
  std::uint64_t link_frames = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t link_drops = 0;  // drop-tail + flushed + impaired
  std::uint64_t host_rx_frames = 0;  // frames links delivered to hosts

  // Pisa: summed over every switch.
  std::uint64_t passes = 0;
  std::uint64_t recirculated = 0;
  std::uint64_t multicast_copies = 0;

  // Core: summed over every NetClone program instance.
  std::uint64_t cloned = 0;
  std::uint64_t filtered = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t chain_forwards = 0;

  // Host: servers.
  std::uint64_t stale_clone_drops = 0;

  // Correctness.
  std::uint64_t digest = 0;  // harness::chaos_digest
  bool audit_ok = false;
  std::string audit_text;
};

/// Builds one cluster of `spec` at `seed`, runs it and reads it back.
/// With a tracer, the service model and request factory are wrapped in
/// timing probes and the setup / kv.populate / run spans are recorded.
/// kv_rw populates a fresh store into an empty `store` (inside the timed
/// set-up) and reuses a non-empty one.
[[nodiscard]] SubRun run_sub(const WorkloadSpec& spec, std::uint64_t seed,
                             const Window& window, Tracer* tracer,
                             Store& store);

/// The workload's request factory and service model, standalone, for the
/// replay rigs (kv_rw's over `store`, populated here when empty).
struct Inputs {
  std::shared_ptr<netclone::host::RequestFactory> factory;
  std::shared_ptr<netclone::host::ServiceModel> service;
};
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, Store& store);

}  // namespace perfbench
