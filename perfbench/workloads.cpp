#include "workloads.hpp"

#include <chrono>

#include "harness/experiment.hpp"
#include "harness/invariants.hpp"
#include "harness/multirack.hpp"
#include "kv/kv_workload.hpp"
#include "kv/store.hpp"
#include "trace.hpp"

namespace perfbench {

namespace nc = netclone;

namespace {

constexpr double kLoad = 0.8;
constexpr std::size_t kKvObjects = 1000000;

/// The paper's high-variability service (§5.1.2) with 8% per-execution
/// microvariation — the figure benches' setting.
nc::host::JitterModel high_variability() { return {0.01, 15.0, 0.08}; }

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Opens a span on construction and closes it on destruction; a no-op
/// without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(kind) : 0) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void end() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

bool is_host(const std::string& node) {
  return node.size() >= 2 && (node[0] == 's' || node[0] == 'c') &&
         node[1] >= '0' && node[1] <= '9';
}

std::uint64_t pool_total(
    const std::vector<nc::wire::FramePool::Stats>& pools,
    std::uint64_t nc::wire::FramePool::Stats::*field) {
  std::uint64_t sum = 0;
  for (const auto& p : pools) {
    sum += p.*field;
  }
  return sum;
}

/// Host, link and switch counters shared by both harness classes.
template <typename Exp>
void read_common(const Exp& exp, SubRun& out) {
  for (const nc::host::Client* client : exp.clients()) {
    const nc::host::ClientStats& cs = client->stats();
    out.requests_sent += cs.requests_sent;
    out.completed += cs.completed;
    out.completed_in_window += cs.completed_in_window;
    out.retransmissions += cs.retransmissions;
    out.host_tx_frames += cs.packets_sent;
    out.latency.merge(cs.latency);
    out.server_wait.merge(cs.server_queue_wait);
    out.server_service.merge(cs.server_service);
    out.incomplete += client->audit().incomplete_entries;
  }
  for (const nc::host::Server* server : exp.servers()) {
    const nc::host::ServerStats& ss = server->stats();
    out.stale_clone_drops += ss.dropped_stale_clones;
    out.host_tx_frames += ss.responses_total;
  }
  for (const auto& [name, link] : exp.links()) {
    const nc::phys::LinkStats& ls = link->stats();
    out.link_frames += ls.tx_frames;
    out.link_bytes += ls.tx_bytes;
    out.link_drops +=
        ls.dropped_frames + ls.flushed_frames + ls.impaired_drops;
    const std::size_t dash = name.find('-');
    if (dash != std::string::npos && is_host(name.substr(dash + 1))) {
      out.host_rx_frames += ls.tx_frames;
    }
  }
  out.executed_events = exp.executed_events();
  out.absorbed_events = exp.absorbed_events();
}

void add_switch(const nc::pisa::SwitchStats& s, SubRun& out) {
  out.passes += s.rx_frames;
  out.recirculated += s.recirculated;
  out.multicast_copies += s.multicast_copies;
}

void add_program(const nc::core::NetCloneProgramStats& s, SubRun& out) {
  out.cloned += s.cloned_requests;
  out.filtered += s.filtered_responses;
  out.write_requests += s.write_requests;
}

void add_program(const nc::core::AggNetCloneStats& s, SubRun& out) {
  out.cloned += s.cloned_requests;
  out.filtered += s.filtered_responses;
  out.write_requests += s.write_requests;
  out.chain_forwards += s.chain_forwards;
}

/// Times run() and reads everything back from a built experiment.
template <typename Exp>
void run_and_read(Exp& exp, Tracer* tracer, SubRun& out) {
  const auto pools_before = exp.frame_pool_stats();
  {
    ScopedSpan span{tracer, SpanKind::kRun};
    const auto start = std::chrono::steady_clock::now();
    static_cast<void>(exp.run());
    out.run_s = seconds_since(start);
  }
  const auto pools_after = exp.frame_pool_stats();
  using Stats = nc::wire::FramePool::Stats;
  out.pool_acquired = pool_total(pools_after, &Stats::acquired) -
                      pool_total(pools_before, &Stats::acquired);
  out.pool_recycled = pool_total(pools_after, &Stats::recycled) -
                      pool_total(pools_before, &Stats::recycled);
  read_common(exp, out);
  const nc::harness::InvariantReport report =
      nc::harness::audit_invariants(exp);
  out.audit_ok = report.ok();
  out.audit_text = report.to_string();
  out.digest = nc::harness::chaos_digest(exp);
}

/// The model itself, or its timing probe when tracing.
std::shared_ptr<nc::host::ServiceModel> probed(
    std::shared_ptr<nc::host::ServiceModel> inner, Tracer* tracer) {
  if (tracer == nullptr) {
    return inner;
  }
  return std::make_shared<TimedService>(std::move(inner), *tracer);
}

std::shared_ptr<nc::host::RequestFactory> probed(
    std::shared_ptr<nc::host::RequestFactory> inner, Tracer* tracer) {
  if (tracer == nullptr) {
    return inner;
  }
  return std::make_shared<TimedFactory>(std::move(inner), *tracer);
}

nc::kv::KvMix kv_mix() {
  nc::kv::KvMix mix;
  mix.get_fraction = 0.89;
  mix.set_fraction = 0.10;  // the remaining 1% are SCANs
  mix.num_keys = kKvObjects;
  return mix;
}

/// An empty `store` gets a fresh, fully populated one.
void ensure_store(Store& store) {
  if (store == nullptr) {
    auto fresh = std::make_shared<nc::kv::KvStore>(kKvObjects);
    nc::kv::populate(*fresh, kKvObjects);
    store = std::move(fresh);
  }
}

/// The one-ToR clusters: rack_exp25 and kv_rw.
SubRun run_rack(const WorkloadSpec& spec, std::uint64_t seed,
                const Window& window, Tracer* tracer, Store& store) {
  SubRun out;
  out.seed = seed;
  out.measure_s = window.measure.sec();
  const auto setup_start = std::chrono::steady_clock::now();
  ScopedSpan setup{tracer, SpanKind::kSetup};

  nc::harness::ClusterConfig cfg;
  cfg.scheme = nc::harness::Scheme::kNetClone;
  cfg.num_clients = 2;
  cfg.warmup = window.warmup;
  cfg.measure = window.measure;
  cfg.drain = window.drain;
  cfg.seed = seed;
  double mean_us = 25.0;
  if (spec.shape == Shape::kKv) {
    out.reused_store = store != nullptr;
    if (!out.reused_store) {
      ScopedSpan populate{tracer, SpanKind::kPopulate};
      const auto start = std::chrono::steady_clock::now();
      ensure_store(store);
      out.populate_s = seconds_since(start);
    }
    auto factory = std::make_shared<nc::kv::KvRequestFactory>(
        kv_mix(), nc::kv::redis_profile());
    mean_us = factory->mean_intrinsic_us();
    cfg.server_workers.assign(6, 8);
    cfg.factory = probed(factory, tracer);
    cfg.service = probed(
        std::make_shared<nc::kv::KvService>(store, nc::kv::redis_profile(),
                                            high_variability()),
        tracer);
  } else {
    cfg.server_workers.assign(6, 16);
    cfg.factory = probed(
        std::make_shared<nc::host::ExponentialWorkload>(mean_us), tracer);
    cfg.service = probed(
        std::make_shared<nc::host::SyntheticService>(high_variability()),
        tracer);
  }
  cfg.offered_rps =
      kLoad * nc::harness::cluster_capacity_rps(
                  cfg.server_workers,
                  mean_us * high_variability().mean_inflation());

  const auto build_start = std::chrono::steady_clock::now();
  nc::harness::Experiment exp{std::move(cfg)};
  out.build_s = seconds_since(build_start);
  setup.end();
  out.setup_s = seconds_since(setup_start);

  run_and_read(exp, tracer, out);
  add_switch(exp.tor().stats(), out);
  if (const nc::core::NetCloneProgram* prog = exp.netclone_program()) {
    add_program(prog->stats(), out);
  }
  return out;
}

SubRun run_pod(std::uint64_t seed, const Window& window, Tracer* tracer) {
  SubRun out;
  out.seed = seed;
  out.measure_s = window.measure.sec();
  const auto setup_start = std::chrono::steady_clock::now();
  ScopedSpan setup{tracer, SpanKind::kSetup};

  // bench_multirack's pod: 4 clients so the source-hashed ECMP spray
  // exercises both replicas.
  nc::harness::MultiRackConfig cfg;
  cfg.server_racks = 3;
  cfg.servers_per_rack = 3;
  cfg.num_aggs = 2;
  cfg.agg_mode = nc::harness::AggMode::kReplicated;
  cfg.workers = 16;
  cfg.num_clients = 4;
  cfg.factory = probed(
      std::make_shared<nc::host::ExponentialWorkload>(25.0), tracer);
  cfg.service = probed(
      std::make_shared<nc::host::SyntheticService>(high_variability()),
      tracer);
  cfg.warmup = window.warmup;
  cfg.measure = window.measure;
  cfg.drain = window.drain;
  cfg.seed = seed;
  cfg.offered_rps =
      kLoad * nc::harness::cluster_capacity_rps(
                  std::vector<std::uint32_t>(9, cfg.workers),
                  25.0 * high_variability().mean_inflation());

  const auto build_start = std::chrono::steady_clock::now();
  nc::harness::MultiRackExperiment exp{std::move(cfg)};
  out.build_s = seconds_since(build_start);
  setup.end();
  out.setup_s = seconds_since(setup_start);

  run_and_read(exp, tracer, out);
  for (const auto& [name, device] : exp.switches()) {
    add_switch(device->stats(), out);
  }
  for (std::size_t a = 0; a < exp.num_aggs(); ++a) {
    add_program(exp.agg_netclone_program(a).stats(), out);
  }
  for (std::size_t r = 0; r < exp.config().server_racks; ++r) {
    add_program(exp.server_tor_program(r).stats(), out);
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"rack_exp25", Shape::kRack, 8},
      {"pod_chain", Shape::kPod, 6},
      {"kv_rw", Shape::kKv, 10},
  };
  return kAll;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::uint64_t harness_seed(std::uint64_t seed, std::size_t k) {
  return seed + 1000003ULL * k;
}

bool Window::is_default() const {
  const Window d{};
  return warmup == d.warmup && measure == d.measure && drain == d.drain;
}

SubRun run_sub(const WorkloadSpec& spec, std::uint64_t seed,
               const Window& window, Tracer* tracer, Store& store) {
  if (spec.shape == Shape::kPod) {
    return run_pod(seed, window, tracer);
  }
  return run_rack(spec, seed, window, tracer, store);
}

Inputs make_inputs(const WorkloadSpec& spec, Store& store) {
  Inputs in;
  if (spec.shape == Shape::kKv) {
    ensure_store(store);
    in.factory = std::make_shared<nc::kv::KvRequestFactory>(
        kv_mix(), nc::kv::redis_profile());
    in.service = std::make_shared<nc::kv::KvService>(
        store, nc::kv::redis_profile(), high_variability());
  } else {
    in.factory = std::make_shared<nc::host::ExponentialWorkload>(25.0);
    in.service =
        std::make_shared<nc::host::SyntheticService>(high_variability());
  }
  return in;
}

}  // namespace perfbench
