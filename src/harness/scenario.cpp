#include "harness/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/groups.hpp"
#include "harness/traffic_shapes.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "kv/kv_workload.hpp"

namespace netclone::harness {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

double parse_double(const std::string& value, const std::string& key) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) {
      throw std::invalid_argument{""};
    }
    return v;
  } catch (const std::exception&) {
    throw ScenarioError{"bad numeric value for '" + key + "': " + value};
  }
}

std::uint64_t parse_u64(const std::string& value, const std::string& key) {
  const double v = parse_double(value, key);
  if (v < 0.0 || v != std::floor(v)) {
    throw ScenarioError{"'" + key + "' must be a non-negative integer"};
  }
  return static_cast<std::uint64_t>(v);
}

std::vector<double> parse_load_list(const std::string& value) {
  std::vector<double> loads;
  std::stringstream ss{value};
  std::string item;
  while (std::getline(ss, item, ',')) {
    const double load = parse_double(trim(item), "loads");
    if (load <= 0.0 || load > 1.5) {
      throw ScenarioError{"load fractions must be in (0, 1.5]"};
    }
    loads.push_back(load);
  }
  if (loads.empty()) {
    throw ScenarioError{"'loads' must list at least one fraction"};
  }
  return loads;
}

/// The scenario's workload objects (shared by the single-rack and
/// fat-tree builders).
void make_workload(const Scenario& s,
                   std::shared_ptr<host::RequestFactory>& factory,
                   std::shared_ptr<host::ServiceModel>& service) {
  const host::JitterModel jitter{s.jitter_p, s.jitter_multiplier, s.noise};
  if (s.workload == "exp") {
    factory = std::make_shared<host::ExponentialWorkload>(s.mean_us);
    service = std::make_shared<host::SyntheticService>(jitter);
  } else if (s.workload == "bimodal") {
    factory = std::make_shared<host::BimodalWorkload>(
        s.bimodal_short_fraction, s.bimodal_short_us, s.bimodal_long_us);
    service = std::make_shared<host::SyntheticService>(jitter);
  } else if (s.workload == "fixed") {
    factory = std::make_shared<host::FixedWorkload>(s.mean_us);
    service = std::make_shared<host::SyntheticService>(jitter);
  } else {
    const kv::KvCostProfile profile = s.workload == "redis"
                                          ? kv::redis_profile()
                                          : kv::memcached_profile();
    auto store = std::make_shared<kv::KvStore>(s.kv_objects);
    kv::populate(*store, s.kv_objects);
    kv::KvMix mix;
    mix.get_fraction = s.get_fraction;
    mix.num_keys = s.kv_objects;
    factory = std::make_shared<kv::KvRequestFactory>(mix, profile);
    service = std::make_shared<kv::KvService>(store, profile, jitter);
  }
}

/// Compiles the generator keys into plain client parameters: a rate
/// profile for the temporal shape, group weights for the spatial one.
/// `steady` + zero skew + no hotspot leaves the template untouched, so
/// legacy scenarios draw the exact same random sequences as before.
void apply_traffic_shape(const Scenario& s, host::ClientParams& tmpl) {
  if (s.shape == "flash") {
    tmpl.rate_profile = flash_crowd_profile(
        SimTime::milliseconds(s.flash_at_ms),
        SimTime::milliseconds(s.flash_len_ms), s.flash_x);
  } else if (s.shape == "diurnal") {
    tmpl.rate_profile = diurnal_profile(
        SimTime::milliseconds(s.diurnal_period_ms), s.diurnal_min,
        SimTime::milliseconds(s.warmup_ms + s.measure_ms));
  }
  if (s.skew > 0.0 || s.hotspot_rack.has_value()) {
    const auto groups = core::build_group_pairs(s.total_servers());
    std::vector<double> weights(groups.size(), 1.0);
    if (s.skew > 0.0) {
      weights = zipf_weights(groups.size(), s.skew);
    }
    if (s.hotspot_rack.has_value()) {
      const std::vector<double> hot = hotspot_group_weights(
          groups, s.servers_per_rack, *s.hotspot_rack, s.hotspot_share);
      for (std::size_t i = 0; i < weights.size(); ++i) {
        weights[i] *= hot[i];
      }
    }
    tmpl.group_weights = std::move(weights);
  }
}

}  // namespace

Scheme parse_scheme(const std::string& name) {
  const std::string n = lower(name);
  if (n == "baseline") {
    return Scheme::kBaseline;
  }
  if (n == "cclone" || n == "c-clone") {
    return Scheme::kCClone;
  }
  if (n == "laedge") {
    return Scheme::kLaedge;
  }
  if (n == "netclone") {
    return Scheme::kNetClone;
  }
  if (n == "netclone-nofilter") {
    return Scheme::kNetCloneNoFilter;
  }
  if (n == "racksched") {
    return Scheme::kRackSched;
  }
  if (n == "netclone-racksched") {
    return Scheme::kNetCloneRackSched;
  }
  throw ScenarioError{"unknown scheme: " + name};
}

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  std::stringstream stream{text};
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) {
      continue;
    }
    // Every parse problem below — missing '=', a bad numeric value, an
    // unknown key, a malformed fault entry — is rethrown with the line
    // number prefixed, so file diagnostics always point at the spot.
    try {
      const auto eq = line.find('=');
      if (eq == std::string::npos) {
        throw ScenarioError{"expected 'key = value'"};
      }
      const std::string key = lower(trim(line.substr(0, eq)));
      const std::string value = trim(line.substr(eq + 1));
      if (value.empty()) {
        throw ScenarioError{"empty value for '" + key + "'"};
      }

      if (key == "scheme") {
        scenario.scheme = parse_scheme(value);
      } else if (key == "servers") {
        scenario.servers = parse_u64(value, key);
      } else if (key == "workers") {
        scenario.workers =
            static_cast<std::uint32_t>(parse_u64(value, key));
      } else if (key == "clients") {
        scenario.clients = parse_u64(value, key);
      } else if (key == "workload") {
        scenario.workload = lower(value);
      } else if (key == "mean_us") {
        scenario.mean_us = parse_double(value, key);
      } else if (key == "bimodal_short_us") {
        scenario.bimodal_short_us = parse_double(value, key);
      } else if (key == "bimodal_long_us") {
        scenario.bimodal_long_us = parse_double(value, key);
      } else if (key == "bimodal_short_fraction") {
        scenario.bimodal_short_fraction = parse_double(value, key);
      } else if (key == "get_fraction") {
        scenario.get_fraction = parse_double(value, key);
      } else if (key == "kv_objects") {
        scenario.kv_objects = parse_u64(value, key);
      } else if (key == "jitter_p") {
        scenario.jitter_p = parse_double(value, key);
      } else if (key == "jitter_multiplier") {
        scenario.jitter_multiplier = parse_double(value, key);
      } else if (key == "noise") {
        scenario.noise = parse_double(value, key);
      } else if (key == "loads") {
        scenario.loads = parse_load_list(value);
      } else if (key == "measure_ms") {
        scenario.measure_ms = parse_double(value, key);
      } else if (key == "warmup_ms") {
        scenario.warmup_ms = parse_double(value, key);
      } else if (key == "seed") {
        scenario.seed = parse_u64(value, key);
      } else if (key == "csv") {
        scenario.csv_path = value;
      } else if (key == "title") {
        scenario.title = value;
      } else if (key == "racks") {
        scenario.racks = parse_u64(value, key);
      } else if (key == "servers_per_rack") {
        scenario.servers_per_rack = parse_u64(value, key);
      } else if (key == "aggs") {
        scenario.aggs = parse_u64(value, key);
      } else if (key == "agg_mode") {
        scenario.agg_mode = lower(value);
      } else if (key == "shape") {
        scenario.shape = lower(value);
      } else if (key == "flash_at_ms") {
        scenario.flash_at_ms = parse_double(value, key);
      } else if (key == "flash_len_ms") {
        scenario.flash_len_ms = parse_double(value, key);
      } else if (key == "flash_x") {
        scenario.flash_x = parse_double(value, key);
      } else if (key == "diurnal_period_ms") {
        scenario.diurnal_period_ms = parse_double(value, key);
      } else if (key == "diurnal_min") {
        scenario.diurnal_min = parse_double(value, key);
      } else if (key == "skew") {
        scenario.skew = parse_double(value, key);
      } else if (key == "hotspot_rack") {
        scenario.hotspot_rack = parse_u64(value, key);
      } else if (key == "hotspot_share") {
        scenario.hotspot_share = parse_double(value, key);
      } else if (key == "fault") {
        try {
          scenario.faults.events.push_back(parse_fault_entry(value));
        } catch (const FaultPlanError& err) {
          throw ScenarioError{err.what()};
        }
      } else {
        throw ScenarioError{"unknown key '" + key + "'"};
      }
    } catch (const ScenarioError& err) {
      throw ScenarioError{"line " + std::to_string(line_no) + ": " +
                          err.what()};
    }
  }

  if (scenario.racks == 0) {
    if (scenario.servers < 2) {
      throw ScenarioError{"'servers' must be >= 2"};
    }
    if (scenario.hotspot_rack.has_value()) {
      throw ScenarioError{
          "'hotspot_rack' needs a rack structure (set racks >= 1)"};
    }
  } else {
    if (scenario.servers_per_rack < 1) {
      throw ScenarioError{"'servers_per_rack' must be >= 1"};
    }
    if (scenario.racks * scenario.servers_per_rack < 2) {
      throw ScenarioError{
          "the fat tree needs at least two servers in total"};
    }
    if (scenario.aggs < 1) {
      throw ScenarioError{"'aggs' must be >= 1"};
    }
    if (scenario.agg_mode != "oblivious" &&
        scenario.agg_mode != "replicated") {
      throw ScenarioError{"unknown agg_mode: " + scenario.agg_mode +
                          " (expected oblivious | replicated)"};
    }
    if (scenario.scheme != Scheme::kNetClone) {
      throw ScenarioError{
          "multi-rack scenarios (racks >= 1) support scheme = netclone "
          "only"};
    }
    if (scenario.hotspot_rack.has_value() &&
        *scenario.hotspot_rack >= scenario.racks) {
      throw ScenarioError{"'hotspot_rack' names rack " +
                          std::to_string(*scenario.hotspot_rack) +
                          " but only " + std::to_string(scenario.racks) +
                          " racks exist"};
    }
  }
  if (scenario.clients < 1) {
    throw ScenarioError{"'clients' must be >= 1"};
  }
  const bool known_workload =
      scenario.workload == "exp" || scenario.workload == "bimodal" ||
      scenario.workload == "fixed" || scenario.workload == "redis" ||
      scenario.workload == "memcached";
  if (!known_workload) {
    throw ScenarioError{"unknown workload: " + scenario.workload};
  }
  if (scenario.shape != "steady" && scenario.shape != "flash" &&
      scenario.shape != "diurnal") {
    throw ScenarioError{"unknown shape: " + scenario.shape +
                        " (expected steady | flash | diurnal)"};
  }
  if (scenario.shape == "flash" &&
      (scenario.flash_x <= 0.0 || scenario.flash_len_ms <= 0.0 ||
       scenario.flash_at_ms < 0.0)) {
    throw ScenarioError{
        "flash crowd needs flash_at_ms >= 0, flash_len_ms > 0, "
        "flash_x > 0"};
  }
  if (scenario.shape == "diurnal" &&
      (scenario.diurnal_period_ms <= 0.0 || scenario.diurnal_min <= 0.0 ||
       scenario.diurnal_min > 1.0)) {
    throw ScenarioError{
        "diurnal curve needs diurnal_period_ms > 0 and diurnal_min in "
        "(0, 1]"};
  }
  if (scenario.skew < 0.0) {
    throw ScenarioError{"'skew' must be >= 0"};
  }
  if (scenario.hotspot_rack.has_value() &&
      (scenario.hotspot_share <= 0.0 || scenario.hotspot_share >= 1.0)) {
    throw ScenarioError{"'hotspot_share' must be in (0, 1)"};
  }
  return scenario;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw ScenarioError{"cannot open scenario file: " + path};
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_scenario(buffer.str());
  } catch (const ScenarioError& err) {
    throw ScenarioError{path + ": " + err.what()};
  }
}

std::size_t Scenario::total_servers() const {
  return racks == 0 ? servers : racks * servers_per_rack;
}

ClusterConfig Scenario::build_config() const {
  ClusterConfig cfg;
  cfg.scheme = scheme;
  cfg.num_clients = clients;
  cfg.server_workers.assign(servers, workers);
  cfg.warmup = SimTime::milliseconds(warmup_ms);
  cfg.measure = SimTime::milliseconds(measure_ms);
  cfg.seed = seed;
  cfg.faults = faults;
  make_workload(*this, cfg.factory, cfg.service);
  apply_traffic_shape(*this, cfg.client_template);
  return cfg;
}

MultiRackConfig Scenario::build_multirack_config() const {
  NETCLONE_CHECK(racks >= 1,
                 "build_multirack_config needs a fat-tree scenario "
                 "(racks >= 1)");
  MultiRackConfig cfg;
  cfg.server_racks = racks;
  cfg.servers_per_rack = servers_per_rack;
  cfg.num_aggs = aggs;
  cfg.agg_mode = agg_mode == "replicated" ? AggMode::kReplicated
                                          : AggMode::kOblivious;
  cfg.workers = workers;
  cfg.num_clients = clients;
  cfg.warmup = SimTime::milliseconds(warmup_ms);
  cfg.measure = SimTime::milliseconds(measure_ms);
  cfg.seed = seed;
  cfg.faults = faults;
  make_workload(*this, cfg.factory, cfg.service);
  apply_traffic_shape(*this, cfg.client_template);
  return cfg;
}

double Scenario::capacity_rps() const {
  std::shared_ptr<host::RequestFactory> factory;
  std::shared_ptr<host::ServiceModel> service;
  make_workload(*this, factory, service);
  const double inflation = 1.0 + jitter_p * (jitter_multiplier - 1.0);
  const std::vector<std::uint32_t> worker_counts(total_servers(), workers);
  return cluster_capacity_rps(worker_counts,
                              factory->mean_intrinsic_us() * inflation);
}

std::vector<SweepPoint> Scenario::run() const {
  std::vector<SweepPoint> points;
  std::string workload_label;
  if (racks == 0) {
    const ClusterConfig cfg = build_config();
    points = run_sweep(cfg, capacity_rps(), loads);
    workload_label = cfg.factory->label();
  } else {
    const MultiRackConfig base = build_multirack_config();
    workload_label = base.factory->label();
    const double cap = capacity_rps();
    std::uint64_t salt = 0;
    for (const double fraction : loads) {
      MultiRackConfig cfg = base;
      cfg.offered_rps = cap * fraction;
      cfg.seed = base.seed + 1000 * ++salt;
      MultiRackExperiment experiment{cfg};
      points.push_back(SweepPoint{fraction, experiment.run()});
    }
  }
  print_series(title + " — " + std::string{scheme_name(scheme)} + " — " +
                   workload_label,
               points);
  if (csv_path) {
    if (write_csv(*csv_path, points)) {
      std::printf("wrote %s\n", csv_path->c_str());
    }
  }
  return points;
}

std::string default_scenario_text() {
  return R"(# NetClone simulator scenario (all keys optional; defaults shown)
scheme     = netclone    # baseline | cclone | laedge | netclone |
                         # netclone-nofilter | racksched | netclone-racksched
servers    = 6
workers    = 16
clients    = 2
workload   = exp         # exp | bimodal | fixed | redis | memcached
mean_us    = 25          # exp / fixed intrinsic mean
# bimodal_short_us = 25
# bimodal_long_us  = 250
# bimodal_short_fraction = 0.9
# get_fraction = 0.99    # kv workloads: GET share (rest are SCANs)
# kv_objects   = 100000
jitter_p   = 0.01        # paper: 0.01 high / 0.001 low variability
jitter_multiplier = 15
noise      = 0.08        # per-execution microvariation (stddev)
loads      = 0.1,0.3,0.5,0.7,0.9
measure_ms = 25
warmup_ms  = 5
seed       = 1
# csv      = sweep.csv   # export the series
title      = scenario
# Multi-rack fat tree (racks >= 1 replaces `servers` with the pod below;
# netclone scheme only).
# racks            = 3
# servers_per_rack = 3
# aggs             = 2      # parallel aggregation switches
# agg_mode         = oblivious  # oblivious | replicated (chain-replicated
#                               # NetClone-aware aggregation tier)
# Production traffic shapes (compile into client rate profiles/weights).
# shape            = steady # steady | flash | diurnal
# flash_at_ms      = 10
# flash_len_ms     = 5
# flash_x          = 4      # rate multiplier during the crowd
# diurnal_period_ms = 20
# diurnal_min      = 0.25   # trough multiplier
# skew             = 0      # Zipf exponent over candidate groups
# hotspot_rack     = 0      # concentrate load on one rack's groups
# hotspot_share    = 0.5    # share of draws on the hot rack
# Timed faults (repeatable). Single-rack targets: links c<N>-sw0 /
# sw0-s<N>, servers s<N>, switch sw0.
# fault    = at=2s link_down sw0-s3
# fault    = at=2.5s link_up sw0-s3
# fault    = at=3s corrupt_rate sw0-s1 1e-4
# fault    = at=4s server_crash s2
# fault    = at=4.5s server_restart s2
# fault    = at=5s switch_wipe sw0
# Fat-tree targets (racks >= 1): switches tor1/tor2../agg<N>, links
# tor1-agg0 / agg0-agg1 / tor2-s0, servers s<N> (global id), whole racks
# rack<N>, and the managed chain fail-over pair (agg_mode = replicated):
# fault    = at=2ms agg_fail agg1
# fault    = at=5ms agg_rejoin agg1
# fault    = at=3ms rack_down rack0
# fault    = at=4ms rack_up rack0
)";
}

}  // namespace netclone::harness
