// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload rack_exp25|pod_chain|kv_rw --seed N --seconds S
//             --trace 0|1 [--window-us W,M,D] [--expect-digest D]
//             [--report PATH] [--spans PATH]
//
// One single-threaded process builds and runs the workload's clusters
// through the public harness API, repeating its sub-runs until S seconds
// are spent, and pins each repetition to the next allowed CPU in turn.
// Every repetition passes harness::audit_invariants and must reproduce
// its sub-run's chaos digest; the run's digest must equal --expect-digest
// when one is given. The last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/README.md defines every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "probe.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::SubRun;
namespace nc = netclone;

/// The committed bench_host_path / bench_multirack baselines.
constexpr std::uint64_t kRackCanonicalSeed = 1;
constexpr std::uint64_t kRackCanonicalCompleted = 54336;
constexpr std::int64_t kRackCanonicalP99Ns = 154624;
constexpr std::uint64_t kPodCanonicalSeed = 23;
constexpr std::uint64_t kPodCanonicalDigest = 13682921268000248500ULL;

/// kv_rw repetitions that populate a fresh store: enough set-up samples
/// for a median, few enough to leave most of the budget to run().
constexpr std::size_t kFreshStores = 3;

/// HostProbe::sample() at the median of the quiet periods on the 4-vCPU
/// Sapphire Rapids guest the benchmark was tuned on; it only sets the
/// scale of scaled_rpcs_per_s.
constexpr double kProbeReferenceS = 0.018;

/// Spans kept for the spans file; aggregates stay exact beyond it.
constexpr std::size_t kMaxStoredSpans = 250000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  perfbench::Window window;
  std::optional<std::uint64_t> expect_digest;
  std::string report_path;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--window-us W,M,D] "
               "[--expect-digest D] [--report PATH] [--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    usage(std::string{"bad "} + what + ": " + text);
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(value, "seed");
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(value, "seconds"));
    } else if (flag == "--trace") {
      opt.trace = parse_u64(value, "trace") != 0;
    } else if (flag == "--window-us") {
      std::stringstream in{value};
      std::string part;
      std::vector<std::int64_t> us;
      while (std::getline(in, part, ',')) {
        us.push_back(static_cast<std::int64_t>(parse_u64(part, "window")));
      }
      if (us.size() != 3 || us[1] <= 0) {
        usage("--window-us needs warmup,measure,drain");
      }
      opt.window.warmup = nc::SimTime::nanoseconds(us[0] * 1000);
      opt.window.measure = nc::SimTime::nanoseconds(us[1] * 1000);
      opt.window.drain = nc::SimTime::nanoseconds(us[2] * 1000);
    } else if (flag == "--expect-digest") {
      opt.expect_digest = parse_u64(value, "digest");
    } else if (flag == "--report") {
      opt.report_path = value;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) {
    usage("--workload is required");
  }
  return opt;
}

// -- host ------------------------------------------------------------------

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(static_cast<std::size_t>(c), &mask)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(static_cast<std::size_t>(cpu), &mask);
  static_cast<void>(sched_setaffinity(0, sizeof(mask), &mask));
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(std::min(colon + 2, line.size()));
      }
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double elapsed_s(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// -- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double rpcs_per_s(const SubRun& s) {
  return ratio(static_cast<double>(s.completed), s.run_s);
}

std::uint64_t fold_digest(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

// -- output ----------------------------------------------------------------

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One timed repetition, as recorded in the report.
struct Rep {
  std::size_t sub = 0;
  int cpu = -1;
  bool traced = false;
  double probe_s = 0.0;  // mean HostProbe::sample() around the repetition
  SubRun run;
};

/// Correctness bookkeeping of the whole benchmark run.
struct Verdict {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) { failures.push_back(why); }
};

/// Checks one repetition and counts its requests.
void judge(const Rep& rep, const std::vector<std::uint64_t>& sub_digests,
           Verdict& verdict) {
  const SubRun& s = rep.run;
  verdict.attempted += s.requests_sent;
  bool ok = true;
  if (!s.audit_ok) {
    verdict.fail("seed " + std::to_string(s.seed) +
                 ": invariant audit failed: " + s.audit_text);
    ok = false;
  }
  if (rep.sub < sub_digests.size() && sub_digests[rep.sub] != s.digest) {
    verdict.fail("seed " + std::to_string(s.seed) +
                 ": repeat run diverged (digest " +
                 std::to_string(s.digest) + " vs " +
                 std::to_string(sub_digests[rep.sub]) + ")");
    ok = false;
  }
  if (s.completed_in_window == 0) {
    verdict.fail("seed " + std::to_string(s.seed) +
                 ": no completions in the window");
    ok = false;
  }
  verdict.failed += ok ? s.incomplete : s.requests_sent;
}

void check_canonical(const Options& opt, const perfbench::WorkloadSpec& spec,
                     const SubRun& first, Verdict& verdict) {
  if (!opt.window.is_default()) {
    return;
  }
  if (spec.name == "rack_exp25" && opt.seed == kRackCanonicalSeed &&
      (first.completed_in_window != kRackCanonicalCompleted ||
       first.latency.p99().ns() != kRackCanonicalP99Ns)) {
    verdict.fail("rack_exp25 seed 1 left the committed baseline: " +
                 std::to_string(first.completed_in_window) +
                 " completions, p99 " +
                 std::to_string(first.latency.p99().ns()) + " ns");
    verdict.failed = verdict.attempted;
  }
  if (spec.name == "pod_chain" && opt.seed == kPodCanonicalSeed &&
      first.digest != kPodCanonicalDigest) {
    verdict.fail("pod_chain seed 23 left the committed digest: " +
                 std::to_string(first.digest));
    verdict.failed = verdict.attempted;
  }
}

/// Sums the exact counters of the first pass over the sub-runs.
SubRun pooled(const std::vector<const SubRun*>& runs) {
  SubRun sum;
  for (const SubRun* s : runs) {
    sum.requests_sent += s->requests_sent;
    sum.completed += s->completed;
    sum.completed_in_window += s->completed_in_window;
    sum.incomplete += s->incomplete;
    sum.retransmissions += s->retransmissions;
    sum.host_tx_frames += s->host_tx_frames;
    sum.latency.merge(s->latency);
    sum.server_wait.merge(s->server_wait);
    sum.server_service.merge(s->server_service);
    sum.measure_s += s->measure_s;
    sum.executed_events += s->executed_events;
    sum.absorbed_events += s->absorbed_events;
    sum.pool_acquired += s->pool_acquired;
    sum.pool_recycled += s->pool_recycled;
    sum.link_frames += s->link_frames;
    sum.link_bytes += s->link_bytes;
    sum.link_drops += s->link_drops;
    sum.host_rx_frames += s->host_rx_frames;
    sum.passes += s->passes;
    sum.recirculated += s->recirculated;
    sum.multicast_copies += s->multicast_copies;
    sum.cloned += s->cloned;
    sum.filtered += s->filtered;
    sum.write_requests += s->write_requests;
    sum.chain_forwards += s->chain_forwards;
    sum.stale_clone_drops += s->stale_clone_drops;
  }
  return sum;
}

/// Median over the sub-runs of each one's latency quantile `q`, in
/// microseconds. A sub-run's tail is set by a few rare queueing episodes
/// (a jittered SCAN, a burst of clones); one such episode moves the
/// median of the sub-runs far less than it moves the pooled quantile.
double median_quantile_us(const std::vector<const SubRun*>& runs, double q) {
  std::vector<double> values;
  for (const SubRun* s : runs) {
    values.push_back(static_cast<double>(s->latency.percentile(q).ns()) /
                     1e3);
  }
  return median(values);
}

/// Simulated RPCs over host seconds of run(), summed over the untraced
/// repetitions.
double raw_rpcs_per_s(const std::vector<Rep>& reps) {
  double completed = 0.0;
  double run_s = 0.0;
  for (const Rep& rep : reps) {
    if (!rep.traced) {
      completed += static_cast<double>(rep.run.completed);
      run_s += rep.run.run_s;
    }
  }
  return ratio(completed, run_s);
}

/// Median host set-up time; on kv_rw only the repetitions that populated
/// their own store count.
double median_setup_s(const std::vector<Rep>& reps) {
  std::vector<double> setups;
  for (const Rep& rep : reps) {
    if (!rep.run.reused_store) {
      setups.push_back(rep.run.setup_s);
    }
  }
  return median(setups);
}

double mean_probe_s(const std::vector<Rep>& reps) {
  double sum = 0.0;
  for (const Rep& rep : reps) {
    sum += rep.probe_s;
  }
  return ratio(sum, static_cast<double>(reps.size()));
}

std::vector<Metric> end_to_end(const std::vector<Rep>& reps,
                               const std::vector<const SubRun*>& first,
                               const SubRun& p, const Verdict& verdict,
                               double rss_mb) {
  // Host times scaled by the run's mean probe time over kProbeReferenceS:
  // what a host whose probe takes kProbeReferenceS would show (README.md,
  // "Host noise").
  const double slowdown = mean_probe_s(reps) / kProbeReferenceS;
  return {
      {"scaled_rpcs_per_s", raw_rpcs_per_s(reps) * slowdown, "RPC/s"},
      {"setup_s", median_setup_s(reps) / slowdown, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"sim_p50_us", median_quantile_us(first, 0.50), "us"},
      {"sim_p99_us", median_quantile_us(first, 0.99), "us"},
      {"sim_goodput_rps",
       ratio(static_cast<double>(p.completed_in_window), p.measure_s),
       "RPC/s"},
      {"completed_ratio",
       1.0 - ratio(verdict.failed, verdict.attempted), "fraction"},
  };
}

std::vector<Metric> per_layer(const std::vector<Rep>& reps,
                              const std::vector<const SubRun*>& first,
                              const SubRun& p,
                              const perfbench::Tracer& tracer,
                              const perfbench::ReplayCosts& cost) {
  using perfbench::SpanKind;
  std::vector<double> ns_per_event;
  std::vector<double> overhead;
  std::vector<double> populate;
  std::vector<double> build;
  double traced_run_ns = 0.0;
  double est_sim = 0.0;
  double est_wire = 0.0;
  double est_phys = 0.0;
  double est_pisa = 0.0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const SubRun& s = reps[i].run;
    if (!s.reused_store) {
      populate.push_back(s.populate_s);
    }
    build.push_back(s.build_s);
    if (!reps[i].traced) {
      ns_per_event.push_back(
          ratio(s.run_s * 1e9, static_cast<double>(s.executed_events)));
      continue;
    }
    traced_run_ns += s.run_s * 1e9;
    est_sim += static_cast<double>(s.executed_events) * cost.event_ns;
    est_wire += static_cast<double>(s.host_tx_frames) * cost.build_ns +
                static_cast<double>(s.host_rx_frames) *
                    (cost.parse_ns + cost.verify_ns);
    est_phys += static_cast<double>(s.link_frames) * cost.hop_ns;
    est_pisa += static_cast<double>(s.passes) * cost.pass_ns;
    // Reps come in traced/untraced pairs on one CPU.
    const std::size_t partner = i % 2 == 0 ? i + 1 : i - 1;
    if (partner < reps.size()) {
      overhead.push_back(1.0 - ratio(rpcs_per_s(s),
                                     rpcs_per_s(reps[partner].run)));
    }
  }
  const auto service_time = tracer.totals(SpanKind::kServiceTime);
  const auto service_exec = tracer.totals(SpanKind::kServiceExec);
  const auto factory = tracer.totals(SpanKind::kFactory);
  const auto op_ns = [&](nc::wire::RpcOp op) {
    const auto o = static_cast<std::uint8_t>(op);
    const auto t = tracer.totals(SpanKind::kServiceTime, o);
    const auto e = tracer.totals(SpanKind::kServiceExec, o);
    return ratio(static_cast<double>(t.ns + e.ns),
                 static_cast<double>(e.count));
  };
  const double host_ns =
      static_cast<double>(service_time.ns + service_exec.ns + factory.ns);
  const double residual_ns = traced_run_ns - host_ns;
  const double rpcs = static_cast<double>(p.completed);
  const auto per_rpc = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), rpcs);
  };
  return {
      {"sim.events_per_rpc", per_rpc(p.executed_events), "count"},
      {"sim.absorbed_share", ratio(p.absorbed_events, p.executed_events),
       "fraction"},
      {"sim.ns_per_event", median(ns_per_event), "ns"},
      {"sim.p999_us", median_quantile_us(first, 0.999), "us"},
      {"sim.event_ns", cost.event_ns, "ns"},
      {"sim.run_share", ratio(est_sim, traced_run_ns), "fraction"},
      {"wire.pool_acquires_per_rpc", per_rpc(p.pool_acquired), "count"},
      {"wire.pool_recycle_ratio", ratio(p.pool_recycled, p.pool_acquired),
       "fraction"},
      {"wire.build_ns", cost.build_ns, "ns"},
      {"wire.parse_ns", cost.parse_ns, "ns"},
      {"wire.verify_ns", cost.verify_ns, "ns"},
      {"wire.run_share", ratio(est_wire, traced_run_ns), "fraction"},
      {"phys.frames_per_rpc", per_rpc(p.link_frames), "count"},
      {"phys.bytes_per_rpc", per_rpc(p.link_bytes), "B"},
      {"phys.hop_ns", cost.hop_ns, "ns"},
      {"phys.drops", static_cast<double>(p.link_drops), "count"},
      {"phys.run_share", ratio(est_phys, traced_run_ns), "fraction"},
      {"pisa.passes_per_rpc", per_rpc(p.passes), "count"},
      {"pisa.recirculated_per_rpc", per_rpc(p.recirculated), "count"},
      {"pisa.multicast_copies_per_rpc", per_rpc(p.multicast_copies),
       "count"},
      {"pisa.pass_ns", cost.pass_ns, "ns"},
      {"pisa.run_share", ratio(est_pisa, traced_run_ns), "fraction"},
      {"core.clone_ratio", ratio(p.cloned, p.requests_sent), "fraction"},
      {"core.filter_ratio", ratio(p.filtered, p.cloned), "fraction"},
      {"core.write_share", ratio(p.write_requests, p.requests_sent),
       "fraction"},
      {"core.chain_forwards_per_rpc", per_rpc(p.chain_forwards), "count"},
      {"host.service_ns",
       ratio(static_cast<double>(service_time.ns + service_exec.ns),
             static_cast<double>(service_exec.count)),
       "ns"},
      {"host.factory_ns",
       ratio(static_cast<double>(factory.ns),
             static_cast<double>(factory.count)),
       "ns"},
      {"host.run_share", ratio(host_ns, traced_run_ns), "fraction"},
      {"host.stale_clone_drops_per_clone",
       ratio(p.stale_clone_drops, p.cloned), "fraction"},
      {"host.server_wait_p99_us",
       static_cast<double>(p.server_wait.p99().ns()) / 1e3, "us"},
      {"host.server_service_p99_us",
       static_cast<double>(p.server_service.p99().ns()) / 1e3, "us"},
      {"host.retransmissions", static_cast<double>(p.retransmissions),
       "count"},
      {"kv.populate_s", median(populate), "s"},
      {"kv.get_ns", op_ns(nc::wire::RpcOp::kGet), "ns"},
      {"kv.scan_ns", op_ns(nc::wire::RpcOp::kScan), "ns"},
      {"harness.build_s", median(build), "s"},
      {"trace.residual_coverage",
       ratio(est_sim + est_wire + est_phys + est_pisa, residual_ns),
       "fraction"},
      {"trace.overhead", median(overhead), "fraction"},
      {"bench.raw_rpcs_per_s", raw_rpcs_per_s(reps), "RPC/s"},
      {"bench.raw_setup_s", median_setup_s(reps), "s"},
      {"bench.probe_ms", mean_probe_s(reps) * 1e3, "ms"},
  };
}

/// {"name": {"value": v, "unit": "u"}, ...}
std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

std::string report_json(const Options& opt, const std::vector<Rep>& reps,
                        const std::vector<int>& cpus,
                        std::uint64_t run_digest, const Verdict& verdict,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"digest\": " << json_string(std::to_string(run_digest))
      << ", \"host\": {\"cpu_model\": " << json_string(cpu_model())
      << ", \"hw_threads\": " << std::thread::hardware_concurrency()
      << ", \"allowed_cpus\": [";
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    out << (i > 0 ? ", " : "") << cpus[i];
  }
  out << "]}, \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    out << (i > 0 ? ", " : "") << "{\"seed\": " << r.run.seed
        << ", \"cpu\": " << r.cpu << ", \"traced\": " << (r.traced ? 1 : 0)
        << ", \"probe_s\": " << json_number(r.probe_s)
        << ", \"setup_s\": " << json_number(r.run.setup_s)
        << ", \"run_s\": " << json_number(r.run.run_s)
        << ", \"rpcs_per_s\": " << json_number(rpcs_per_s(r.run)) << "}";
  }
  out << "], \"failures\": [";
  for (std::size_t i = 0; i < verdict.failures.size(); ++i) {
    out << (i > 0 ? ", " : "") << json_string(verdict.failures[i]);
  }
  out << "], \"metrics\": " << metrics_json(metrics) << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(opt.workload);
  if (spec == nullptr) {
    usage("unknown workload " + opt.workload);
  }
  const std::vector<int> cpus = allowed_cpus();
  std::printf("host: %s, %u hw threads, %zu allowed CPUs\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              cpus.size());
  const auto start = std::chrono::steady_clock::now();
  const std::size_t subs = spec->sub_runs;
  // The traced run spends the tail of its budget in the replay rigs.
  const double loop_s = opt.trace ? 0.7 * opt.seconds : opt.seconds;

  perfbench::Tracer tracer{opt.trace ? kMaxStoredSpans : 0};
  perfbench::HostProbe probe;
  // kv_rw: the first kFreshStores repetitions populate their own store
  // (the set-up a user pays); later repetitions, and the second run of a
  // traced pair, reuse the last one.
  perfbench::Store store;
  std::vector<Rep> reps;
  std::vector<std::uint64_t> sub_digests;
  Verdict verdict;
  for (std::size_t r = 0; reps.size() < (opt.trace ? 2 * subs : subs) ||
                          elapsed_s(start) < loop_s;
       ++r) {
    const int cpu = cpus.empty() ? -1 : cpus[r % cpus.size()];
    if (cpu >= 0) {
      pin_to(cpu);
    }
    const std::size_t sub = r % subs;
    const std::uint64_t seed = perfbench::harness_seed(opt.seed, sub);
    // A traced run measures pairs on one CPU: traced and untraced, in
    // alternating order so neither side always runs first.
    const int per_cpu = opt.trace ? 2 : 1;
    for (int k = 0; k < per_cpu; ++k) {
      Rep rep;
      rep.sub = sub;
      rep.cpu = cpu;
      rep.traced = opt.trace && (k == static_cast<int>(r % 2));
      if (r < kFreshStores && k == 0) {
        store.reset();
      }
      // One probe on each side of the repetition, on its CPU.
      rep.probe_s = probe.sample();
      rep.run = perfbench::run_sub(*spec, seed, opt.window,
                                   rep.traced ? &tracer : nullptr, store);
      rep.probe_s = 0.5 * (rep.probe_s + probe.sample());
      rep.cpu = sched_getcpu();
      judge(rep, sub_digests, verdict);
      if (sub_digests.size() == sub) {
        sub_digests.push_back(rep.run.digest);
      }
      std::printf("rep %zu seed %llu cpu %d%s probe %.3f ms setup %.4f s "
                  "run %.4f s %.0f RPC/s p99 %lld digest %llu\n",
                  reps.size(), static_cast<unsigned long long>(seed),
                  rep.cpu, rep.traced ? " traced" : "", rep.probe_s * 1e3,
                  rep.run.setup_s,
                  rep.run.run_s, rpcs_per_s(rep.run),
                  static_cast<long long>(rep.run.latency.p99().ns()),
                  static_cast<unsigned long long>(rep.run.digest));
      reps.push_back(std::move(rep));
    }
  }

  // The first pass over the sub-runs (untraced ones in a traced run; the
  // counters are identical either way, the digests prove it).
  std::vector<const SubRun*> first;
  for (std::size_t s = 0; s < subs; ++s) {
    for (const Rep& rep : reps) {
      if (rep.sub == s && !rep.traced) {
        first.push_back(&rep.run);
        break;
      }
    }
  }
  std::uint64_t run_digest = 14695981039346656037ULL;
  for (const SubRun* s : first) {
    run_digest = fold_digest(run_digest, s->digest);
  }
  check_canonical(opt, *spec, *first.front(), verdict);
  if (opt.expect_digest && *opt.expect_digest != run_digest) {
    verdict.fail("run digest " + std::to_string(run_digest) +
                 " != expected " + std::to_string(*opt.expect_digest));
    verdict.failed = verdict.attempted;
  }
  const SubRun pass = pooled(first);
  // The probe's arrays stay resident from the start, so they add a
  // constant to the peak; take it out.
  const double rss_mb =
      peak_rss_mb() - static_cast<double>(probe.bytes()) / (1024.0 * 1024.0);

  std::vector<Metric> metrics;
  if (opt.trace) {
    const perfbench::ReplayCosts cost = perfbench::measure_replay(
        perfbench::make_inputs(*spec, store), opt.seed,
        ratio(pass.cloned, pass.requests_sent),
        std::max(0.5, opt.seconds - elapsed_s(start)), &tracer);
    metrics = per_layer(reps, first, pass, tracer, cost);
    if (!opt.spans_path.empty() && !tracer.write_csv(opt.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_path.c_str());
    }
    std::printf("spans: %zu stored, %llu beyond the cap\n", tracer.stored(),
                static_cast<unsigned long long>(tracer.dropped()));
  } else {
    metrics = end_to_end(reps, first, pass, verdict, rss_mb);
  }

  const std::string report =
      report_json(opt, reps, cpus, run_digest, verdict, metrics);
  if (!opt.report_path.empty()) {
    std::ofstream file{opt.report_path};
    file << report << "\n";
  }
  for (const std::string& why : verdict.failures) {
    std::printf("FAIL: %s\n", why.c_str());
  }
  std::printf("digest %llu\n", static_cast<unsigned long long>(run_digest));
  for (const Metric& m : metrics) {
    std::printf("%-34s %20.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              verdict.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed),
              metrics_json(metrics).c_str());
  return 0;
}
