// Fault-injection subsystem: plan parsing, scenario wiring, checksum
// verification on the receive path, retransmit backoff, fault application
// through Experiment, committed single-rack chaos digests, and a quick
// chaos sweep (the >=100-combo sweep lives in test_chaos_sweep.cpp, slow
// lane).
#include "harness/faults.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "chaos_util.hpp"
#include "common/check.hpp"
#include "harness/experiment.hpp"
#include "harness/invariants.hpp"
#include "harness/scenario.hpp"
#include "test_util.hpp"
#include "wire/frame.hpp"

namespace netclone {
namespace {

using harness::FaultAction;
using harness::FaultEvent;
using harness::FaultPlanError;
using harness::parse_fault_entry;
using netclone::testing::make_request;

// ---------------------------------------------------------------------------
// Fault-plan parsing

TEST(FaultPlanParse, LinkDownEntry) {
  const FaultEvent ev = parse_fault_entry("at=2s link_down sw0-s3");
  EXPECT_EQ(ev.at, SimTime::seconds(2.0));
  EXPECT_EQ(ev.action, FaultAction::kLinkDown);
  EXPECT_EQ(ev.target, "sw0-s3");
}

TEST(FaultPlanParse, RateEntryWithScientificNotation) {
  const FaultEvent ev = parse_fault_entry("at=3s corrupt_rate sw0-s1 1e-4");
  EXPECT_EQ(ev.at, SimTime::seconds(3.0));
  EXPECT_EQ(ev.action, FaultAction::kCorruptRate);
  EXPECT_EQ(ev.target, "sw0-s1");
  EXPECT_DOUBLE_EQ(ev.value, 1e-4);
}

TEST(FaultPlanParse, TimeUnits) {
  EXPECT_EQ(parse_fault_entry("at=1500ns switch_wipe sw0").at,
            SimTime::nanoseconds(1500));
  EXPECT_EQ(parse_fault_entry("at=250us switch_wipe sw0").at,
            SimTime::microseconds(250.0));
  EXPECT_EQ(parse_fault_entry("at=3.5ms switch_wipe sw0").at,
            SimTime::milliseconds(3.5));
  EXPECT_EQ(parse_fault_entry("at=2.5s switch_wipe sw0").at,
            SimTime::seconds(2.5));
}

TEST(FaultPlanParse, FilterStaleEntry) {
  const FaultEvent ev = parse_fault_entry("at=5ms filter_stale sw0 1 12345");
  EXPECT_EQ(ev.action, FaultAction::kFilterStale);
  EXPECT_EQ(ev.table, 1U);
  EXPECT_DOUBLE_EQ(ev.value, 12345.0);
}

TEST(FaultPlanParse, ServerActions) {
  EXPECT_EQ(parse_fault_entry("at=1ms server_crash s2").action,
            FaultAction::kServerCrash);
  EXPECT_EQ(parse_fault_entry("at=1ms server_restart s2").action,
            FaultAction::kServerRestart);
  EXPECT_EQ(parse_fault_entry("at=1ms server_pause s0").action,
            FaultAction::kServerPause);
  EXPECT_EQ(parse_fault_entry("at=1ms server_resume s0").action,
            FaultAction::kServerResume);
  const FaultEvent slow = parse_fault_entry("at=1ms server_slowdown s1 4");
  EXPECT_EQ(slow.action, FaultAction::kServerSlowdown);
  EXPECT_DOUBLE_EQ(slow.value, 4.0);
}

TEST(FaultPlanParse, Rejections) {
  EXPECT_THROW((void)parse_fault_entry(""), FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("link_down sw0-s3"), FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2x link_down sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=s link_down sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=-2s link_down sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s melt_down sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s link_down"), FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s link_down sw0-s3 0.5"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s drop_rate sw0-s3"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s drop_rate sw0-s3 -0.1"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s server_slowdown s1 0"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2s filter_stale sw0 0 0"),
               FaultPlanError);
}

TEST(FaultPlanParse, ActionNamesRoundTrip) {
  for (const FaultAction action :
       {FaultAction::kLinkDown, FaultAction::kDropRate,
        FaultAction::kServerCrash, FaultAction::kSwitchWipe,
        FaultAction::kFilterStale, FaultAction::kAggFail,
        FaultAction::kAggRejoin, FaultAction::kRackDown,
        FaultAction::kRackUp}) {
    const std::string name = harness::fault_action_name(action);
    EXPECT_NE(name, "?");
  }
}

TEST(FaultPlanParse, FatTreeActions) {
  EXPECT_EQ(parse_fault_entry("at=2ms agg_fail agg1").action,
            FaultAction::kAggFail);
  EXPECT_EQ(parse_fault_entry("at=3ms agg_rejoin agg1").action,
            FaultAction::kAggRejoin);
  EXPECT_EQ(parse_fault_entry("at=1ms rack_down rack0").action,
            FaultAction::kRackDown);
  EXPECT_EQ(parse_fault_entry("at=2ms rack_up rack0").action,
            FaultAction::kRackUp);
  EXPECT_EQ(parse_fault_entry("at=2ms agg_fail agg12").target, "agg12");
}

TEST(FaultPlanParse, FatTreeTargetRejections) {
  // Indexed targets are validated at parse time so a typo names the key
  // instead of exploding at fire time.
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_fail s0"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_fail agg"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_fail aggX"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_rejoin rack1"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms rack_down agg0"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms rack_down rack0x"),
               FaultPlanError);
  EXPECT_THROW((void)parse_fault_entry("at=2ms agg_fail agg0 0.5"),
               FaultPlanError);
}

// ---------------------------------------------------------------------------
// Multi-line plan parsing: file/line/key diagnostics

TEST(FaultPlanParse, MultiLinePlanWithCommentsAndBlanks) {
  const harness::FaultPlan plan = harness::parse_fault_plan(
      "# cluster-wide fault plan\n"
      "\n"
      "at=2ms agg_fail agg1      # kill the middle replica\n"
      "  at=3500us agg_rejoin agg1\n"
      "at=4ms rack_down rack0\n");
  ASSERT_EQ(plan.events.size(), 3U);
  EXPECT_EQ(plan.events[0].action, FaultAction::kAggFail);
  EXPECT_EQ(plan.events[0].target, "agg1");
  EXPECT_EQ(plan.events[1].at, SimTime::microseconds(3500.0));
  EXPECT_EQ(plan.events[2].action, FaultAction::kRackDown);
}

TEST(FaultPlanParse, PlanErrorCarriesLineNumber) {
  try {
    (void)harness::parse_fault_plan(
        "at=1ms server_crash s0\n"
        "# fine so far\n"
        "at=2ms melt_down agg0\n");
    FAIL() << "expected FaultPlanError";
  } catch (const FaultPlanError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("melt_down"), std::string::npos) << what;
  }
}

TEST(FaultPlanParse, PlanErrorCarriesSourceName) {
  try {
    (void)harness::parse_fault_plan("at=2ms agg_fail bogus\n", "plan.cfg");
    FAIL() << "expected FaultPlanError";
  } catch (const FaultPlanError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("plan.cfg: line 1:"), std::string::npos) << what;
    EXPECT_NE(what.find("agg_fail"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Scenario wiring

TEST(ScenarioFaults, RepeatableFaultKey) {
  const harness::Scenario scenario = harness::parse_scenario(
      "servers = 4\n"
      "fault = at=2s link_down sw0-s3\n"
      "fault = at=2.5s link_up sw0-s3   # recovery\n"
      "fault = at=3s corrupt_rate sw0-s1 1e-4\n");
  ASSERT_EQ(scenario.faults.events.size(), 3U);
  EXPECT_EQ(scenario.faults.events[0].action, FaultAction::kLinkDown);
  EXPECT_EQ(scenario.faults.events[1].action, FaultAction::kLinkUp);
  EXPECT_EQ(scenario.faults.events[2].action, FaultAction::kCorruptRate);
  const harness::ClusterConfig cfg = scenario.build_config();
  EXPECT_EQ(cfg.faults.events.size(), 3U);
}

TEST(ScenarioFaults, BadFaultLineReportsLineNumber) {
  try {
    (void)harness::parse_scenario("servers = 4\nfault = at=2s nonsense x\n");
    FAIL() << "expected ScenarioError";
  } catch (const harness::ScenarioError& err) {
    EXPECT_NE(std::string{err.what()}.find("line 2"), std::string::npos);
  }
}

TEST(ScenarioFaults, DefaultTextStillParses) {
  EXPECT_NO_THROW((void)harness::parse_scenario(
      harness::default_scenario_text()));
}

// ---------------------------------------------------------------------------
// Receive-path checksum verification (satellite: hand-flipped byte)

wire::FrameHandle request_frame() {
  wire::Packet pkt = make_request(1, 7, 0, 0);
  return wire::FrameHandle{pkt.serialize()};
}

TEST(ChecksumVerify, AcceptsCleanFrame) {
  EXPECT_TRUE(wire::verify_frame_checksums(request_frame()));
}

TEST(ChecksumVerify, RejectsFlippedPayloadByte) {
  const wire::Frame clean = request_frame().to_frame();
  // Flip one bit in every byte position past the Ethernet header; the
  // IPv4 or UDP checksum must catch each one.
  for (std::size_t off = 14; off < clean.size(); ++off) {
    wire::Frame bad = clean;
    bad[off] ^= std::byte{0x10};
    EXPECT_FALSE(wire::verify_frame_checksums(
        wire::FrameHandle::copy_of(bad)))
        << "flip at offset " << off << " was not detected";
  }
}

TEST(ChecksumVerify, RejectsFlippedByteInSplitFrame) {
  const wire::Frame clean = request_frame().to_frame();
  // Split at an odd boundary inside the UDP segment so verification has
  // to form the straddle word across the head/tail seam.
  for (const std::size_t boundary : {std::size_t{43}, std::size_t{63},
                                     std::size_t{64}}) {
    ASSERT_LT(boundary, clean.size());
    const auto head_span =
        std::span<const std::byte>{clean}.first(boundary);
    const auto tail_span =
        std::span<const std::byte>{clean}.subspan(boundary);
    const wire::FrameHandle split = wire::FrameHandle::compose(
        wire::FrameHandle::copy_of(head_span),
        wire::FrameHandle::copy_of(tail_span));
    ASSERT_TRUE(split.split());
    EXPECT_TRUE(wire::verify_frame_checksums(split))
        << "clean split at " << boundary << " rejected";

    wire::Frame bad = clean;
    bad[clean.size() - 1] ^= std::byte{0x01};  // last payload byte
    const wire::FrameHandle bad_split = wire::FrameHandle::compose(
        wire::FrameHandle::copy_of(
            std::span<const std::byte>{bad}.first(boundary)),
        wire::FrameHandle::copy_of(
            std::span<const std::byte>{bad}.subspan(boundary)));
    EXPECT_FALSE(wire::verify_frame_checksums(bad_split))
        << "split at " << boundary << " missed the flipped byte";
  }
}

TEST(ChecksumVerify, IgnoresNonIpAndNonUdpFrames) {
  // Too short for any checksum: accepted (nothing to verify).
  wire::Frame tiny(10, std::byte{0xAA});
  EXPECT_TRUE(wire::verify_frame_checksums(wire::FrameHandle::copy_of(tiny)));

  // Non-IPv4 EtherType: accepted untouched.
  wire::Frame arp = request_frame().to_frame();
  arp[12] = std::byte{0x08};
  arp[13] = std::byte{0x06};
  EXPECT_TRUE(wire::verify_frame_checksums(wire::FrameHandle::copy_of(arp)));
}

TEST(ChecksumVerify, ClientAndServerCountDrops) {
  // End to end: a corrupting link between client and switch makes the
  // receivers count checksum_drops instead of mis-parsing garbage.
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(7);
  cfg.faults.events.push_back(
      parse_fault_entry("at=600us corrupt_rate sw0-c0 0.05"));
  cfg.faults.events.push_back(
      parse_fault_entry("at=600us corrupt_rate s0-sw0 0.05"));
  harness::Experiment exp{cfg};
  (void)exp.run();
  std::uint64_t drops = 0;
  for (const host::Client* client : exp.clients()) {
    drops += client->stats().checksum_drops;
  }
  const phys::Link* corrupted = exp.link("sw0-c0");
  ASSERT_NE(corrupted, nullptr);
  EXPECT_GT(corrupted->stats().corrupted_frames, 0U);
  EXPECT_GT(drops, 0U);
  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Retransmit backoff (satellite: gaps grow and stay deterministic)

harness::ClusterConfig backoff_cluster() {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(42);
  // One closed-loop client with a single-request window: with the switch
  // down from t=0, the retransmit timeline belongs to exactly one request.
  cfg.num_clients = 1;
  cfg.client_template.loop = host::LoopMode::kClosedLoop;
  cfg.client_template.closed_loop_window = 1;
  cfg.client_template.retransmit_timeout = SimTime::microseconds(100.0);
  cfg.client_template.max_retransmits = 8;
  cfg.client_template.retransmit_backoff = 2.0;
  cfg.client_template.retransmit_cap = SimTime::zero();  // uncapped
  cfg.client_template.retransmit_jitter = 0.1;
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(40);
  cfg.drain = SimTime::milliseconds(20);
  cfg.faults.events.push_back(parse_fault_entry("at=0s switch_fail sw0"));
  return cfg;
}

std::vector<SimTime> retransmit_times(const harness::ClusterConfig& cfg) {
  harness::Experiment exp{cfg};
  (void)exp.run();
  return exp.clients()[0]->stats().retransmit_times;
}

TEST(RetransmitBackoff, GapsGrowExponentially) {
  const std::vector<SimTime> times = retransmit_times(backoff_cluster());
  ASSERT_EQ(times.size(), 8U);
  SimTime prev_gap = times[0];  // first gap is measured from t=0's send
  for (std::size_t i = 1; i < times.size(); ++i) {
    const SimTime gap = times[i] - times[i - 1];
    // backoff 2.0 with <= 10% jitter: every gap strictly exceeds the
    // previous one (2x growth dominates the jitter band).
    EXPECT_GT(gap, prev_gap) << "gap " << i << " did not grow";
    prev_gap = gap;
  }
  // The final gap is near timeout * 2^7 (within the jitter band).
  const double last_ns = static_cast<double>(
      (times[7] - times[6]).ns());
  EXPECT_GE(last_ns, 100e3 * 128.0);
  EXPECT_LE(last_ns, 100e3 * 128.0 * 1.1 + 1.0);
}

TEST(RetransmitBackoff, CapBoundsTheGaps) {
  harness::ClusterConfig cfg = backoff_cluster();
  cfg.client_template.retransmit_cap = SimTime::microseconds(300.0);
  const std::vector<SimTime> times = retransmit_times(cfg);
  ASSERT_EQ(times.size(), 8U);
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double gap_ns =
        static_cast<double>((times[i] - times[i - 1]).ns());
    EXPECT_LE(gap_ns, 300e3 * 1.1 + 1.0) << "gap " << i << " exceeds cap";
  }
}

TEST(RetransmitBackoff, DeterministicAcrossRuns) {
  const harness::ClusterConfig cfg = backoff_cluster();
  EXPECT_EQ(retransmit_times(cfg), retransmit_times(cfg));
}

TEST(RetransmitBackoff, JitterDrawsDoNotShiftWorkload) {
  // Arming retransmission must not consume workload-RNG draws: a run
  // whose timeout never fires (it exceeds the horizon) produces the same
  // arrival/completion counts as one with the machinery disabled.
  harness::ClusterConfig with = netclone::testing::chaos_cluster(11);
  with.client_template.retransmit_timeout = SimTime::milliseconds(50);
  harness::ClusterConfig without = netclone::testing::chaos_cluster(11);
  without.client_template.retransmit_timeout = SimTime::zero();
  harness::Experiment e1{with};
  harness::Experiment e2{without};
  const harness::ExperimentResult r1 = e1.run();
  const harness::ExperimentResult r2 = e2.run();
  EXPECT_EQ(r1.requests_sent, r2.requests_sent);
  EXPECT_EQ(r1.completed, r2.completed);
}

// ---------------------------------------------------------------------------
// Fault application through Experiment

TEST(ExperimentFaults, LinkLookupByName) {
  harness::Experiment exp{netclone::testing::chaos_cluster(3)};
  EXPECT_NE(exp.link("c0-sw0"), nullptr);
  EXPECT_NE(exp.link("sw0-c1"), nullptr);
  EXPECT_NE(exp.link("s2-sw0"), nullptr);
  EXPECT_NE(exp.link("sw0-s0"), nullptr);
  EXPECT_EQ(exp.link("sw0-s9"), nullptr);
  EXPECT_EQ(exp.link("bogus"), nullptr);
  // 2 clients + 3 servers, two directed links each.
  EXPECT_EQ(exp.links().size(), 10U);
}

TEST(ExperimentFaults, ApplyLinkAndServerAndSwitchFaults) {
  harness::Experiment exp{netclone::testing::chaos_cluster(4)};

  exp.apply_fault(parse_fault_entry("at=0s link_down sw0-s1"));
  EXPECT_FALSE(exp.link("sw0-s1")->is_up());
  exp.apply_fault(parse_fault_entry("at=0s link_up sw0-s1"));
  EXPECT_TRUE(exp.link("sw0-s1")->is_up());

  exp.apply_fault(parse_fault_entry("at=0s drop_rate c0-sw0 0.25"));
  exp.apply_fault(parse_fault_entry("at=0s corrupt_rate c0-sw0 0.125"));
  const phys::LinkImpairments* cfg = exp.link("c0-sw0")->impairments();
  ASSERT_NE(cfg, nullptr);
  EXPECT_DOUBLE_EQ(cfg->drop_rate, 0.25);    // merged, not overwritten
  EXPECT_DOUBLE_EQ(cfg->corrupt_rate, 0.125);

  exp.apply_fault(parse_fault_entry("at=0s server_crash s0"));
  EXPECT_TRUE(exp.servers()[0]->crashed());
  exp.apply_fault(parse_fault_entry("at=0s server_restart s0"));
  EXPECT_FALSE(exp.servers()[0]->crashed());
  exp.apply_fault(parse_fault_entry("at=0s server_slowdown s1 3"));
  EXPECT_DOUBLE_EQ(exp.servers()[1]->slowdown(), 3.0);

  exp.apply_fault(parse_fault_entry("at=0s switch_wipe sw0"));
  EXPECT_EQ(exp.tor().stats().soft_state_wipes, 1U);
  exp.apply_fault(parse_fault_entry("at=0s filter_stale sw0 0 777"));
  ASSERT_NE(exp.netclone_program(), nullptr);
  EXPECT_EQ(exp.netclone_program()->stats().injected_stale_entries, 1U);

  EXPECT_THROW(
      exp.apply_fault(parse_fault_entry("at=0s link_down sw0-s9")),
      CheckFailure);
  EXPECT_THROW(
      exp.apply_fault(parse_fault_entry("at=0s server_crash s9")),
      CheckFailure);
}

TEST(ExperimentFaults, FilterStaleCausesFilteredResponseAbsorbedByRetry) {
  // Plant stale fingerprints for upcoming request ids: the first response
  // hashing there is wrongly filtered, and TCP-mode retransmission must
  // absorb the loss (requests still complete).
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(5);
  for (int t = 0; t < 2; ++t) {
    for (std::uint32_t id = 1; id <= 64; ++id) {
      harness::FaultEvent ev;
      ev.at = SimTime::microseconds(550.0);
      ev.action = FaultAction::kFilterStale;
      ev.target = "sw0";
      ev.table = static_cast<std::size_t>(t);
      ev.value = static_cast<double>(
          core::NetCloneProgram::client_tuple_id(t == 0 ? 0 : 1, id));
      cfg.faults.events.push_back(ev);
    }
  }
  harness::Experiment exp{cfg};
  (void)exp.run();
  EXPECT_EQ(exp.netclone_program()->stats().injected_stale_entries, 128U);
  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ExperimentFaults, ServerPauseBuffersAndReplays) {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(6);
  cfg.faults.events.push_back(
      parse_fault_entry("at=800us server_pause s0"));
  cfg.faults.events.push_back(
      parse_fault_entry("at=1300us server_resume s0"));
  harness::Experiment exp{cfg};
  (void)exp.run();
  EXPECT_GT(exp.servers()[0]->stats().paused_frames, 0U);
  EXPECT_FALSE(exp.servers()[0]->paused());
  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ExperimentFaults, ServerCrashVoidsInFlightWork) {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(8);
  cfg.faults.events.push_back(
      parse_fault_entry("at=1ms server_crash s1"));
  cfg.faults.events.push_back(
      parse_fault_entry("at=2ms server_restart s1"));
  harness::Experiment exp{cfg};
  (void)exp.run();
  const host::ServerStats& ss = exp.servers()[1]->stats();
  EXPECT_EQ(ss.crashes, 1U);
  EXPECT_GT(ss.abandoned_in_flight, 0U);
  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Single-rack determinism: committed digests of the chaos cluster, clean,
// under randomized fault plans, and with impaired links

/// Committed chaos digest and event count of one single-rack run.
struct PinnedRun {
  std::uint64_t digest;
  std::uint64_t executed;
};

struct SingleRackRun {
  harness::ExperimentResult result{};
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
};

SingleRackRun run_single_rack(const harness::ClusterConfig& cfg,
                              const std::string& what) {
  harness::Experiment exp{cfg};
  SingleRackRun out;
  out.result = exp.run();
  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << what << ":\n" << report.to_string();
  out.digest = harness::chaos_digest(exp);
  out.executed = exp.executed_events();
  return out;
}

/// The first run must hit the committed digest and event count, and a
/// same-seed rerun in the same process must match it bit for bit.
void expect_pinned(const harness::ClusterConfig& cfg, PinnedRun want,
                   const std::string& what) {
  const SingleRackRun first = run_single_rack(cfg, what);
  EXPECT_GT(first.result.completed, 0U) << what << ": nothing completed";
  EXPECT_EQ(first.digest, want.digest) << what << ": committed digest moved";
  EXPECT_EQ(first.executed, want.executed)
      << what << ": committed executed_events moved";
  const SingleRackRun again = run_single_rack(cfg, what);
  EXPECT_EQ(again.digest, first.digest) << what << ": rerun digest diverged";
  EXPECT_EQ(again.executed, first.executed)
      << what << ": rerun executed_events diverged";
  EXPECT_EQ(again.result.completed, first.result.completed) << what;
  EXPECT_EQ(again.result.p99, first.result.p99) << what;
}

TEST(SingleRackDigest, CleanChaosClusterIsPinned) {
  // A fig7-style NetClone cluster with retransmission armed, so the
  // shared payload tail path is on the wire too.
  expect_pinned(netclone::testing::chaos_cluster(/*seed=*/77),
                {16285795639020488588ULL, 5817}, "clean cluster");
}

TEST(SingleRackDigest, RandomFaultPlansArePinned) {
  // Three combos of the chaos sweep's randomized fault plans (crashes,
  // reboots, outages, impairments).
  const PinnedRun want[3] = {{9372497587463027074ULL, 5826},
                             {17747888158148853914ULL, 5983},
                             {7533025895203755117ULL, 5834}};
  for (std::uint64_t combo = 0; combo < 3; ++combo) {
    harness::ClusterConfig cfg =
        netclone::testing::chaos_cluster(/*seed=*/1000 + combo);
    Rng plan_rng{0xC0FFEE ^ combo};
    cfg.faults = netclone::testing::random_fault_plan(
        plan_rng, cfg.server_workers.size(), cfg.num_clients);
    expect_pinned(cfg, want[combo], "chaos combo " + std::to_string(combo));
  }
}

TEST(SingleRackDigest, ImpairedLinksArePinned) {
  // Link impairments rewrite a link's delivery FIFO: drops shrink it,
  // duplicates share buffers, reorders swap frames between reserved
  // slots.
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(/*seed=*/9);
  const auto impair = [](const char* link, FaultAction action, double rate) {
    FaultEvent ev;
    ev.at = SimTime::microseconds(600.0);
    ev.target = link;
    ev.action = action;
    ev.value = rate;
    return ev;
  };
  cfg.faults.events = {
      impair("c0-sw0", FaultAction::kDropRate, 0.02),
      impair("sw0-s1", FaultAction::kReorderRate, 0.05),
      impair("s2-sw0", FaultAction::kDuplicateRate, 0.03),
      impair("sw0-c1", FaultAction::kCorruptRate, 0.02),
  };
  expect_pinned(cfg, {12659393880771537727ULL, 5309}, "impaired links");
}

// ---------------------------------------------------------------------------
// Clean-run audits: the auditor holds on every scheme without faults

TEST(InvariantAuditor, CleanRunsPassOnEveryScheme) {
  for (const harness::Scheme scheme :
       {harness::Scheme::kBaseline, harness::Scheme::kCClone,
        harness::Scheme::kNetClone, harness::Scheme::kRackSched}) {
    harness::ClusterConfig cfg = netclone::testing::chaos_cluster(20);
    cfg.scheme = scheme;
    if (scheme != harness::Scheme::kNetClone) {
      cfg.netclone.id_mode = core::RequestIdMode::kSwitchSequence;
      cfg.client_template.retransmit_timeout = SimTime::zero();
    }
    harness::Experiment exp{cfg};
    (void)exp.run();
    const harness::InvariantReport report = harness::audit_invariants(exp);
    EXPECT_TRUE(report.ok())
        << harness::scheme_name(scheme) << ":\n"
        << report.to_string();
    EXPECT_NE(harness::chaos_digest(exp), 0U);
  }
}

// ---------------------------------------------------------------------------
// Quick chaos sweep (tier1); the full sweep is in test_chaos_sweep.cpp

TEST(ChaosSweepQuick, TwelveCombos) {
  for (std::uint64_t combo = 0; combo < 12; ++combo) {
    netclone::testing::run_chaos_combo(combo);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace netclone
