// Exact switch-cost ledger of the two pinned end-to-end points.
//
// Wall-clock speed varies from machine to machine; these counters do not.
// Each is the per-run total of one would-be regression source on the
// switch path: an extra event, an extra frame buffer, an extra frame or
// byte on a link, an extra pipeline pass, recirculation or replica. A
// change to the switch pass that only makes it cheaper (no new copy,
// acquire or event) leaves every number here unchanged; a change that
// moves one must say why and re-pin it.
//
// The points are the pinned Fig. 7 NetClone point of
// Experiment.Fig7NetClonePointIsPinned and the replicated pod of
// AllocBudget.ReplicatedPodIsAllocationFree.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/multirack.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "wire/framebuf.hpp"

namespace netclone::harness {
namespace {

struct Ledger {
  std::uint64_t completed = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t pool_acquires = 0;
  std::uint64_t link_tx_frames = 0;
  std::uint64_t link_tx_bytes = 0;
  std::uint64_t switch_rx_frames = 0;
  std::uint64_t recirculated = 0;
  std::uint64_t multicast_copies = 0;
  std::uint64_t parse_errors = 0;
};

void add_switch(Ledger& ledger, const pisa::SwitchStats& s) {
  ledger.switch_rx_frames += s.rx_frames;
  ledger.recirculated += s.recirculated;
  ledger.multicast_copies += s.multicast_copies;
  ledger.parse_errors += s.parse_errors;
}

/// Runs `exp` and folds the run's counters. Pool acquires are counted
/// across run() only: the pool is process-wide, and other tests in the
/// same binary may have drawn from it before.
template <typename Exp>
Ledger run_ledger(Exp& exp) {
  const std::uint64_t acquired_before =
      wire::FramePool::instance().stats().acquired;
  Ledger ledger;
  ledger.completed = exp.run().completed;
  ledger.pool_acquires =
      wire::FramePool::instance().stats().acquired - acquired_before;
  ledger.executed_events = exp.executed_events();
  for (const auto& [name, link] : exp.links()) {
    ledger.link_tx_frames += link->stats().tx_frames;
    ledger.link_tx_bytes += link->stats().tx_bytes;
  }
  return ledger;
}

TEST(CostLedger, Fig7NetClonePoint) {
  const host::JitterModel jitter{0.01, 15.0, 0.08};
  ClusterConfig cfg;
  cfg.scheme = Scheme::kNetClone;
  cfg.server_workers.assign(6, 16);
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service = std::make_shared<host::SyntheticService>(jitter);
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(20);
  cfg.drain = SimTime::milliseconds(10);
  cfg.offered_rps =
      0.8 * cluster_capacity_rps(cfg.server_workers,
                                 25.0 * jitter.mean_inflation());
  Experiment exp{cfg};
  Ledger ledger = run_ledger(exp);
  add_switch(ledger, exp.tor().stats());

  EXPECT_EQ(ledger.completed, 54336U);
  EXPECT_EQ(ledger.executed_events, 722736U);
  EXPECT_EQ(ledger.pool_acquires, 209722U);
  EXPECT_EQ(ledger.link_tx_frames, 259941U);
  EXPECT_EQ(ledger.link_tx_bytes, 20023110U);
  EXPECT_EQ(ledger.switch_rx_frames, 140665U);
  EXPECT_EQ(ledger.recirculated, 11970U);
  EXPECT_EQ(ledger.multicast_copies, 11970U);
  EXPECT_EQ(ledger.parse_errors, 0U);
}

TEST(CostLedger, ReplicatedPod) {
  MultiRackConfig cfg;
  cfg.server_racks = 2;
  cfg.servers_per_rack = 2;
  cfg.num_aggs = 2;
  cfg.agg_mode = AggMode::kReplicated;
  cfg.workers = 8;
  cfg.num_clients = 4;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service = std::make_shared<host::SyntheticService>(
      host::JitterModel{0.01, 15.0, 0.08});
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(20);
  cfg.drain = SimTime::milliseconds(5);
  cfg.seed = 23;
  cfg.offered_rps =
      0.8 * cluster_capacity_rps(std::vector<std::uint32_t>(4, cfg.workers),
                                 25.0 * 1.14);
  MultiRackExperiment exp{cfg};
  Ledger ledger = run_ledger(exp);
  for (const auto& [name, sw] : exp.switches()) {
    add_switch(ledger, sw->stats());
  }

  EXPECT_EQ(ledger.completed, 17884U);
  EXPECT_EQ(ledger.executed_events, 432798U);
  EXPECT_EQ(ledger.pool_acquires, 65471U);
  EXPECT_EQ(ledger.link_tx_frames, 184524U);
  EXPECT_EQ(ledger.link_tx_bytes, 14149884U);
  EXPECT_EQ(ledger.switch_rx_frames, 146988U);
  EXPECT_EQ(ledger.recirculated, 3723U);
  EXPECT_EQ(ledger.multicast_copies, 3723U);
  EXPECT_EQ(ledger.parse_errors, 0U);
}

}  // namespace
}  // namespace netclone::harness
