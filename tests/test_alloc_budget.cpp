// Allocation budget of the simulated RPC path.
//
// This binary replaces the global operator new/delete with counting
// versions and counts heap allocations only while Experiment::run() /
// MultiRackExperiment::run() execute. Steady-state request handling must
// not touch the allocator: hot event closures capture handles and
// scalars (they fit EventCallback's inline buffer), queued requests live
// in their owner's ring FIFO, worker slot or dense request table, and
// frames come from the recycling FramePool. A capture that spills past
// the inline buffer, or a heap Frame built per request, costs at least
// one allocation per RPC and fails this budget on any machine.
//
// The budget is per marginal RPC: each point runs twice, the second time
// with a 20 ms longer measurement window, and the extra allocations are
// divided by the extra completed RPCs. A fresh run also grows its event
// wheel's buckets, the frame pool and the FIFO rings to their working
// size (a few thousand allocations, whatever the run's length); that is a
// per-run cost, and the difference cancels it. Both runs of a point last
// longer than one turn of the wheel's level-2 ring (2^24 ns, about
// 16.8 ms of simulated time), by which time every bucket has reached its
// working capacity.
//
// Under AddressSanitizer the FramePool deliberately stops recycling (so a
// use-after-release is a real use-after-free); there every frame acquire
// is a heap allocation, which the pool counts exactly in slabs_allocated.
// Those are subtracted there, and only there.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <new>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/multirack.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "wire/framebuf.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting) {
    ++g_allocations;
  }
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) {
    return p;
  }
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace netclone::harness {
namespace {

/// Ceiling on heap allocations per marginal completed RPC inside run().
constexpr double kBudgetPerRpc = 0.05;

struct RunCost {
  ExperimentResult result;
  std::uint64_t executed_events = 0;
  std::uint64_t allocations = 0;
};

/// Builds an experiment from `cfg` and runs it with the allocation
/// counter on, net of the pool's own per-acquire heap cells when the pool
/// does not recycle.
template <typename Exp, typename Config>
RunCost counted_run(const Config& cfg) {
  Exp exp{cfg};
  const wire::FramePool& pool = wire::FramePool::instance();
  const std::uint64_t slabs_before = pool.stats().slabs_allocated;
  RunCost cost;
  g_allocations = 0;
  g_counting = true;
  cost.result = exp.run();
  g_counting = false;
  cost.allocations = g_allocations;
  if (!wire::FramePool::kRecyclingEnabled) {
    cost.allocations -= pool.stats().slabs_allocated - slabs_before;
  }
  cost.executed_events = exp.executed_events();
  return cost;
}

/// Runs `cfg` and a twin whose measurement window is `extra` longer;
/// returns {shorter run, allocations per extra completed RPC}.
template <typename Exp, typename Config>
std::pair<RunCost, double> marginal_cost(Config cfg, SimTime extra) {
  const RunCost base = counted_run<Exp>(cfg);
  cfg.measure = cfg.measure + extra;
  const RunCost longer = counted_run<Exp>(cfg);
  EXPECT_GT(longer.result.completed,
            base.result.completed + base.result.completed / 2)
      << "the longer window must add a comparable number of RPCs";
  const auto extra_allocs = static_cast<double>(longer.allocations) -
                            static_cast<double>(base.allocations);
  const auto extra_rpcs = static_cast<double>(longer.result.completed) -
                          static_cast<double>(base.result.completed);
  return {base, extra_allocs / extra_rpcs};
}

TEST(AllocBudget, CounterSeesAllocations) {
  // The replacement operator new is the one in use: a vector allocation
  // inside the counting window is seen.
  g_allocations = 0;
  g_counting = true;
  auto* v = new std::vector<int>(16);
  g_counting = false;
  delete v;
  EXPECT_EQ(g_allocations, 2U);
}

TEST(AllocBudget, Fig7NetClonePointIsAllocationFree) {
  // The pinned Fig. 7 NetClone point of Experiment.Fig7NetClonePointIsPinned.
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
  const auto [base, per_rpc] =
      marginal_cost<Experiment>(cfg, SimTime::milliseconds(20));
  EXPECT_EQ(base.result.completed, 54336U);
  EXPECT_EQ(base.result.p99.ns(), 154624);
  EXPECT_EQ(base.executed_events, 722736U);
  EXPECT_LE(per_rpc, kBudgetPerRpc)
      << base.allocations << " allocations in the pinned run";
  RecordProperty("allocs_per_marginal_rpc", std::to_string(per_rpc));
}

TEST(AllocBudget, ReplicatedPodIsAllocationFree) {
  // A small chain-replicated pod: client ToR, two NetClone aggregation
  // replicas, two server racks — agg passes, chain forwards and multi-hop
  // links on every RPC.
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
  const auto [base, per_rpc] =
      marginal_cost<MultiRackExperiment>(cfg, SimTime::milliseconds(20));
  EXPECT_GT(base.result.completed, 10000U);
  EXPECT_LE(per_rpc, kBudgetPerRpc)
      << base.allocations << " allocations in the shorter run";
  RecordProperty("allocs_per_marginal_rpc", std::to_string(per_rpc));
}

}  // namespace
}  // namespace netclone::harness
