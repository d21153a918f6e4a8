// Microbenchmarks (google-benchmark): per-packet costs of the simulated
// data plane and the substrate primitives. These measure *simulator*
// performance (how fast we can model the switch), complementing the
// figure benches that measure *modeled* performance.
#include <benchmark/benchmark.h>

#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "core/netclone_program.hpp"
#include "host/addressing.hpp"
#include "kv/kv_workload.hpp"
#include "kv/store.hpp"
#include "kv/zipf.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace {

using namespace netclone;
using netclone::testing::make_request;
using netclone::testing::make_response;

void BM_Crc32U32(benchmark::State& state) {
  std::uint32_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32_u32(++x));
  }
}
BENCHMARK(BM_Crc32U32);

void BM_PacketSerialize(benchmark::State& state) {
  const wire::Packet pkt = make_request(0, 1, 0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt.serialize());
  }
}
BENCHMARK(BM_PacketSerialize);

void BM_PacketParse(benchmark::State& state) {
  const wire::Frame frame = make_request(0, 1, 0, 0).serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::Packet::parse(frame));
  }
}
BENCHMARK(BM_PacketParse);

struct ProgramFixture {
  pisa::Pipeline pipeline;
  core::NetCloneProgram program;

  ProgramFixture() : program(pipeline, core::NetCloneConfig{}) {
    for (std::uint8_t i = 0; i < 6; ++i) {
      program.add_server(ServerId{i}, host::server_ip(ServerId{i}), 10 + i,
                         static_cast<std::uint16_t>(i + 1));
    }
    program.install_groups(core::build_group_pairs(6));
    program.add_route(host::client_ip(0), 20);
  }
};

// The two ingress benches time one whole switch pass as SwitchDevice
// runs it: parse the pooled frame into the switch's view, run the
// program, deparse.
void BM_IngressRequestClonePath(benchmark::State& state) {
  ProgramFixture fx;
  const wire::FrameHandle frame{make_request(0, 1, 0, 0).serialize()};
  for (auto _ : state) {
    wire::SwitchPacket pkt = wire::SwitchPacket::parse(frame);
    pisa::PacketMetadata md;
    pisa::PipelinePass pass{fx.pipeline};
    fx.program.on_ingress(pkt, md, pass);
    benchmark::DoNotOptimize(pkt.deparse());
    benchmark::DoNotOptimize(md);
  }
}
BENCHMARK(BM_IngressRequestClonePath);

void BM_IngressResponseFilterPath(benchmark::State& state) {
  ProgramFixture fx;
  wire::Packet req = make_request(0, 1, 0, 0);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  std::uint32_t id = 0;
  for (auto _ : state) {
    req.nc().req_id = ++id;
    // Building the fresh response frame is part of the timed loop.
    const wire::FrameHandle frame{
        make_response(ServerId{0}, 0, req).serialize()};
    wire::SwitchPacket resp = wire::SwitchPacket::parse(frame);
    pisa::PacketMetadata md;
    pisa::PipelinePass pass{fx.pipeline};
    fx.program.on_ingress(resp, md, pass);
    benchmark::DoNotOptimize(resp.deparse());
    benchmark::DoNotOptimize(md);
  }
}
BENCHMARK(BM_IngressResponseFilterPath);

void BM_SimulatorEventChurn(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 0;
  for (auto _ : state) {
    sim.schedule_at(SimTime::nanoseconds(++t), [] {});
    sim.step();
  }
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram hist;
  std::int64_t v = 0;
  for (auto _ : state) {
    hist.record(SimTime::nanoseconds((v += 997) % 10000000));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_KvGet(benchmark::State& state) {
  kv::KvStore store{100000};
  kv::populate(store, 100000);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get(kv::key_for_index(++i % 100000)));
  }
}
BENCHMARK(BM_KvGet);

void BM_KvScan100(benchmark::State& state) {
  kv::KvStore store{100000};
  kv::populate(store, 100000);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.scan_digest(kv::key_for_index(++i % 100000), 100));
  }
}
BENCHMARK(BM_KvScan100);

void BM_ZipfSample(benchmark::State& state) {
  kv::ZipfGenerator zipf{1000000, 0.99};
  Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace

BENCHMARK_MAIN();
