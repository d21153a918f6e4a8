// The host-speed probe: a fixed piece of work, timed on the CPU a
// repetition is about to run on, that tells how fast the host's memory
// system is at the moment.
//
// On a shared host the simulator's speed drifts by up to ~1.5x over
// minutes with the other tenants' load, which no summary of the
// repetitions within one run removes (README.md, "Host noise"). The probe
// is a miniature of the simulator's hot loop — a binary-heap event queue
// whose events touch a node table, copy a packet-sized buffer and branch
// on the data — over a 72 MiB working set, so most of its accesses miss
// the caches and it slows down with the same memory-system load. It is
// part of the benchmark and never changes with the simulator, so a change
// to the simulator moves the repetitions and not the probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  HostProbe();

  /// Runs a warm-up batch untimed, then times one batch of the fixed
  /// work; returns its host seconds.
  [[nodiscard]] double sample();

  /// Bytes the probe keeps resident for the whole run.
  [[nodiscard]] std::size_t bytes() const;

 private:
  struct Event {
    std::uint64_t at;
    std::uint32_t node;
  };

  std::uint64_t run(std::uint32_t events);
  std::uint64_t next();
  void push(Event ev);
  Event pop();

  std::vector<std::uint64_t> nodes_;
  std::vector<std::uint64_t> buffers_;
  std::vector<Event> heap_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
