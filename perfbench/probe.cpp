#include "probe.hpp"

#include <chrono>
#include <cstring>
#include <utility>

namespace perfbench {

namespace {

// 72 MiB in all, most of a core's share of the L3 and then some: the
// probe's node and buffer accesses go mostly to DRAM. Of the working sets
// tried (1.5, 18 and 72 MiB), this one's time tracked the simulator's
// run-to-run drift best (README.md, "Host noise").
constexpr std::uint32_t kNodes = 1U << 20;  // x 64 B = 64 MiB
constexpr std::uint32_t kNodeWords = 8;
constexpr std::uint32_t kBuffers = 1U << 16;  // x 128 B = 8 MiB
constexpr std::uint32_t kBufferWords = 16;
constexpr std::uint32_t kPending = 8192;  // x 16 B = 128 KiB of heap
// The warm-up moves the CPU's caches and TLB off the last repetition's
// data; the timed batch takes ~20 ms.
constexpr std::uint32_t kWarmupEvents = 30000;
constexpr std::uint32_t kTimedEvents = 40000;

}  // namespace

HostProbe::HostProbe()
    : nodes_(static_cast<std::size_t>(kNodes) * kNodeWords),
      buffers_(static_cast<std::size_t>(kBuffers) * kBufferWords) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i] = i * 0xD1342543DE82EF95ULL;
  }
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    buffers_[i] = i;
  }
  heap_.reserve(kPending + 1);
  for (std::uint32_t i = 0; i < kPending; ++i) {
    push({next() % 100000, static_cast<std::uint32_t>(next() % kNodes)});
  }
}

double HostProbe::sample() {
  sink_ += run(kWarmupEvents);
  const auto start = std::chrono::steady_clock::now();
  sink_ += run(kTimedEvents);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::size_t HostProbe::bytes() const {
  return (nodes_.size() + buffers_.size()) * sizeof(std::uint64_t) +
         heap_.capacity() * sizeof(Event);
}

std::uint64_t HostProbe::run(std::uint32_t events) {
  std::uint64_t h = sink_;
  for (std::uint32_t e = 0; e < events; ++e) {
    const Event ev = pop();
    const std::uint64_t r = next();
    std::uint64_t* node = &nodes_[static_cast<std::size_t>(ev.node) *
                                  kNodeWords];
    const std::uint64_t* src =
        &buffers_[static_cast<std::size_t>(r % kBuffers) * kBufferWords];
    std::uint64_t* dst =
        &buffers_[static_cast<std::size_t>((r >> 20) % kBuffers) *
                  kBufferWords];
    std::memmove(dst, src, kBufferWords * sizeof(std::uint64_t));
    for (std::uint32_t k = 0; k < kNodeWords; ++k) {
      node[k] = (node[k] ^ dst[k]) * 1099511628211ULL;
      h += node[k] >> 11;
    }
    if ((node[0] & 1) != 0) {
      node[1] += h;
    } else if ((node[2] & 2) != 0) {
      node[3] ^= ev.at;
    } else {
      h ^= node[4];
    }
    push({ev.at + 1 + (r >> 40) % 2000,
          static_cast<std::uint32_t>((ev.node * 2654435761ULL + r) %
                                     kNodes)});
  }
  return h;
}

std::uint64_t HostProbe::next() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

void HostProbe::push(Event ev) {
  heap_.push_back(ev);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (heap_[parent].at <= heap_[i].at) {
      break;
    }
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

HostProbe::Event HostProbe::pop() {
  const Event top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t left = 2 * i + 1;
    const std::size_t right = left + 1;
    std::size_t least = i;
    if (left < n && heap_[left].at < heap_[least].at) {
      least = left;
    }
    if (right < n && heap_[right].at < heap_[least].at) {
      least = right;
    }
    if (least == i) {
      break;
    }
    std::swap(heap_[least], heap_[i]);
    i = least;
  }
  return top;
}

}  // namespace perfbench
