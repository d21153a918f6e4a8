// In-memory span recorder for the traced benchmark run, plus the two
// probes that time the simulator's public injection seams from outside:
// a ServiceModel and a RequestFactory that forward to the real ones and
// record one span per call.
//
// Spans live in a preallocated vector and are written out once, at the
// end of the run. Aggregates (count and summed duration per span kind)
// are kept exactly even after the vector's cap is reached, so ratios and
// self times never depend on how many spans were stored.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "host/service.hpp"
#include "host/workload.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kSetup,         // cluster construction, KV population included
  kPopulate,      // KV store population (child of setup)
  kRun,           // Experiment::run()
  kServiceTime,   // ServiceModel::execution_time (child of run)
  kServiceExec,   // ServiceModel::execute (child of run)
  kFactory,       // RequestFactory::make (child of run)
  kReplay,        // one replay-rig batch (wire / pisa / phys / sim)
  kCount,
};

[[nodiscard]] const char* span_name(SpanKind kind);

/// Request operation a service span worked on (wire::RpcOp order), so
/// kv's GET and SCAN costs can be split without a second pass.
inline constexpr std::size_t kNumOps = 4;

struct Span {
  std::uint64_t start_ns = 0;  // since the tracer's epoch
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  SpanKind kind = SpanKind::kSetup;
  std::uint8_t op = 0;  // RpcOp for service spans; replay rig id otherwise
};

class Tracer {
 public:
  explicit Tracer(std::size_t max_stored_spans);

  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Opens a span and makes it the parent of spans opened until close().
  [[nodiscard]] std::uint32_t open(SpanKind kind, std::uint8_t op = 0);
  void close(std::uint32_t id);
  /// Records a finished child of the currently open span.
  void record(SpanKind kind, std::uint8_t op, std::uint64_t start_ns,
              std::uint64_t end_ns);

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };
  [[nodiscard]] Totals totals(SpanKind kind) const;
  [[nodiscard]] Totals totals(SpanKind kind, std::uint8_t op) const;

  [[nodiscard]] std::size_t stored() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Writes every stored span as CSV (id,parent,name,op,start_ns,end_ns).
  /// Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  void store(const Span& span);

  std::chrono::steady_clock::time_point epoch_;
  std::size_t max_stored_;
  std::vector<Span> spans_;
  /// Open spans (index into spans_ is not stable once the cap is hit, so
  /// the stack holds full copies).
  std::vector<Span> open_;
  std::uint32_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::array<std::array<Totals, kNumOps>,
             static_cast<std::size_t>(SpanKind::kCount)>
      totals_{};
};

/// ServiceModel probe: forwards both calls, one span each.
class TimedService final : public netclone::host::ServiceModel {
 public:
  TimedService(std::shared_ptr<netclone::host::ServiceModel> inner,
               Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] netclone::SimTime execution_time(
      const netclone::wire::RpcRequest& req,
      netclone::Rng& rng) override;
  [[nodiscard]] netclone::wire::RpcResponse execute(
      const netclone::wire::RpcRequest& req) override;

 private:
  std::shared_ptr<netclone::host::ServiceModel> inner_;
  Tracer& tracer_;
};

/// RequestFactory probe: forwards make(), one span per call.
class TimedFactory final : public netclone::host::RequestFactory {
 public:
  TimedFactory(std::shared_ptr<netclone::host::RequestFactory> inner,
               Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] netclone::wire::RpcRequest make(netclone::Rng& rng) override;
  [[nodiscard]] double mean_intrinsic_us() const override {
    return inner_->mean_intrinsic_us();
  }
  [[nodiscard]] std::string label() const override {
    return inner_->label();
  }

 private:
  std::shared_ptr<netclone::host::RequestFactory> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
