// Tracing decorator: wraps any SwitchProgram and records one structured
// entry per packet — what arrived, what the program decided — in a bounded
// ring. Costs nothing when not attached; when attached but disabled via
// set_enabled(false), the per-packet cost is one predictable branch, so a
// deployment can keep the decorator installed and flip tracing on around
// the window of interest. Meant for debugging and for the
// packet-walkthrough example.
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "pisa/program.hpp"

namespace netclone::pisa {

struct TraceRecord {
  std::uint64_t pass_id = 0;
  bool is_netclone = false;
  bool is_request = false;
  bool recirculated = false;
  std::uint8_t clo = 0;
  std::uint32_t req_id = 0;
  std::uint16_t client_id = 0;
  std::uint32_t client_seq = 0;
  // Decision:
  bool dropped = false;
  bool multicast = false;
  std::size_t egress_port = 0;  // valid when !dropped && !multicast

  [[nodiscard]] std::string to_string() const;
};

class TracingProgram final : public SwitchProgram {
 public:
  TracingProgram(std::shared_ptr<SwitchProgram> inner,
                 std::size_t capacity = 1024)
      : inner_(std::move(inner)), capacity_(capacity) {}

  void on_ingress(wire::SwitchPacket& pkt, PacketMetadata& md,
                  PipelinePass& pass) override;

  [[nodiscard]] const char* name() const override { return "Tracing"; }

  [[nodiscard]] const std::deque<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t total_traced() const { return total_; }
  void clear() { records_.clear(); }

  /// Suspends/resumes recording. While disabled, on_ingress delegates to
  /// the wrapped program after a single well-predicted branch.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

 private:
  void record_ingress(wire::SwitchPacket& pkt, PacketMetadata& md,
                      PipelinePass& pass);

  std::shared_ptr<SwitchProgram> inner_;
  std::size_t capacity_;
  bool enabled_ = true;
  std::deque<TraceRecord> records_;
  std::uint64_t total_ = 0;
};

}  // namespace netclone::pisa
