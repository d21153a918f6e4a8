#include "trace.hpp"

#include <cstdio>

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup:
      return "setup";
    case SpanKind::kPopulate:
      return "kv.populate";
    case SpanKind::kRun:
      return "run";
    case SpanKind::kServiceTime:
      return "host.service.execution_time";
    case SpanKind::kServiceExec:
      return "host.service.execute";
    case SpanKind::kFactory:
      return "host.factory";
    case SpanKind::kReplay:
      return "replay";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

Tracer::Tracer(std::size_t max_stored_spans)
    : epoch_(std::chrono::steady_clock::now()),
      max_stored_(max_stored_spans) {
  spans_.reserve(max_stored_spans);
}

std::uint32_t Tracer::open(SpanKind kind, std::uint8_t op) {
  Span span;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : open_.back().id;
  span.kind = kind;
  span.op = op;
  span.start_ns = now_ns();
  open_.push_back(span);
  return span.id;
}

void Tracer::close(std::uint32_t id) {
  // Spans close in LIFO order; the id guards against a mismatched close.
  if (open_.empty() || open_.back().id != id) {
    std::fprintf(stderr, "perfbench: span %u closed out of order\n", id);
    return;
  }
  Span span = open_.back();
  open_.pop_back();
  span.end_ns = now_ns();
  store(span);
}

void Tracer::record(SpanKind kind, std::uint8_t op, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
  Span span;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : open_.back().id;
  span.kind = kind;
  span.op = op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  store(span);
}

void Tracer::store(const Span& span) {
  Totals& t = totals_[static_cast<std::size_t>(span.kind)]
                     [span.op < kNumOps ? span.op : 0];
  ++t.count;
  t.ns += span.end_ns - span.start_ns;
  if (spans_.size() < max_stored_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

Tracer::Totals Tracer::totals(SpanKind kind) const {
  Totals sum;
  for (const Totals& t : totals_[static_cast<std::size_t>(kind)]) {
    sum.count += t.count;
    sum.ns += t.ns;
  }
  return sum;
}

Tracer::Totals Tracer::totals(SpanKind kind, std::uint8_t op) const {
  return totals_[static_cast<std::size_t>(kind)][op < kNumOps ? op : 0];
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "id,parent,name,op,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(out, "%u,%u,%s,%u,%llu,%llu\n", s.id, s.parent,
                 span_name(s.kind), static_cast<unsigned>(s.op),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

netclone::SimTime TimedService::execution_time(
    const netclone::wire::RpcRequest& req, netclone::Rng& rng) {
  const std::uint64_t start = tracer_.now_ns();
  const netclone::SimTime t = inner_->execution_time(req, rng);
  tracer_.record(SpanKind::kServiceTime, static_cast<std::uint8_t>(req.op),
                 start, tracer_.now_ns());
  return t;
}

netclone::wire::RpcResponse TimedService::execute(
    const netclone::wire::RpcRequest& req) {
  const std::uint64_t start = tracer_.now_ns();
  netclone::wire::RpcResponse resp = inner_->execute(req);
  tracer_.record(SpanKind::kServiceExec, static_cast<std::uint8_t>(req.op),
                 start, tracer_.now_ns());
  return resp;
}

netclone::wire::RpcRequest TimedFactory::make(netclone::Rng& rng) {
  const std::uint64_t start = tracer_.now_ns();
  netclone::wire::RpcRequest req = inner_->make(rng);
  tracer_.record(SpanKind::kFactory, static_cast<std::uint8_t>(req.op),
                 start, tracer_.now_ns());
  return req;
}

}  // namespace perfbench
