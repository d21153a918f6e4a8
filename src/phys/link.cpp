#include "phys/link.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "phys/node.hpp"

namespace netclone::phys {

namespace {

/// Flips one random bit in a private copy of the frame. The flip is
/// confined to byte offsets >= 14 (the start of the IPv4 header): the
/// Ethernet region carries no checksum in this model, so a flip there
/// would be undetectable by design — and a real FCS failure looks like a
/// plain drop, which `drop_rate` already covers.
wire::FrameHandle corrupt_copy(const wire::FrameHandle& frame, Rng& rng) {
  wire::FrameHandle copy = wire::FrameHandle::allocate(frame.size());
  std::byte* bytes = copy.writable_all();
  frame.copy_to(bytes);
  const std::size_t lo = std::min<std::size_t>(14, copy.size() - 1);
  const std::size_t off =
      lo + static_cast<std::size_t>(rng.next_below(copy.size() - lo));
  const auto bit = static_cast<unsigned char>(1U << rng.next_below(8));
  bytes[off] ^= std::byte{bit};
  return copy;
}

}  // namespace

Link::Link(sim::Scheduler& scheduler, LinkParams params)
    : sim_(scheduler), params_(params) {
  NETCLONE_CHECK(params_.rate_bps > 0.0, "link rate must be positive");
}

Link::~Link() { sim_.cancel(delivery_event_); }

void Link::connect_to(Node* dst, std::size_t dst_port) {
  NETCLONE_CHECK(dst_ == nullptr, "link already connected");
  dst_ = dst;
  dst_port_ = dst_port;
}

SimTime Link::serialization_time(std::size_t bytes) const {
  const double seconds =
      static_cast<double>(bytes) * 8.0 / params_.rate_bps;
  return SimTime::seconds(seconds);
}

void Link::transmit(wire::FrameHandle frame) {
  if (!up_ || dst_ == nullptr) {
    ++stats_.dropped_frames;
    return;
  }
  if (impair_ != nullptr) [[unlikely]] {
    transmit_impaired(std::move(frame));
    return;
  }
  enqueue(std::move(frame));
}

void Link::transmit_impaired(wire::FrameHandle frame) {
  ImpairmentState& st = *impair_;
  // Draw order is fixed (drop, corrupt, duplicate, reorder) and each
  // draw happens only when its rate is non-zero, so a given config
  // consumes the stream identically on every same-seed run.
  if (st.cfg.drop_rate > 0.0 && st.rng.bernoulli(st.cfg.drop_rate)) {
    ++stats_.impaired_drops;
    return;
  }
  if (st.cfg.corrupt_rate > 0.0 && !frame.empty() &&
      st.rng.bernoulli(st.cfg.corrupt_rate)) {
    frame = corrupt_copy(frame, st.rng);
    ++stats_.corrupted_frames;
  }
  const bool duplicate = st.cfg.duplicate_rate > 0.0 &&
                         st.rng.bernoulli(st.cfg.duplicate_rate);
  wire::FrameHandle dup_copy;
  if (duplicate) {
    dup_copy = frame;  // refcount share; enqueue never mutates bytes
  }
  enqueue(std::move(frame));
  if (duplicate) {
    ++stats_.duplicated_frames;
    enqueue(std::move(dup_copy));
  }
  if (st.cfg.reorder_rate > 0.0 && pending_.size() >= 2 &&
      st.rng.bernoulli(st.cfg.reorder_rate)) {
    // Reorder by swapping the *frames* of the last two FIFO entries.
    // Delivery times, tie-break seqs, and occupancy accounting stay with
    // their slots, so the swap is invisible to the event machinery — the
    // receiver just sees the two frames in the opposite order.
    std::swap(pending_[pending_.size() - 1].frame,
              pending_[pending_.size() - 2].frame);
    ++stats_.reordered_frames;
  }
}

void Link::enqueue(wire::FrameHandle frame) {
  const SimTime now = sim_.now();
  if (busy_until_ > now && queued_ >= params_.queue_capacity) {
    ++stats_.dropped_frames;
    return;
  }
  const SimTime start = busy_until_ > now ? busy_until_ : now;
  const SimTime tx = serialization_time(frame.size());
  busy_until_ = start + tx;
  const bool counted_queued = start > now;
  ++stats_.tx_frames;
  stats_.tx_bytes += frame.size();

  const SimTime deliver_at = busy_until_ + params_.delay;
  if (counted_queued) {
    ++queued_;
  }
  pending_.push_back(InFlight{deliver_at, sim_.reserve_seq(),
                              counted_queued, std::move(frame)});
  if (pending_.size() == 1) {
    arm_head();
  }
  // A deeper FIFO already has the event armed for its head; this frame's
  // turn comes when delivery reaches it, under the seq reserved above.
}

void Link::arm_head() {
  const InFlight& head = pending_.front();
  delivery_event_ = sim_.schedule_at_seq(head.deliver_at, head.seq,
                                         [this] { deliver_head(); });
}

void Link::deliver_head() {
  delivery_event_ = sim::EventId{};
  InFlight entry = std::move(pending_.front());
  pending_.pop_front();
  if (entry.counted_queued) {
    NETCLONE_CHECK(queued_ > 0, "link drop-tail occupancy underflow");
    --queued_;
  }
  // Rearm before delivering: handle_frame may reentrantly transmit on
  // this link, and it must find the FIFO consistent with the armed event.
  if (!pending_.empty()) {
    arm_head();
  }
  dst_->handle_frame(dst_port_, std::move(entry.frame));
}

void Link::configure_impairments(const LinkImpairments& cfg,
                                 std::uint64_t seed) {
  if (!cfg.any()) {
    impair_.reset();
    return;
  }
  if (impair_ != nullptr) {
    impair_->cfg = cfg;  // reconfigure in place; keep the RNG stream
  } else {
    impair_ = std::make_unique<ImpairmentState>(
        ImpairmentState{cfg, Rng{seed}});
  }
}

void Link::set_up(bool up) {
  if (up_ == up) {
    return;
  }
  up_ = up;
  if (!up) {
    // Everything in flight is lost with the cable; clearing the FIFO here
    // (instead of letting per-frame events fire into a revived link) is
    // what keeps the new-epoch drop-tail occupancy exact.
    stats_.flushed_frames += pending_.size();
    sim_.cancel(delivery_event_);
    delivery_event_ = sim::EventId{};
    pending_.clear();
    queued_ = 0;
    busy_until_ = sim_.now();
  }
}

}  // namespace netclone::phys
