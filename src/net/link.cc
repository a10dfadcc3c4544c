#include "net/link.h"

#include <algorithm>

namespace slingshot {
namespace {

// Time to move `bytes` at `bandwidth_bps`, in integer picoseconds,
// rounded up. Fits in 64 bits for any Ethernet-sized frame (bits ~5e5,
// numerator ~5e17).
std::int64_t bytes_to_ps_ceil(std::uint64_t bytes, double bandwidth_bps) {
  const std::uint64_t bw = std::max<std::uint64_t>(1, std::uint64_t(bandwidth_bps));
  const std::uint64_t bits = bytes * 8;
  return std::int64_t((bits * 1'000'000'000'000ULL + bw - 1) / bw);
}

}  // namespace

void Link::send(Packet&& packet, bool a_to_b) {
  FrameSink* receiver = a_to_b ? side_b_ : side_a_;
  if (receiver == nullptr) {
    ++dropped_no_receiver_;
    return;
  }
  if (down_) {
    // Dead cable: nothing reaches the wire. Checked before the fault
    // hook and the loss gate so a downed link draws no RNG.
    ++dropped_down_;
    return;
  }
  // The fault hook runs *before* the random-loss gate: an injected drop
  // must not depend on (or perturb) the loss RNG stream, so fault plans
  // replay identically under lossy link configs.
  if (fault_hook_ && !fault_hook_(packet, a_to_b)) {
    ++dropped_fault_;
    return;
  }
  if (config_.loss_probability > 0.0 &&
      loss_rng_.bernoulli(config_.loss_probability)) {
    ++dropped_loss_;
    return;
  }

  std::int64_t& busy_ps = a_to_b ? busy_ps_ab_ : busy_ps_ba_;
  const std::int64_t now_ps = std::int64_t(sim_.now()) * 1000;
  if (config_.max_queue_bytes > 0 && busy_ps > now_ps &&
      busy_ps - now_ps >
          bytes_to_ps_ceil(config_.max_queue_bytes, config_.bandwidth_bps)) {
    ++dropped_overflow_;  // tail-drop: egress buffer full
    return;
  }
  const std::int64_t start_ps = std::max(now_ps, busy_ps);
  busy_ps =
      start_ps + bytes_to_ps_ceil(packet.wire_size(), config_.bandwidth_bps);
  const Nanos arrival =
      Nanos((busy_ps + 999) / 1000) + config_.propagation_delay;
  schedule_delivery(receiver, std::move(packet), arrival);
}

void Link::schedule_delivery(FrameSink* receiver, Packet&& packet,
                             Nanos arrival) {
  ++in_flight_;
  sim_.at(arrival, [this, receiver, p = std::move(packet)]() mutable {
    --in_flight_;
    ++delivered_;
    delivered_bytes_ += p.wire_size();
    receiver->handle_frame(std::move(p));
  });
}

}  // namespace slingshot
