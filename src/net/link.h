// Point-to-point full-duplex link with serialization delay, propagation
// latency, and optional random loss. Connects an endpoint ("station") to
// a switch port, or two stations back-to-back.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/rng.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace slingshot {

struct LinkConfig {
  double bandwidth_bps = 100e9;  // 100 GbE by default, as in the testbed
  Nanos propagation_delay = 1'000;  // 1 µs intra-rack fiber + transceivers
  double loss_probability = 0.0;    // rare in provisioned vRAN datacenters
  // Finite per-direction egress buffer, as bytes of not-yet-serialized
  // backlog; a frame arriving to a full queue is tail-dropped. 0 keeps
  // the legacy unbounded queue.
  std::uint64_t max_queue_bytes = 0;
};

class Link {
 public:
  Link(Simulator& sim, LinkConfig config, RngStream loss_rng)
      : sim_(sim), config_(config), loss_rng_(std::move(loss_rng)) {}

  void attach_a(FrameSink* a) { side_a_ = a; }
  void attach_b(FrameSink* b) { side_b_ = b; }

  // Send from side A toward side B (and vice versa). The frame is
  // serialized onto the wire after any frames already queued in that
  // direction, then arrives propagation_delay later. Serialization time
  // is kept in integer picoseconds, rounded up: queued frames never
  // overlap and no drift accumulates across a burst.
  void send_from_a(Packet&& packet) { send(std::move(packet), /*a_to_b=*/true); }
  void send_from_b(Packet&& packet) { send(std::move(packet), /*a_to_b=*/false); }

  [[nodiscard]] const LinkConfig& config() const { return config_; }
  // Split drop causes. frames_dropped() stays the sum so existing
  // callers keep seeing the aggregate.
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return dropped_no_receiver_ + dropped_loss_ + dropped_fault_ +
           dropped_overflow_ + dropped_down_;
  }
  [[nodiscard]] std::uint64_t dropped_no_receiver() const {
    return dropped_no_receiver_;
  }
  [[nodiscard]] std::uint64_t dropped_loss() const { return dropped_loss_; }
  [[nodiscard]] std::uint64_t dropped_fault() const { return dropped_fault_; }
  [[nodiscard]] std::uint64_t dropped_overflow() const {
    return dropped_overflow_;
  }
  [[nodiscard]] std::uint64_t dropped_down() const { return dropped_down_; }
  // Counted when the receiver is actually handed the frame — a frame
  // still serializing or propagating is in flight, not delivered.
  [[nodiscard]] std::uint64_t frames_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t bytes_delivered() const {
    return delivered_bytes_;
  }
  [[nodiscard]] std::uint64_t frames_in_flight() const { return in_flight_; }

  // Fault controls: a downed link (cable pull / port kill) drops every
  // subsequent send; frames already on the wire still arrive.
  void set_down(bool down) { down_ = down; }
  [[nodiscard]] bool is_down() const { return down_; }
  void set_loss_probability(double p) { config_.loss_probability = p; }

  // Fault-injection hook (src/inject): sees every frame before it is
  // serialized onto the wire, may mutate it; returning false drops it
  // (counted in frames_dropped).
  using FaultHook = std::function<bool(Packet&, bool a_to_b)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  void send(Packet&& packet, bool a_to_b);
  void schedule_delivery(FrameSink* receiver, Packet&& packet, Nanos arrival);

  Simulator& sim_;
  LinkConfig config_;
  RngStream loss_rng_;
  FaultHook fault_hook_;
  FrameSink* side_a_ = nullptr;
  FrameSink* side_b_ = nullptr;
  bool down_ = false;
  // Wire occupancy in integer picoseconds, so the sub-ns remainder of
  // one frame is charged to the next.
  std::int64_t busy_ps_ab_ = 0;
  std::int64_t busy_ps_ba_ = 0;
  std::uint64_t dropped_no_receiver_ = 0;
  std::uint64_t dropped_loss_ = 0;
  std::uint64_t dropped_fault_ = 0;
  std::uint64_t dropped_overflow_ = 0;
  std::uint64_t dropped_down_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t in_flight_ = 0;
};

}  // namespace slingshot
