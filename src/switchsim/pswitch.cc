#include "switchsim/pswitch.h"

#include <algorithm>
#include <stdexcept>

namespace slingshot {

void PipelineContext::emit(int egress_port, Packet&& packet) {
  sw_.emit_on_port(egress_port, std::move(packet));
}

void PipelineContext::emit_to_mac(const MacAddr& dst, Packet&& packet) {
  sw_.emit_via_l2(dst, std::move(packet));
}

ProgrammableSwitch::ProgrammableSwitch(Simulator& sim, int num_ports,
                                       Nanos pipeline_latency)
    : sim_(sim),
      num_ports_(num_ports),
      pipeline_latency_(pipeline_latency),
      port_links_(std::size_t(num_ports), nullptr) {
  sinks_.reserve(std::size_t(num_ports));
  for (int p = 0; p < num_ports; ++p) {
    auto sink = std::make_unique<PortSink>();
    sink->owner = this;
    sink->port = p;
    sinks_.push_back(std::move(sink));
  }
}

void ProgrammableSwitch::attach_link(int port, Link& link) {
  port_links_.at(std::size_t(port)) = &link;
  link.attach_b(sinks_.at(std::size_t(port)).get());
}

void ProgrammableSwitch::add_l2_route(const MacAddr& mac, int port) {
  l2_table_[mac] = port;
}

void ProgrammableSwitch::start_packet_generator(Nanos period) {
  gen_period_ = period;
  gen_start_ = sim_.now();
  gen_running_ = true;
  walk_time_ = gen_start_;
  schedule_wake();
}

std::uint64_t ProgrammableSwitch::ticks_through(Nanos t) {
  if (!gen_running_ || t < gen_start_) {
    return 0;
  }
  if (!tick_perturb_) {
    return std::uint64_t((t - gen_start_) / gen_period_);
  }
  while (tick_time(walk_tick_ + 1) <= t) {
    ++walk_tick_;
    walk_time_ = walk_ahead_.front();
    walk_ahead_.pop_front();
  }
  return walk_tick_;
}

std::uint64_t ProgrammableSwitch::ticks_before(Nanos t) {
  const std::uint64_t k = ticks_through(t);
  return k > 0 && tick_time(k) == t ? k - 1 : k;
}

Nanos ProgrammableSwitch::tick_time(std::uint64_t k) {
  if (!tick_perturb_) {
    return gen_start_ + Nanos(k) * gen_period_;
  }
  if (k <= walk_tick_) {
    return walk_time_;
  }
  // Each interval is the nominal period passed through the clock-error
  // model, so the train carries the switch oscillator's frequency error.
  while (walk_tick_ + walk_ahead_.size() < k) {
    const Nanos last = walk_ahead_.empty() ? walk_time_ : walk_ahead_.back();
    walk_ahead_.push_back(last +
                          std::max<Nanos>(1, tick_perturb_(gen_period_)));
  }
  return walk_ahead_[std::size_t(k - walk_tick_ - 1)];
}

void ProgrammableSwitch::wake_program_at_tick(std::uint64_t k) {
  wake_.cancel();
  wake_tick_ = k;
  schedule_wake();
}

void ProgrammableSwitch::schedule_wake() {
  if (!gen_running_ || wake_tick_ == 0) {
    return;
  }
  const Nanos now = sim_.now();
  const Nanos t =
      wake_tick_ <= ticks_through(now) ? now : tick_time(wake_tick_);
  wake_ = sim_.at(t, [this] { deliver_wake(); });
}

void ProgrammableSwitch::deliver_wake() {
  wake_tick_ = 0;
  if (program_ == nullptr) {
    return;
  }
  Packet tick;
  tick.eth.ethertype = EtherType::kControl;
  tick.created_at = sim_.now();
  tick.id = next_packet_id_++;
  PipelineContext ctx{*this, sim_.now()};
  program_->on_generator_packet(tick, ctx);
}

void ProgrammableSwitch::emit_on_port(int port, Packet&& packet) {
  // Every emission funnels through here (emit_via_l2 included), so the
  // notification tap sees each matching frame exactly once.
  if (notify_tap_ && packet.eth.ethertype == notify_type_) {
    notify_tap_(packet, sim_.now());
  }
  // An out-of-range or unwired egress port is a counted drop (a
  // misconfigured program or L2 table must be observable, not UB).
  if (port < 0 || port >= num_ports_) {
    ++unwired_emits_;
    return;
  }
  Link* link = port_links_[std::size_t(port)];
  if (link == nullptr) {
    ++unwired_emits_;
    return;
  }
  link->send_from_b(std::move(packet));
}

void ProgrammableSwitch::emit_via_l2(const MacAddr& dst, Packet&& packet) {
  const auto it = l2_table_.find(dst);
  if (it == l2_table_.end()) {
    return;  // unknown destination: drop (no flooding in this fabric)
  }
  emit_on_port(it->second, std::move(packet));
}

void ProgrammableSwitch::ingress(Packet&& packet, int port) {
  ++processed_;
  if (obs_frames_ != nullptr) {
    obs_frames_->inc();
  }
  if (packet.id == 0) {
    packet.id = next_packet_id_++;
  }
  if (tap_) {
    tap_(packet, port, sim_.now());
  }
  // Model the ASIC pipeline traversal latency, then run the program and
  // forward.
  sim_.after(pipeline_latency_, [this, port, p = std::move(packet)]() mutable {
    PipelineContext ctx{*this, sim_.now()};
    PipelineVerdict verdict = PipelineVerdict::kDefaultForward;
    if (program_ != nullptr) {
      verdict = program_->process(p, port, ctx);
    }
    if (verdict == PipelineVerdict::kDefaultForward) {
      emit_via_l2(p.eth.dst, std::move(p));
    }
  });
}

}  // namespace slingshot
