// Programmable switch model (Tofino-style).
//
// Frames arriving on any port traverse an optional DataplaneProgram
// (Slingshot's fronthaul middlebox installs one); the program can
// forward, drop, rewrite, or emit additional packets at data-plane
// latency. Frames the program declines are forwarded by the switch's
// plain static L2 table. A built-in packet generator injects periodic
// "timer" packets into the pipeline, which is how the failure detector
// emulates timeouts on hardware that has no timers (§5.2.2). On Tofino
// those packets are free; here the generator is a tick clock that maps
// time to a tick index, and only the ticks a program asks for are
// injected (see wake_program_at_tick).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace slingshot {

class ProgrammableSwitch;

// What the dataplane program decided for the frame it was handed.
enum class PipelineVerdict : std::uint8_t {
  kDefaultForward,  // not mine: use the switch's static L2 table
  kHandled,         // program consumed it (forwarded via ctx or dropped)
};

// Execution context handed to the program for each packet.
class PipelineContext {
 public:
  PipelineContext(ProgrammableSwitch& sw, Nanos now) : sw_(sw), now_(now) {}

  [[nodiscard]] Nanos now() const { return now_; }
  // Emit a frame out of a specific egress port.
  void emit(int egress_port, Packet&& packet);
  // Emit a frame toward a MAC address via the static L2 table.
  void emit_to_mac(const MacAddr& dst, Packet&& packet);

 private:
  ProgrammableSwitch& sw_;
  Nanos now_;
};

class DataplaneProgram {
 public:
  virtual ~DataplaneProgram() = default;
  // Called by install_program. A program that counts generator ticks
  // keeps `sw` to read its tick clock and to ask for wake-ups.
  virtual void on_install(ProgrammableSwitch& /*sw*/) {}
  // Process a frame that arrived on `ingress_port`. May mutate it.
  virtual PipelineVerdict process(Packet& packet, int ingress_port,
                                  PipelineContext& ctx) = 0;
  // Called with the generator packet of a tick the program asked for
  // (ProgrammableSwitch::wake_program_at_tick).
  virtual void on_generator_packet(Packet& packet, PipelineContext& ctx) = 0;
};

// Observes every ingress frame — models the paper's timestamping mirror
// (§8.6) used to measure fronthaul inter-packet gaps.
using IngressTap =
    std::function<void(const Packet&, int ingress_port, Nanos now)>;

// Observes emitted frames of one EtherType (see set_notification_tap).
using NotificationTap = std::function<void(const Packet&, Nanos now)>;

class ProgrammableSwitch {
 public:
  ProgrammableSwitch(Simulator& sim, int num_ports,
                     Nanos pipeline_latency = 400);

  // Wire up `link`'s B side to `port`; frames from the link enter the
  // pipeline, frames emitted on the port go to the link's A side.
  void attach_link(int port, Link& link);

  // Static L2 forwarding entry (set up at installation time).
  void add_l2_route(const MacAddr& mac, int port);

  void install_program(std::shared_ptr<DataplaneProgram> program) {
    program_ = std::move(program);
    if (program_ != nullptr) {
      program_->on_install(*this);
    }
  }
  [[nodiscard]] DataplaneProgram* program() const { return program_.get(); }

  // Start the generator ticking every `period`, the first tick (tick 1)
  // one period from now. Tofino's packet generator is configured once
  // by the control plane (§7); call this once.
  void start_packet_generator(Nanos period);

  // Ticks at or before `t`. Queries walk the train forward: `t` must
  // not precede the last tick at or before an earlier query.
  [[nodiscard]] std::uint64_t ticks_through(Nanos t);
  // Ticks strictly before `t`.
  [[nodiscard]] std::uint64_t ticks_before(Nanos t);
  // Time of tick `k` of the running generator. `k` must not precede
  // the last tick at or before the latest query.
  [[nodiscard]] Nanos tick_time(std::uint64_t k);
  // Inject the generator packet of tick `k` into the installed
  // program's on_generator_packet at that tick's time. One wake-up is
  // pending at a time: a new request replaces the old one. A tick
  // already past is delivered now; before the generator starts the
  // request waits for the start.
  void wake_program_at_tick(std::uint64_t k);

  void set_ingress_tap(IngressTap tap) { tap_ = std::move(tap); }

  // Clock-error hook for the packet generator (the gPTP sync-error
  // model): when set, every tick interval is the nominal period passed
  // through `f` — the period as counted on the switch's drifting local
  // oscillator. Must be set before start_packet_generator; null keeps
  // the ideal fixed-period generator. `f` is called once per tick, in
  // tick order, when the clock walks past that tick — not at the
  // tick's time — so it must not draw from shared state.
  using TickPerturbation = std::function<Nanos(Nanos nominal_period)>;
  void set_tick_perturbation(TickPerturbation f) {
    tick_perturb_ = std::move(f);
  }

  // Observes frames the switch *emits* with the given EtherType —
  // regardless of egress port or whether the port is wired. Lets a
  // fleet-level watcher (the shard coordinator) see switch-originated
  // failure notifications (§5.2.2) without sitting in the forwarding
  // path. One tap per switch; pass a null function to detach.
  void set_notification_tap(EtherType type, NotificationTap tap) {
    notify_type_ = type;
    notify_tap_ = std::move(tap);
  }

  // Mirror the frame counter into a registry counter. Cached raw
  // pointer (registry storage is stable), null-checked on the hot path;
  // pass nullptr to detach.
  void bind_obs(obs::Counter* frames) { obs_frames_ = frames; }

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] int num_ports() const { return num_ports_; }
  [[nodiscard]] std::uint64_t frames_processed() const { return processed_; }
  // Generator ticks so far: the packets a per-tick generator would have
  // injected.
  [[nodiscard]] std::uint64_t generator_packets() {
    return ticks_through(sim_.now());
  }
  // Emissions aimed at an out-of-range or unwired port: a silently
  // misconfigured egress is a counted, observable drop, never UB.
  [[nodiscard]] std::uint64_t emits_to_unwired_port() const {
    return unwired_emits_;
  }

  // Internal use by PipelineContext and port sinks.
  void emit_on_port(int port, Packet&& packet);
  void emit_via_l2(const MacAddr& dst, Packet&& packet);
  void ingress(Packet&& packet, int port);

 private:
  void schedule_wake();
  void deliver_wake();

  struct PortSink final : FrameSink {
    ProgrammableSwitch* owner = nullptr;
    int port = -1;
    void handle_frame(Packet&& packet) override {
      owner->ingress(std::move(packet), port);
    }
  };

  Simulator& sim_;
  int num_ports_;
  Nanos pipeline_latency_;
  std::vector<Link*> port_links_;
  std::vector<std::unique_ptr<PortSink>> sinks_;
  std::unordered_map<MacAddr, int> l2_table_;
  std::shared_ptr<DataplaneProgram> program_;
  // Tick clock: tick k falls at gen_start_ + k * gen_period_ on the
  // ideal clock.
  Nanos gen_period_ = 0;
  Nanos gen_start_ = 0;
  bool gen_running_ = false;
  TickPerturbation tick_perturb_;
  // Perturbed train, walked forward on demand: the last tick at or
  // before the latest query, and the ticks walked past it to place a
  // wake-up (never more than one wake-up's look-ahead).
  std::uint64_t walk_tick_ = 0;
  Nanos walk_time_ = 0;
  std::deque<Nanos> walk_ahead_;
  std::uint64_t wake_tick_ = 0;  // 0: no wake-up requested
  EventHandle wake_;
  IngressTap tap_;
  EtherType notify_type_ = EtherType::kControl;
  NotificationTap notify_tap_;
  std::uint64_t processed_ = 0;
  std::uint64_t unwired_emits_ = 0;
  obs::Counter* obs_frames_ = nullptr;
  std::uint64_t next_packet_id_ = 1;
};

}  // namespace slingshot
