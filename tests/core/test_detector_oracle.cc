// Oracle test for the lazily evaluated failure detector (§5.2.2).
//
// PerTickDetector is the detector as it used to run: the packet
// generator schedules one simulator event every T/n, and each tick walks
// every tracked PHY's counter. FronthaulMiddlebox now reads its counters
// off the switch's tick clock and wakes only at deadlines. Both run the
// same seeded schedules — heartbeats, silences, watch/unwatch commands
// and direct calls, ideal and perturbed tick trains — and must emit the
// same (time, phy) notifications and count the same ticks.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "core/fh_mbox.h"
#include "net/timesync.h"

namespace slingshot {
namespace {

constexpr int kNumPhys = 4;
constexpr std::uint64_t kOrionMac = 0xC1;
constexpr std::uint64_t kRuMac = 0xA1;
constexpr Nanos kPipeline = 400;  // the switch's default pipeline latency

std::uint64_t phy_mac(int phy) { return 0xB0 + std::uint64_t(phy); }

// The per-tick reference: the generator loop and counter walk of the
// detector before it was made lazy, with the command and heartbeat
// handling it shared with the rest of the middlebox.
class PerTickDetector final : public DataplaneProgram {
 public:
  PerTickDetector(Simulator& sim, int ticks) : sim_(sim), ticks_(ticks) {}

  // The old ProgrammableSwitch::start_packet_generator.
  void start(Nanos period, ProgrammableSwitch::TickPerturbation perturb) {
    period_ = period;
    perturb_ = std::move(perturb);
    if (perturb_) {
      schedule_perturbed_tick();
      return;
    }
    sim_.every(sim_.now() + period, period, [this] { tick(); });
  }

  void watch_phy(PhyId phy, MacAddr orion_mac) {
    watches_[phy.value()] = Watch{true, orion_mac};
    counters_[phy.value()] = 0;
    if (std::find(tracked_.begin(), tracked_.end(), phy.value()) ==
        tracked_.end()) {
      tracked_.push_back(phy.value());
    }
  }
  void unwatch_phy(PhyId phy) {
    watches_[phy.value()].armed = false;
    std::erase(tracked_, phy.value());
  }

  void on_install(ProgrammableSwitch& sw) override { installed_on_ = &sw; }

  PipelineVerdict process(Packet& packet, int /*port*/,
                          PipelineContext& /*ctx*/) override {
    if (packet.eth.ethertype == EtherType::kSlingshotCmd) {
      if (packet.payload[0] == kCmdOpUnwatchPhy) {
        unwatch_phy(PhyId{packet.payload[1]});
      } else if (packet.payload[0] == kCmdOpWatchPhy) {
        watch_phy(PhyId{packet.payload[1]}, packet.eth.src);
      }
      return PipelineVerdict::kHandled;
    }
    const auto phy = std::uint8_t(packet.eth.src.bits() - 0xB0);
    counters_[phy] = 0;
    watches_[phy].armed =
        watches_[phy].notify_mac.bits() != 0 &&
        std::find(tracked_.begin(), tracked_.end(), phy) != tracked_.end();
    return PipelineVerdict::kHandled;
  }

  void on_generator_packet(Packet&, PipelineContext&) override {}

  [[nodiscard]] std::uint64_t failures_detected() const { return fired_; }
  [[nodiscard]] std::uint64_t generator_packets() const { return ticks_run_; }
  [[nodiscard]] std::uint64_t armed_ticks() const { return armed_ticks_; }

 private:
  struct Watch {
    bool armed = false;
    MacAddr notify_mac;
  };

  void schedule_perturbed_tick() {
    const Nanos interval = std::max<Nanos>(1, perturb_(period_));
    sim_.at(sim_.now() + interval, [this] {
      tick();
      schedule_perturbed_tick();
    });
  }

  // The old FronthaulMiddlebox::on_generator_packet.
  void tick() {
    ++ticks_run_;
    PipelineContext ctx{*installed_on_, sim_.now()};
    for (const auto phy : tracked_) {
      auto& watch = watches_[phy];
      if (!watch.armed) {
        continue;
      }
      ++armed_ticks_;
      if (counters_[phy] + 1 >= ticks_) {
        watch.armed = false;
        counters_[phy] = 0;
        ++fired_;
        Packet notify;
        notify.eth.dst = watch.notify_mac;
        notify.eth.ethertype = EtherType::kFailureNotify;
        notify.payload = {phy};
        ctx.emit_to_mac(watch.notify_mac, std::move(notify));
      } else {
        ++counters_[phy];
      }
    }
  }

  Simulator& sim_;
  int ticks_;
  ProgrammableSwitch* installed_on_ = nullptr;
  Nanos period_ = 0;
  ProgrammableSwitch::TickPerturbation perturb_;
  Watch watches_[kNumPhys + 1];
  int counters_[kNumPhys + 1] = {};
  std::vector<std::uint8_t> tracked_;
  std::uint64_t fired_ = 0;
  std::uint64_t ticks_run_ = 0;
  std::uint64_t armed_ticks_ = 0;
};

struct Notification {
  Nanos at;
  int phy;
  bool operator==(const Notification&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Notification& n) {
  return os << "(" << n.at << " ns, phy " << n.phy << ")";
}

enum class OpKind : std::uint8_t {
  kHeartbeat,       // DL fronthaul frame from the PHY, via the pipeline
  kWatchCommand,    // watch_phy command packet from Orion
  kUnwatchCommand,  // unwatch_phy command packet from Orion
  kWatchCall,       // direct FronthaulMiddlebox::watch_phy
  kUnwatchCall,     // direct FronthaulMiddlebox::unwatch_phy
};

struct Op {
  Nanos at;  // pipeline ops: when the frame enters the switch
  OpKind kind;
  int phy;
};

struct Schedule {
  Nanos timeout = 450'000;
  int ticks = 50;
  Nanos start_at = 0;  // generator start
  std::vector<int> watched_at_setup;  // direct watches before the start
  std::vector<Op> ops;
  double drift_ppm = 0.0;  // 0: ideal tick train
  Nanos horizon = 10'000'000;
  Nanos period() const { return timeout / ticks; }
};

struct Outcome {
  std::vector<Notification> notifications;
  std::uint64_t failures_detected = 0;
  std::uint64_t generator_packets = 0;
  std::uint64_t armed_ticks = 0;
};

Packet frame_for(const Op& op) {
  Packet p;
  if (op.kind == OpKind::kHeartbeat) {
    FronthaulPacket fh;
    fh.header.direction = FhDirection::kDownlink;
    fh.header.plane = FhPlane::kControl;
    fh.header.ru = RuId{1};
    p.eth.src = MacAddr{phy_mac(op.phy)};
    p.eth.dst = MacAddr{kRuMac};
    p.eth.ethertype = EtherType::kEcpri;
    p.payload = serialize_fronthaul(fh);
    return p;
  }
  p.eth.src = MacAddr{kOrionMac};
  p.eth.dst = MacAddr::broadcast();
  p.eth.ethertype = EtherType::kSlingshotCmd;
  p.payload = op.kind == OpKind::kWatchCommand
                  ? serialize_watch_cmd(WatchPhyCmd{PhyId{std::uint8_t(op.phy)}})
                  : serialize_unwatch_cmd(
                        UnwatchPhyCmd{PhyId{std::uint8_t(op.phy)}});
  return p;
}

constexpr std::uint64_t kSeed = 7;

// The switch oscillator of a perturbed schedule; each run gets its own.
std::optional<TimeSyncNode> switch_clock(const Schedule& s) {
  if (s.drift_ppm == 0.0) {
    return std::nullopt;
  }
  TimeSyncConfig cfg;
  cfg.drift_ppm = s.drift_ppm;
  return TimeSyncNode{cfg, RngRegistry{kSeed}.stream("tsync", 0)};
}

// Runs `s` against a detector program `D` (the middlebox or the oracle).
// Every input event is scheduled up front, before the generator starts,
// so a direct call at a tick instant runs ahead of that tick in both.
template <typename D>
Outcome run(const Schedule& s, std::function<void(Simulator&, D&)> late = {}) {
  Simulator sim{kSeed};
  ProgrammableSwitch sw{sim, 4};
  std::shared_ptr<D> det;
  if constexpr (std::is_same_v<D, FronthaulMiddlebox>) {
    FhMboxConfig cfg;
    cfg.detector_timeout = s.timeout;
    cfg.detector_ticks = s.ticks;
    det = std::make_shared<FronthaulMiddlebox>(sim, cfg);
    det->register_ru(RuId{1}, MacAddr{kRuMac});
    for (int p = 1; p <= kNumPhys; ++p) {
      det->register_phy(PhyId{std::uint8_t(p)}, MacAddr{phy_mac(p)});
    }
    det->bind_ru_to_phy(RuId{1}, PhyId{1});
  } else {
    det = std::make_shared<PerTickDetector>(sim, s.ticks);
  }
  sw.install_program(det);
  sw.add_l2_route(MacAddr{kOrionMac}, 1);  // unwired: the tap still sees it
  Outcome out;
  sw.set_notification_tap(EtherType::kFailureNotify,
                          [&out](const Packet& p, Nanos now) {
                            out.notifications.push_back({now, p.payload[0]});
                          });
  std::optional<TimeSyncNode> clock = switch_clock(s);
  ProgrammableSwitch::TickPerturbation perturb;
  if (clock) {
    perturb = [&clock](Nanos p) { return clock->perturb_period(p); };
  }

  for (const Op& op : s.ops) {
    sim.at(op.at, [&sw, &det, op] {
      switch (op.kind) {
        case OpKind::kWatchCall:
          det->watch_phy(PhyId{std::uint8_t(op.phy)}, MacAddr{kOrionMac});
          return;
        case OpKind::kUnwatchCall:
          det->unwatch_phy(PhyId{std::uint8_t(op.phy)});
          return;
        default:
          sw.ingress(frame_for(op), 0);
      }
    });
  }
  for (const int phy : s.watched_at_setup) {
    det->watch_phy(PhyId{std::uint8_t(phy)}, MacAddr{kOrionMac});
  }
  auto start = [&] {
    if constexpr (std::is_same_v<D, FronthaulMiddlebox>) {
      sw.set_tick_perturbation(perturb);
      sw.start_packet_generator(s.period());
    } else {
      det->start(s.period(), perturb);
    }
  };
  if (s.start_at == 0) {
    start();
  } else {
    sim.at(s.start_at, start);
  }
  if (late) {
    late(sim, *det);
  }
  sim.run_until(s.horizon);

  out.armed_ticks = det->armed_ticks();
  if constexpr (std::is_same_v<D, FronthaulMiddlebox>) {
    out.failures_detected = det->stats().failures_detected;
    out.generator_packets = sw.generator_packets();
  } else {
    out.failures_detected = det->failures_detected();
    out.generator_packets = det->generator_packets();
  }
  return out;
}

// Returns the number of notifications, so a sweep can check it fired.
std::size_t expect_same(const Schedule& s) {
  const Outcome lazy = run<FronthaulMiddlebox>(s);
  const Outcome oracle = run<PerTickDetector>(s);
  EXPECT_EQ(lazy.notifications, oracle.notifications);
  EXPECT_EQ(lazy.failures_detected, oracle.failures_detected);
  EXPECT_EQ(lazy.generator_packets, oracle.generator_packets);
  EXPECT_EQ(lazy.armed_ticks, oracle.armed_ticks);
  return oracle.notifications.size();
}

// A seeded schedule: heartbeats at random gaps around 0.6 T per PHY (so
// some silences outlast T), watch/unwatch commands and direct calls, a
// third of all inputs landing exactly on a tick instant.
Schedule random_schedule(std::uint64_t seed, bool perturbed) {
  RngStream rng{seed};
  Schedule s;
  const Nanos timeouts[] = {250'000, 300'000, 450'000};
  s.timeout = timeouts[rng.uniform_int(0, 2)];
  s.ticks = int(rng.uniform_int(2, 50));
  s.start_at = rng.bernoulli(0.5) ? 0 : Nanos(rng.uniform_int(1, 40'000));
  s.drift_ppm = perturbed ? rng.uniform(100.0, 2000.0) : 0.0;
  s.horizon = 30 * s.timeout;
  for (int p = 1; p <= kNumPhys; ++p) {
    if (rng.bernoulli(0.5)) {
      s.watched_at_setup.push_back(p);
    }
  }
  // The tick train the generator will run, to aim inputs at its ticks.
  std::vector<Nanos> ticks;
  std::optional<TimeSyncNode> clock = switch_clock(s);
  for (Nanos t = s.start_at;;) {
    t += clock ? std::max<Nanos>(1, clock->perturb_period(s.period()))
               : s.period();
    if (t > s.horizon) {
      break;
    }
    ticks.push_back(t);
  }
  auto pick_time = [&](bool pipeline) {
    if (!rng.bernoulli(0.33)) {
      return Nanos(rng.uniform_int(0, int(s.horizon)));
    }
    // On a tick instant: a pipeline op is processed exactly at the tick.
    const Nanos t = ticks[std::size_t(rng.uniform_int(0, int(ticks.size()) - 1))];
    return pipeline ? t - kPipeline : t;
  };
  for (int p = 1; p <= kNumPhys; ++p) {
    Nanos t = 0;
    for (;;) {
      t += Nanos(rng.exponential(0.6 * double(s.timeout)));
      if (t >= s.horizon) {
        break;
      }
      const Nanos at = rng.bernoulli(0.33) ? pick_time(true) : t;
      s.ops.push_back({at, OpKind::kHeartbeat, p});
    }
  }
  for (int i = 0; i < 24; ++i) {
    const auto kind = OpKind(rng.uniform_int(1, 4));
    const bool pipeline =
        kind == OpKind::kWatchCommand || kind == OpKind::kUnwatchCommand;
    s.ops.push_back(
        {pick_time(pipeline), kind, int(rng.uniform_int(1, kNumPhys))});
  }
  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const Op& a, const Op& b) { return a.at < b.at; });
  return s;
}

TEST(DetectorOracle, SeededSchedulesIdealTrain) {
  std::size_t notifications = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    notifications += expect_same(random_schedule(seed, /*perturbed=*/false));
  }
  EXPECT_GT(notifications, 400U);
}

TEST(DetectorOracle, SeededSchedulesPerturbedTrain) {
  std::size_t notifications = 0;
  for (std::uint64_t seed = 101; seed <= 140; ++seed) {
    SCOPED_TRACE(seed);
    notifications += expect_same(random_schedule(seed, /*perturbed=*/true));
  }
  EXPECT_GT(notifications, 400U);
}

TEST(DetectorOracle, HeartbeatAtTheExpiryTickFiresThenRearms) {
  // The heartbeat is processed at the instant of the tick that saturates
  // the counter, 400 ns after it entered the pipeline. The tick runs
  // first: the PHY is notified, and the heartbeat re-arms it.
  Schedule s;
  s.watched_at_setup = {1};
  const Nanos expiry = s.ticks * s.period();
  s.ops.push_back({expiry - kPipeline, OpKind::kHeartbeat, 1});
  s.horizon = 3 * s.timeout;
  const Outcome lazy = run<FronthaulMiddlebox>(s);
  const std::vector<Notification> want{{expiry, 1}, {2 * expiry, 1}};
  EXPECT_EQ(lazy.notifications, want);
  EXPECT_EQ(expect_same(s), 2U);
}

TEST(DetectorOracle, DirectWatchAtATickInstantCountsThatTick) {
  // The testbed's case: T = 250 us, n = 50 (a tick every 5 us) and the
  // watch grace timer firing at 5 ms, on tick 1000. The call runs ahead
  // of that tick, so tick 1000 is the counter's first: it fires on tick
  // 1049, not 1050.
  Schedule s;
  s.timeout = 250'000;
  s.ops.push_back({5'000'000, OpKind::kWatchCall, 1});
  s.horizon = 6'000'000;
  const Outcome lazy = run<FronthaulMiddlebox>(s);
  const std::vector<Notification> want{{1049 * 5'000, 1}};
  EXPECT_EQ(lazy.notifications, want);
  EXPECT_EQ(expect_same(s), 1U);
}

TEST(DetectorOracle, WatchBeforeTheGeneratorStarts) {
  Schedule s;
  s.watched_at_setup = {2};
  s.start_at = 100'000;
  s.horizon = 2'000'000;
  const Outcome lazy = run<FronthaulMiddlebox>(s);
  const std::vector<Notification> want{{100'000 + s.timeout, 2}};
  EXPECT_EQ(lazy.notifications, want);
  EXPECT_EQ(expect_same(s), 1U);
}

TEST(DetectorOracle, TwoPhysExpiringOnOneTickNotifyInTrackedOrder) {
  Schedule s;
  s.watched_at_setup = {3, 1};  // tracked order: 3, then 1
  s.horizon = 2 * s.timeout - 1;
  const Outcome lazy = run<FronthaulMiddlebox>(s);
  const std::vector<Notification> want{{s.timeout, 3}, {s.timeout, 1}};
  EXPECT_EQ(lazy.notifications, want);
  EXPECT_EQ(expect_same(s), 2U);
}

TEST(DetectorOracle, DirectCallAtItsOwnExpiryAfterTheDeadlineIsSetDiverges) {
  // The one pinned divergence. A direct unwatch_phy lands on the tick at
  // which the PHY's counter saturates, from an event scheduled after the
  // middlebox set its deadline but more than a tick ahead. The per-tick
  // loop schedules each tick one period ahead, so the call runs first
  // and nothing fires; the deadline event was scheduled earlier than the
  // call, so it runs first and fires. No caller does this: the
  // testbed's grace timer is scheduled before any watch exists.
  Schedule s;
  s.watched_at_setup = {1};
  s.horizon = 2 * s.timeout;
  const Nanos expiry = s.timeout;
  auto late = [expiry](Simulator& sim, auto& det) {
    sim.at(1'000, [&sim, &det, expiry] {
      sim.at(expiry, [&det] { det.unwatch_phy(PhyId{1}); });
    });
  };
  const Outcome lazy = run<FronthaulMiddlebox>(
      s, std::function<void(Simulator&, FronthaulMiddlebox&)>(late));
  const Outcome oracle = run<PerTickDetector>(
      s, std::function<void(Simulator&, PerTickDetector&)>(late));
  EXPECT_TRUE(oracle.notifications.empty());
  const std::vector<Notification> fired{{expiry, 1}};
  EXPECT_EQ(lazy.notifications, fired);
}

}  // namespace
}  // namespace slingshot
