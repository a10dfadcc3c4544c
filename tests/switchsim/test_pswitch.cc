#include "switchsim/pswitch.h"

#include <gtest/gtest.h>

#include "net/nic.h"
#include "common/stats.h"
#include "switchsim/tables.h"

namespace slingshot {
namespace {

struct Fixture {
  Simulator sim;
  ProgrammableSwitch sw{sim, 8};
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<Nic>> nics;

  Nic& add_station(int port, std::uint64_t mac) {
    links.push_back(std::make_unique<Link>(
        sim, LinkConfig{}, sim.rng().stream("loss", std::uint64_t(port))));
    nics.push_back(std::make_unique<Nic>(sim, MacAddr{mac}));
    nics.back()->attach(*links.back());
    sw.attach_link(port, *links.back());
    sw.add_l2_route(MacAddr{mac}, port);
    return *nics.back();
  }
};

TEST(ProgrammableSwitch, StaticL2Forwarding) {
  Fixture f;
  auto& a = f.add_station(0, 0xA);
  auto& b = f.add_station(1, 0xB);
  int b_got = 0;
  b.set_rx_handler([&](Packet&&) { ++b_got; });

  Packet p;
  p.eth.dst = MacAddr{0xB};
  p.payload = {1, 2, 3};
  a.send(std::move(p));
  f.sim.run_until(1_ms);
  EXPECT_EQ(b_got, 1);
}

TEST(ProgrammableSwitch, UnknownDestinationDropped) {
  Fixture f;
  auto& a = f.add_station(0, 0xA);
  Packet p;
  p.eth.dst = MacAddr{0xDEAD};
  a.send(std::move(p));
  f.sim.run_until(1_ms);
  EXPECT_EQ(f.sw.frames_processed(), 1U);  // ingressed but nowhere to go
}

struct DropAllProgram final : DataplaneProgram {
  int processed = 0;
  std::vector<Nanos> generator_packets;  // when each one arrived
  PipelineVerdict process(Packet&, int, PipelineContext&) override {
    ++processed;
    return PipelineVerdict::kHandled;  // swallow everything
  }
  void on_generator_packet(Packet&, PipelineContext& ctx) override {
    generator_packets.push_back(ctx.now());
  }
};

TEST(ProgrammableSwitch, ProgramCanConsumeFrames) {
  Fixture f;
  auto& a = f.add_station(0, 0xA);
  auto& b = f.add_station(1, 0xB);
  int b_got = 0;
  b.set_rx_handler([&](Packet&&) { ++b_got; });
  auto program = std::make_shared<DropAllProgram>();
  f.sw.install_program(program);

  Packet p;
  p.eth.dst = MacAddr{0xB};
  a.send(std::move(p));
  f.sim.run_until(1_ms);
  EXPECT_EQ(program->processed, 1);
  EXPECT_EQ(b_got, 0);
}

struct RedirectProgram final : DataplaneProgram {
  MacAddr target;
  PipelineVerdict process(Packet& p, int, PipelineContext& ctx) override {
    p.eth.dst = target;
    ctx.emit_to_mac(target, std::move(p));
    return PipelineVerdict::kHandled;
  }
  void on_generator_packet(Packet&, PipelineContext&) override {}
};

TEST(ProgrammableSwitch, ProgramCanRedirect) {
  Fixture f;
  auto& a = f.add_station(0, 0xA);
  auto& b = f.add_station(1, 0xB);
  auto& c = f.add_station(2, 0xC);
  int b_got = 0;
  int c_got = 0;
  b.set_rx_handler([&](Packet&&) { ++b_got; });
  c.set_rx_handler([&](Packet&&) { ++c_got; });
  auto program = std::make_shared<RedirectProgram>();
  program->target = MacAddr{0xC};
  f.sw.install_program(program);

  Packet p;
  p.eth.dst = MacAddr{0xB};  // program redirects to C
  a.send(std::move(p));
  f.sim.run_until(1_ms);
  EXPECT_EQ(b_got, 0);
  EXPECT_EQ(c_got, 1);
}

TEST(ProgrammableSwitch, PacketGeneratorTicksAtPeriod) {
  Fixture f;
  auto program = std::make_shared<DropAllProgram>();
  f.sw.install_program(program);
  f.sw.start_packet_generator(9_us);
  f.sim.run_until(90_us);
  EXPECT_EQ(f.sw.generator_packets(), 10U);
  f.sim.run_until(200_us);
  EXPECT_EQ(f.sw.generator_packets(), 22U);
  // A tick clock: no event per tick, and no packet nobody asked for.
  EXPECT_EQ(f.sim.executed_events(), 0U);
  EXPECT_TRUE(program->generator_packets.empty());
}

TEST(ProgrammableSwitch, TickClockMapsTimeToTicks) {
  Fixture f;
  f.sim.run_until(3_us);
  f.sw.start_packet_generator(9_us);  // ticks at 12, 21, 30, ... us
  EXPECT_EQ(f.sw.ticks_through(11'999), 0U);
  EXPECT_EQ(f.sw.ticks_through(12_us), 1U);
  EXPECT_EQ(f.sw.ticks_before(12_us), 0U);
  EXPECT_EQ(f.sw.ticks_before(12'001), 1U);
  EXPECT_EQ(f.sw.tick_time(3), 30_us);
}

TEST(ProgrammableSwitch, WakeUpInjectsOnlyTheRequestedTick) {
  Fixture f;
  auto program = std::make_shared<DropAllProgram>();
  f.sw.install_program(program);
  // Asked for before the generator runs: due once it starts.
  f.sw.wake_program_at_tick(3);
  f.sim.run_until(50_us);
  EXPECT_TRUE(program->generator_packets.empty());
  f.sw.start_packet_generator(9_us);  // tick 3 at 77 us
  f.sw.wake_program_at_tick(5);       // replaces the request: 95 us
  f.sim.run_until(1_ms);
  ASSERT_EQ(program->generator_packets.size(), 1U);
  EXPECT_EQ(program->generator_packets[0], 95_us);
  EXPECT_EQ(f.sim.executed_events(), 1U);
  EXPECT_EQ(f.sw.generator_packets(), 105U);  // (1000 - 50) / 9
}

TEST(ProgrammableSwitch, IngressTapSeesFrames) {
  Fixture f;
  auto& a = f.add_station(0, 0xA);
  f.add_station(1, 0xB);
  int tapped = 0;
  f.sw.set_ingress_tap([&](const Packet&, int port, Nanos) {
    EXPECT_EQ(port, 0);
    ++tapped;
  });
  Packet p;
  p.eth.dst = MacAddr{0xB};
  a.send(std::move(p));
  f.sim.run_until(1_ms);
  EXPECT_EQ(tapped, 1);
}

struct EmitOnPortProgram final : DataplaneProgram {
  int port = 0;
  PipelineVerdict process(Packet& p, int, PipelineContext& ctx) override {
    ctx.emit(port, std::move(p));
    return PipelineVerdict::kHandled;
  }
  void on_generator_packet(Packet&, PipelineContext&) override {}
};

TEST(ProgrammableSwitch, EmitToOutOfRangePortIsCountedDrop) {
  // Regression: emitting on a port beyond the switch radix used to
  // throw (vector::at) from inside the pipeline; it must be a counted
  // drop — a misprogrammed egress is a dataplane event, not UB.
  Fixture f;
  auto& a = f.add_station(0, 0xA);
  auto program = std::make_shared<EmitOnPortProgram>();
  program->port = 99;
  f.sw.install_program(program);
  Packet p;
  p.eth.dst = MacAddr{0xB};
  a.send(std::move(p));
  f.sim.run_until(1_ms);
  EXPECT_EQ(f.sw.emits_to_unwired_port(), 1U);

  program->port = -3;
  Packet q;
  q.eth.dst = MacAddr{0xB};
  a.send(std::move(q));
  f.sim.run_until(2_ms);
  EXPECT_EQ(f.sw.emits_to_unwired_port(), 2U);
}

TEST(ProgrammableSwitch, EmitToUnwiredPortIsCountedDrop) {
  Fixture f;
  auto& a = f.add_station(0, 0xA);
  // Port 5 is within the radix but has no link attached.
  f.sw.add_l2_route(MacAddr{0xE}, 5);
  Packet p;
  p.eth.dst = MacAddr{0xE};
  a.send(std::move(p));
  f.sim.run_until(1_ms);
  EXPECT_EQ(f.sw.emits_to_unwired_port(), 1U);
  EXPECT_EQ(f.sw.frames_processed(), 1U);
}

TEST(ProgrammableSwitch, NotificationTapNullFunctionDetaches) {
  Fixture f;
  auto& a = f.add_station(0, 0xA);
  f.add_station(1, 0xB);
  int tapped = 0;
  f.sw.set_notification_tap(EtherType::kUserPlane,
                            [&](const Packet&, Nanos) { ++tapped; });
  Packet p;
  p.eth.dst = MacAddr{0xB};
  p.eth.ethertype = EtherType::kUserPlane;
  a.send(std::move(p));
  f.sim.run_until(1_ms);
  EXPECT_EQ(tapped, 1);

  f.sw.set_notification_tap(EtherType::kUserPlane, nullptr);
  Packet q;
  q.eth.dst = MacAddr{0xB};
  q.eth.ethertype = EtherType::kUserPlane;
  a.send(std::move(q));
  f.sim.run_until(2_ms);
  EXPECT_EQ(tapped, 1);  // detached: no further callbacks
}

TEST(ProgrammableSwitch, TickPerturbationStretchesGeneratorTrain) {
  Fixture f;
  auto program = std::make_shared<DropAllProgram>();
  f.sw.install_program(program);
  // A +11% "slow oscillator" perturbation: 9 us nominal -> 10 us real.
  f.sw.set_tick_perturbation([](Nanos nominal) {
    return nominal + nominal / 9;
  });
  f.sw.start_packet_generator(9_us);
  f.sim.run_until(90_us);
  EXPECT_EQ(f.sw.generator_packets(), 9U);  // 10 with an ideal clock
  EXPECT_EQ(f.sw.tick_time(12), 120_us);
}

TEST(MatchActionTable, BootstrapInsertIsImmediate) {
  Simulator sim;
  MatchActionTable<int, int> table{sim, sim.rng().stream("cp")};
  table.bootstrap_insert(1, 100);
  ASSERT_NE(table.lookup(1), nullptr);
  EXPECT_EQ(*table.lookup(1), 100);
  EXPECT_EQ(table.lookup(2), nullptr);
}

TEST(MatchActionTable, ControlPlaneInsertTakesMilliseconds) {
  Simulator sim;
  MatchActionTable<int, int> table{sim, sim.rng().stream("cp")};
  const Nanos lands_at = table.control_plane_insert(7, 7);
  EXPECT_GE(lands_at, 5_ms);  // at least the base latency
  sim.run_until(4_ms);
  EXPECT_EQ(table.lookup(7), nullptr);  // not yet visible
  sim.run_until(lands_at + 1);
  ASSERT_NE(table.lookup(7), nullptr);
}

TEST(MatchActionTable, UpdateLatencyTailMatchesPaper) {
  // The paper measures ~29 ms at p99.9 for switch rule updates — the
  // reason the RU-to-PHY map lives in data-plane registers instead.
  Simulator sim;
  auto rng = sim.rng().stream("lat");
  ControlPlaneLatencyModel model;
  PercentileTracker t;
  for (int i = 0; i < 20000; ++i) {
    t.add(to_millis(model.sample(rng)));
  }
  EXPECT_NEAR(t.quantile(0.999), 29.0, 6.0);
  EXPECT_GT(t.quantile(0.0), 4.9);
}

TEST(MatchActionTable, InstallsApplyInIssueOrderNotLatencyOrder) {
  Simulator sim;
  MatchActionTable<int, int> table{sim, sim.rng().stream("cp")};
  // Issue updates to one key back-to-back until the sampled latencies
  // invert (a later issue landing earlier). The exponential tail makes
  // this near-immediate; the fixed seed makes it deterministic.
  Nanos prev = table.control_plane_insert(5, 0);
  int last = 0;
  bool inverted = false;
  for (int i = 1; i < 256 && !inverted; ++i) {
    const Nanos lands = table.control_plane_insert(5, i);
    last = i;
    inverted = lands < prev;
    prev = lands;
  }
  ASSERT_TRUE(inverted);
  sim.run_until(1_s);
  // The newest *issued* value wins even though an older install landed
  // after it; the stale land was dropped, not applied.
  ASSERT_NE(table.lookup(5), nullptr);
  EXPECT_EQ(*table.lookup(5), last);
  EXPECT_GE(table.stale_lands_dropped(), 1U);
}

TEST(MatchActionTable, IssueOrderIsTrackedPerKey) {
  Simulator sim;
  MatchActionTable<int, int> table{sim, sim.rng().stream("cp")};
  // Interleaved updates to two keys: latency inversions across keys
  // never invalidate each other, only within a key.
  for (int i = 0; i < 8; ++i) {
    table.control_plane_insert(1, 100 + i);
    table.control_plane_insert(2, 200 + i);
  }
  sim.run_until(1_s);
  ASSERT_NE(table.lookup(1), nullptr);
  ASSERT_NE(table.lookup(2), nullptr);
  EXPECT_EQ(*table.lookup(1), 107);
  EXPECT_EQ(*table.lookup(2), 207);
}

TEST(MatchActionTable, TeardownCancelsPendingInstalls) {
  Simulator sim;
  {
    MatchActionTable<int, int> table{sim, sim.rng().stream("cp")};
    for (int i = 0; i < 16; ++i) {
      table.control_plane_insert(i, i);
    }
  }  // destroyed with installs still in flight
  sim.run_until(1_s);  // cancelled callbacks must not touch freed memory
  SUCCEED();
}

TEST(RegisterArray, DataPlaneReadWrite) {
  RegisterArray<int> regs{4, -1};
  EXPECT_EQ(regs.read(3), -1);
  regs.write(3, 42);
  EXPECT_EQ(regs.read(3), 42);
  EXPECT_THROW(regs.write(4, 0), std::out_of_range);
}

}  // namespace
}  // namespace slingshot
