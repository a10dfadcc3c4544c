#include "net/link.h"

#include <gtest/gtest.h>

#include "net/nic.h"

namespace slingshot {
namespace {

struct Collector final : FrameSink {
  std::vector<Packet> frames;
  std::vector<Nanos> times;
  Simulator* sim = nullptr;
  void handle_frame(Packet&& p) override {
    frames.push_back(std::move(p));
    times.push_back(sim->now());
  }
};

Packet make_test_packet(std::size_t payload_size) {
  Packet p;
  p.eth.dst = MacAddr{0x2};
  p.eth.src = MacAddr{0x1};
  p.payload.assign(payload_size, 0xAB);
  return p;
}

TEST(Link, DeliversWithLatencyAndSerialization) {
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;  // 1 Gbps: 8 ns per byte
  cfg.propagation_delay = 1'000;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);

  link.send_from_a(make_test_packet(100));  // wire size 118 B
  sim.run_until(1_s);
  ASSERT_EQ(rx.frames.size(), 1U);
  // 118 bytes * 8 ns = 944 ns tx + 1000 ns propagation.
  EXPECT_EQ(rx.times[0], 944 + 1'000);
}

TEST(Link, BackToBackFramesQueue) {
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.propagation_delay = 0;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);

  link.send_from_a(make_test_packet(1000));  // 1018 B -> 8144 ns
  link.send_from_a(make_test_packet(1000));
  sim.run_until(1_s);
  ASSERT_EQ(rx.frames.size(), 2U);
  EXPECT_EQ(rx.times[1] - rx.times[0], 8'144);
}

TEST(Link, FullDuplexDirectionsIndependent) {
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.propagation_delay = 100;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector a;
  Collector b;
  a.sim = &sim;
  b.sim = &sim;
  link.attach_a(&a);
  link.attach_b(&b);

  link.send_from_a(make_test_packet(100));
  link.send_from_b(make_test_packet(100));
  sim.run_until(1_s);
  ASSERT_EQ(a.frames.size(), 1U);
  ASSERT_EQ(b.frames.size(), 1U);
  EXPECT_EQ(a.times[0], b.times[0]);  // no shared serialization queue
}

TEST(Link, LossDropsApproximatelyAtConfiguredRate) {
  Simulator sim;
  LinkConfig cfg;
  cfg.loss_probability = 0.2;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);
  for (int i = 0; i < 2000; ++i) {
    link.send_from_a(make_test_packet(10));
  }
  sim.run_until(1_s);
  EXPECT_NEAR(double(rx.frames.size()) / 2000.0, 0.8, 0.05);
  EXPECT_EQ(link.frames_dropped() + link.frames_delivered(), 2000U);
}

TEST(Link, UnattachedSideDrops) {
  Simulator sim;
  Link link{sim, {}, sim.rng().stream("loss")};
  link.send_from_a(make_test_packet(10));
  sim.run_until(1_ms);
  EXPECT_EQ(link.frames_dropped(), 1U);
}

TEST(Link, DropCausesAreCountedSeparately) {
  Simulator sim;
  Link link{sim, {}, sim.rng().stream("loss")};
  // No receiver attached yet.
  link.send_from_a(make_test_packet(10));
  EXPECT_EQ(link.dropped_no_receiver(), 1U);

  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);
  link.set_fault_hook([](Packet&, bool) { return false; });
  link.send_from_a(make_test_packet(10));
  EXPECT_EQ(link.dropped_fault(), 1U);
  link.set_fault_hook({});

  // The aggregate stays the sum of the three causes.
  EXPECT_EQ(link.dropped_loss(), 0U);
  EXPECT_EQ(link.frames_dropped(), 2U);
  sim.run_until(1_ms);
  EXPECT_TRUE(rx.frames.empty());
}

TEST(Link, FaultHookRunsBeforeLossGate) {
  // With loss_probability = 1.0 every frame reaching the loss gate is
  // dropped as loss — so a hook-dropped frame counted as a fault drop
  // proves the hook runs first.
  Simulator sim;
  LinkConfig cfg;
  cfg.loss_probability = 1.0;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);
  link.set_fault_hook([](Packet&, bool) { return false; });
  link.send_from_a(make_test_packet(10));
  EXPECT_EQ(link.dropped_fault(), 1U);
  EXPECT_EQ(link.dropped_loss(), 0U);
}

TEST(Link, HookDropsDoNotPerturbTheLossRng) {
  // Frames the fault hook eats must not draw from the loss RNG: the
  // loss decisions for the surviving frames are identical with and
  // without interleaved hook-dropped frames.
  LinkConfig cfg;
  cfg.loss_probability = 0.5;
  cfg.propagation_delay = 0;
  auto run = [&](bool interleave) {
    Simulator sim;  // same default seed -> same "loss" stream
    Link link{sim, cfg, sim.rng().stream("loss")};
    Collector rx;
    rx.sim = &sim;
    link.attach_b(&rx);
    link.set_fault_hook(
        [](Packet& p, bool) { return p.payload.size() != 1; });
    for (int i = 0; i < 64; ++i) {
      if (interleave) {
        link.send_from_a(make_test_packet(1));  // eaten by the hook
      }
      Packet p = make_test_packet(10);
      p.payload[0] = std::uint8_t(i);
      link.send_from_a(std::move(p));
    }
    sim.run_until(1_s);
    std::vector<int> survivors;
    for (const auto& f : rx.frames) {
      survivors.push_back(f.payload[0]);
    }
    return survivors;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Link, DeliveredCountsAtHandOffNotAtSchedule) {
  // Regression: delivered_ used to be bumped when the delivery event was
  // *scheduled*, so a frame still serializing or propagating was already
  // "delivered" and could never be distinguished from one handed to the
  // receiver.
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;  // 118 B -> 944 ns on the wire
  cfg.propagation_delay = 10'000;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);

  link.send_from_a(make_test_packet(100));
  EXPECT_EQ(link.frames_delivered(), 0U);
  EXPECT_EQ(link.frames_in_flight(), 1U);
  sim.run_until(5'000);  // mid-propagation
  EXPECT_EQ(link.frames_delivered(), 0U);
  EXPECT_EQ(link.frames_in_flight(), 1U);
  sim.run_until(1_s);
  EXPECT_EQ(link.frames_delivered(), 1U);
  EXPECT_EQ(link.frames_in_flight(), 0U);
  EXPECT_EQ(link.bytes_delivered(), 118U);
}

TEST(Link, TxTimeChargesSubNanosecondRemainders) {
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_bps = 100e9;  // 118 B -> 9.44 ns exactly
  cfg.propagation_delay = 0;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);
  for (int i = 0; i < 100; ++i) {
    link.send_from_a(make_test_packet(100));
  }
  sim.run_until(1_ms);
  // Each frame's 0.44 ns remainder is charged to the next one, so the
  // burst ends at ceil(100 * 9.44) = 944 ns and no frame starts before
  // its predecessor finished. (Rounding each frame to 9 ns instead would
  // compress the burst to 900 ns, every frame overlapping the last.)
  const auto& pico = rx.times;
  ASSERT_EQ(pico.size(), 100U);
  EXPECT_EQ(pico.front(), 10);
  EXPECT_EQ(pico.back(), 944);
  for (std::size_t i = 1; i < pico.size(); ++i) {
    EXPECT_GE(pico[i] - pico[i - 1], 9);
  }
}

TEST(Link, FiniteQueueTailDropsAndRecovers) {
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;        // 1018 B -> 8144 ns per frame
  cfg.propagation_delay = 0;
  cfg.max_queue_bytes = 2'000;    // two frames of backlog
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);

  for (int i = 0; i < 10; ++i) {
    link.send_from_a(make_test_packet(1000));
  }
  EXPECT_EQ(link.dropped_overflow(), 8U);
  sim.run_until(1_s);
  EXPECT_EQ(rx.frames.size(), 2U);
  // Queue drained: the link accepts traffic again (tail drop, not a
  // latched failure).
  link.send_from_a(make_test_packet(1000));
  sim.run_until(2_s);
  EXPECT_EQ(rx.frames.size(), 3U);
  EXPECT_EQ(link.dropped_overflow(), 8U);
}

TEST(Link, UnboundedByDefault) {
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.propagation_delay = 0;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);
  for (int i = 0; i < 1000; ++i) {
    link.send_from_a(make_test_packet(1000));
  }
  sim.run_until(10_s);
  EXPECT_EQ(rx.frames.size(), 1000U);
  EXPECT_EQ(link.dropped_overflow(), 0U);
}

TEST(Link, DownedLinkDropsNewSendsButDeliversInFlight) {
  Simulator sim;
  LinkConfig cfg;
  cfg.propagation_delay = 1'000;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);

  link.send_from_a(make_test_packet(100));  // on the wire before the pull
  link.set_down(true);
  link.send_from_a(make_test_packet(100));
  EXPECT_EQ(link.dropped_down(), 1U);
  sim.run_until(1_s);
  EXPECT_EQ(rx.frames.size(), 1U);
  link.set_down(false);
  link.send_from_a(make_test_packet(100));
  sim.run_until(2_s);
  EXPECT_EQ(rx.frames.size(), 2U);
  EXPECT_EQ(link.frames_dropped(), 1U);
}

TEST(Link, BurstPreservesOrderAndSerializationGaps) {
  Simulator sim;
  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;  // 218 B -> 1744 ns per frame
  cfg.propagation_delay = 500;
  Link link{sim, cfg, sim.rng().stream("loss")};
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);

  for (int i = 0; i < 32; ++i) {
    Packet p = make_test_packet(200);
    p.payload[0] = std::uint8_t(i);
    link.send_from_a(std::move(p));
  }
  sim.run_until(1_s);
  ASSERT_EQ(rx.frames.size(), 32U);
  for (std::size_t i = 0; i < rx.frames.size(); ++i) {
    EXPECT_EQ(rx.frames[i].payload[0], std::uint8_t(i));
    if (i > 0) {
      EXPECT_EQ(rx.times[i] - rx.times[i - 1], 1'744);
    }
  }
}

TEST(Nic, SendStampsSourceAndCounts) {
  Simulator sim;
  Link link{sim, {}, sim.rng().stream("loss")};
  Nic nic{sim, MacAddr{0xAA}};
  nic.attach(link);
  Collector rx;
  rx.sim = &sim;
  link.attach_b(&rx);

  Packet p = make_test_packet(64);
  p.eth.src = MacAddr{0xFF};  // should be overwritten by the NIC
  nic.send(std::move(p));
  sim.run_until(1_ms);
  ASSERT_EQ(rx.frames.size(), 1U);
  EXPECT_EQ(rx.frames[0].eth.src, MacAddr{0xAA});
  EXPECT_EQ(nic.tx_frames(), 1U);
}

TEST(Nic, ReceivesViaHandler) {
  Simulator sim;
  Link link{sim, {}, sim.rng().stream("loss")};
  Nic nic{sim, MacAddr{0xBB}};
  nic.attach(link);
  int received = 0;
  nic.set_rx_handler([&](Packet&&) { ++received; });
  link.send_from_b(make_test_packet(10));
  sim.run_until(1_ms);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(nic.rx_frames(), 1U);
}

}  // namespace
}  // namespace slingshot
