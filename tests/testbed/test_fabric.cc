// Realistic-fabric layer: inertness at defaults, FRER end-to-end
// resilience, cross-traffic injection, and the gPTP sync-error model,
// all through the full testbed.
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/log.h"
#include "testbed/testbed.h"
#include "transport/apps.h"

namespace slingshot {
namespace {

// FNV-1a over the fields that identify one distinct fronthaul frame:
// origin, tx timestamp, and payload. Two frames hashing equal are the
// same frame delivered twice.
std::uint64_t frame_fingerprint(const Packet& p) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(p.eth.src.bits());
  mix(std::uint64_t(p.created_at));
  for (std::uint8_t b : p.payload) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

// With every fabric knob at its default the layer must be provably
// absent: the steady-state golden scenario reproduces the pinned event
// count and (time, seq) trace hash bit-for-bit.
TEST(Fabric, IdealConfigReproducesGoldenTrace) {
  Logger::instance().set_level(LogLevel::kError);
  TestbedConfig cfg;
  cfg.seed = 42;
  cfg.num_ues = 2;
  cfg.ue_mean_snr_db = {18.0, 7.0};
  cfg.link = LinkConfig{};      // explicit ideal link
  cfg.fabric = FabricConfig{};  // explicit ideal fabric
  Testbed tb{cfg};

  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 4e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};

  tb.start();
  tb.run_until(100_ms);
  flow.start();
  tb.run_until(500_ms);

  // Same pins as GoldenTrace.SteadyStateMatchesSeedImplementation.
  EXPECT_EQ(tb.sim().executed_events(), 63548ULL);
  EXPECT_EQ(tb.sim().trace_hash(), 0xf1efcffe0040b04eULL);
  // And the fabric layer reports itself absent.
  EXPECT_EQ(tb.fabric_b(), nullptr);
  EXPECT_EQ(tb.frer_totals().passed, 0U);
  EXPECT_EQ(tb.cross_traffic_frames(), 0U);
  EXPECT_EQ(tb.sync_max_abs_offset_seen(), 0);
  EXPECT_EQ(tb.phy_link(0).dropped_overflow(), 0U);
}

TEST(Fabric, FrerSurvivesSingleLinkKillWithZeroOutage) {
  Logger::instance().set_level(LogLevel::kError);
  TestbedConfig cfg;
  cfg.seed = 7;
  cfg.num_ues = 1;
  cfg.fabric.frer = true;
  cfg.fabric.arm_detector = false;  // pure replication, no failover
  Testbed tb{cfg};
  ASSERT_NE(tb.fabric_b(), nullptr);
  ASSERT_NE(tb.phy_link_b(0), nullptr);

  // Independent duplicate-leak detector: every eCPRI frame reaching the
  // RU NIC past the eliminator must be unique.
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t duplicates_delivered = 0;
  tb.ru_nic().set_rx_interceptor([&](Packet& p) {
    if (p.eth.ethertype == EtherType::kEcpri &&
        !seen.insert(frame_fingerprint(p)).second) {
      ++duplicates_delivered;
    }
    return true;
  });

  tb.start();
  tb.run_until(250_ms);
  const auto dropped_before = tb.ru().stats().dropped_ttis;

  // Cable pull on PHY-A's plane-A link: both DL and UL on plane A die;
  // plane B carries every frame through.
  tb.phy_link(0).set_down(true);
  tb.run_until(450_ms);

  EXPECT_EQ(tb.ru().stats().dropped_ttis, dropped_before);  // zero outage
  EXPECT_EQ(duplicates_delivered, 0U);
  const auto totals = tb.frer_totals();
  EXPECT_GT(totals.passed, 0U);
  EXPECT_GT(totals.duplicates_eliminated, 0U);  // both planes were live
  EXPECT_EQ(totals.rogue_discarded, 0U);
  EXPECT_GT(tb.phy_link(0).dropped_down(), 0U);
  // No failover happened — resilience came from replication alone.
  EXPECT_EQ(tb.last_failover_notification(), 0);
  EXPECT_EQ(tb.mbox().stats().failures_detected, 0U);
}

TEST(Fabric, WithoutFrerTheSameLinkKillStarvesTheRu) {
  Logger::instance().set_level(LogLevel::kError);
  TestbedConfig cfg;
  cfg.seed = 7;
  cfg.num_ues = 1;
  cfg.fabric.arm_detector = false;  // no failover to mask the outage
  Testbed tb{cfg};
  EXPECT_EQ(tb.fabric_b(), nullptr);
  tb.start();
  tb.run_until(250_ms);
  const auto dropped_before = tb.ru().stats().dropped_ttis;
  tb.phy_link(0).set_down(true);
  tb.run_until(450_ms);
  EXPECT_GT(tb.ru().stats().dropped_ttis, dropped_before + 100);
  EXPECT_EQ(tb.frer_totals().passed, 0U);
}

TEST(Fabric, CrossTrafficInjectsAtConfiguredLoadWithoutFalsePositives) {
  Logger::instance().set_level(LogLevel::kError);
  TestbedConfig cfg;
  cfg.seed = 11;
  cfg.num_ues = 1;
  cfg.fabric.cross_traffic_load = 0.3;  // modest load on 100 GbE
  Testbed tb{cfg};
  tb.start();
  tb.run_until(100_ms);
  EXPECT_GT(tb.cross_traffic_frames(), 1000U);
  EXPECT_GT(tb.cross_traffic_bytes(), tb.cross_traffic_frames() * 1500);
  // 30% background load leaves the §5.2.2 congestion margin intact:
  // no spurious failure detection.
  EXPECT_EQ(tb.mbox().stats().failures_detected, 0U);
  EXPECT_EQ(tb.last_failover_notification(), 0);
}

TEST(Fabric, SyncErrorStaysBoundedAndPerturbsTheTickTrain) {
  Logger::instance().set_level(LogLevel::kError);
  TestbedConfig cfg;
  cfg.seed = 13;
  cfg.num_ues = 1;
  cfg.fabric.sync.max_abs_offset = 1'000;  // +/- 1 us, gPTP-grade
  cfg.fabric.sync.drift_ppm = 50.0;
  Testbed tb{cfg};
  tb.start();
  tb.run_until(100_ms);
  EXPECT_GT(tb.sync_max_abs_offset_seen(), 0);
  EXPECT_LE(tb.sync_max_abs_offset_seen(), 1'000);
  // Bounded gPTP error must not fake a PHY death.
  EXPECT_EQ(tb.mbox().stats().failures_detected, 0U);
}

TEST(Fabric, DetectorDisarmGateSilencesFailover) {
  Logger::instance().set_level(LogLevel::kError);
  TestbedConfig cfg;
  cfg.seed = 17;
  cfg.num_ues = 1;
  cfg.fabric.arm_detector = false;
  Testbed tb{cfg};
  tb.start();
  tb.run_until(100_ms);
  tb.kill_primary_phy();
  tb.run_until(300_ms);
  // A dead PHY with the detector disarmed: nobody notices, nobody
  // migrates — the control the FRER-vs-failover bench relies on.
  EXPECT_EQ(tb.mbox().stats().failures_detected, 0U);
  EXPECT_EQ(tb.last_failover_notification(), 0);
}

}  // namespace
}  // namespace slingshot
