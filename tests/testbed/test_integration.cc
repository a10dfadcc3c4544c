// End-to-end integration tests on the full simulated testbed.
#include "testbed/testbed.h"

#include <gtest/gtest.h>

#include "transport/apps.h"
#include "transport/minitcp.h"

namespace slingshot {
namespace {

TestbedConfig base_config() {
  TestbedConfig cfg;
  cfg.seed = 7;
  cfg.num_ues = 1;
  cfg.ue_mean_snr_db = {20.0};
  return cfg;
}

TEST(TestbedIntegration, BringUpIsStable) {
  Testbed tb{base_config()};
  tb.start();
  tb.run_until(500_ms);

  EXPECT_TRUE(tb.phy_a().alive());
  EXPECT_TRUE(tb.phy_b().alive());
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_EQ(tb.ue(0).stats().rlf_events, 0);
  EXPECT_EQ(tb.ue(0).stats().reattach_events, 0);
  // No false-positive failure detections.
  EXPECT_EQ(tb.mbox().stats().failures_detected, 0U);
  // The primary did real uplink work; the standby only nulls.
  EXPECT_GT(tb.phy_a().stats().ul_tbs_decoded, 50);
  EXPECT_EQ(tb.phy_b().stats().ul_tbs_decoded, 0);
  EXPECT_GT(tb.phy_b().stats().null_slots, 500);
  // The standby's heartbeats were blocked from the RU.
  EXPECT_GT(tb.mbox().stats().dl_blocked, 100U);
  EXPECT_EQ(tb.ru().stats().conflicting_sources, 0);
  // No dropped TTIs in steady state.
  EXPECT_EQ(tb.ru().stats().dropped_ttis, 0);
}

TEST(TestbedIntegration, SnrFilterConvergesAndMcsAdapts) {
  auto cfg = base_config();
  cfg.ue_mean_snr_db = {24.0};
  Testbed tb{cfg};
  tb.start();
  tb.run_until(1'000_ms);
  // The PHY's filtered SNR should track the channel (which wanders a
  // few dB around its mean), and the L2's link adaptation should see
  // the same value the PHY filter holds.
  const double instantaneous = tb.ue(0).channel().snr_db();
  const double filtered = tb.phy_a().filtered_snr_db(Testbed::kRu, UeId{1});
  EXPECT_NEAR(filtered, 24.0, 6.0);
  EXPECT_NEAR(filtered, instantaneous, 6.0);
  EXPECT_NEAR(tb.l2().reported_snr_db(UeId{1}), filtered, 0.5);
}

TEST(TestbedIntegration, UplinkUdpFlowDelivers) {
  Testbed tb{base_config()};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 10e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);  // settle
  flow.start();
  tb.run_until(1'100_ms);

  // Goodput between 300 ms and 1.1 s should be near the offered rate.
  double bytes = 0;
  for (std::size_t bin = 30; bin < 110; ++bin) {
    bytes += flow.goodput().bin(bin);
  }
  const double mbps = bytes * 8.0 / 0.8 / 1e6;
  EXPECT_GT(mbps, 8.0);
  EXPECT_LE(mbps, 11.0);
  EXPECT_LT(flow.loss_rate(), 0.05);
}

TEST(TestbedIntegration, DownlinkUdpFlowDelivers) {
  Testbed tb{base_config()};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 30e6;
  UdpFlow flow{tb.sim(), tb.server_pipe(0), tb.ue_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);
  flow.start();
  tb.run_until(1'100_ms);

  double bytes = 0;
  for (std::size_t bin = 30; bin < 110; ++bin) {
    bytes += flow.goodput().bin(bin);
  }
  const double mbps = bytes * 8.0 / 0.8 / 1e6;
  EXPECT_GT(mbps, 24.0);
}

TEST(TestbedIntegration, PingRoundTripIsCellularScale) {
  Testbed tb{base_config()};
  PingApp ping{tb.sim(), tb.server_pipe(0), PingConfig{}};
  PingResponder responder{tb.ue_pipe(0)};
  tb.start();
  tb.run_until(100_ms);
  ping.start();
  tb.run_until(2'000_ms);

  ASSERT_GT(ping.samples().size(), 100U);
  PercentileTracker rtt;
  for (const auto& s : ping.samples()) {
    rtt.add(to_millis(s.rtt));
  }
  // The paper's testbed pings at ~22.8 ms median; ours should be in the
  // same cellular ballpark (well above datacenter RTTs).
  EXPECT_GT(rtt.quantile(0.5), 10.0);
  EXPECT_LT(rtt.quantile(0.5), 40.0);
}

TEST(TestbedIntegration, FailoverKeepsUeAttached) {
  Testbed tb{base_config()};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 10e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);
  flow.start();
  tb.run_until(500_ms);
  tb.kill_primary_phy();
  tb.run_until(1'500_ms);

  // Failure was detected and the failover executed.
  EXPECT_EQ(tb.mbox().stats().failures_detected, 1U);
  EXPECT_GE(tb.mbox().stats().migrations_executed, 1U);
  const Nanos notified = tb.last_failover_notification();
  EXPECT_GT(notified, 500_ms);
  EXPECT_LT(notified, 501_ms);  // detection within ~1 ms (450 us + slack)

  // The UE never disconnected (no RLF, no reattach).
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_EQ(tb.ue(0).stats().rlf_events, 0);
  EXPECT_EQ(tb.ue(0).stats().reattach_events, 0);

  // The standby took over real work.
  EXPECT_GT(tb.phy_b().stats().ul_tbs_decoded, 50);
  // At most a few TTIs dropped (vs hundreds of ms for VM migration).
  EXPECT_LE(tb.ru().stats().dropped_ttis, 4);

  // Traffic resumed: goodput in the second after failover.
  double bytes = 0;
  for (std::size_t bin = 60; bin < 150; ++bin) {
    bytes += flow.goodput().bin(bin);
  }
  EXPECT_GT(bytes * 8.0 / 0.9 / 1e6, 7.0);
}

TEST(TestbedIntegration, PlannedMigrationDropsNothing) {
  Testbed tb{base_config()};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 10e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);
  flow.start();
  tb.run_until(500_ms);
  tb.planned_migration();
  tb.run_until(1'500_ms);

  EXPECT_EQ(tb.ru().stats().dropped_ttis, 0);
  EXPECT_EQ(tb.ru().stats().conflicting_sources, 0);
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_GT(tb.phy_b().stats().ul_tbs_decoded, 50);
  // Pipelined uplink from the old primary was drained, not wasted.
  EXPECT_GT(tb.orion().stats().drained_responses_accepted, 0U);
  // The old primary keeps running on null FAPI (hot standby for the
  // way back) without crashing.
  EXPECT_TRUE(tb.phy_a().alive());
}

TEST(TestbedIntegration, BaselineFailoverDisconnectsForSeconds) {
  auto cfg = base_config();
  cfg.mode = TestbedMode::kBaselineFailover;
  Testbed tb{cfg};
  tb.start();
  tb.run_until(500_ms);
  tb.kill_primary_phy();
  // After ~300 ms of grant starvation the UE re-establishes, taking
  // ~6.2 s — so it is still down at +3 s and back by +8 s.
  tb.run_until(3'500_ms);
  EXPECT_FALSE(tb.ue(0).connected());
  tb.run_until(9'000_ms);
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_EQ(tb.ue(0).stats().reattach_events, 1);
  // The backup stack now serves the UE.
  EXPECT_TRUE(tb.l2_backup().has_ue(UeId{1}));
  EXPECT_GT(tb.phy_b().stats().ul_tbs_decoded, 0);
}

TEST(TestbedIntegration, CoupledModeCarriesTraffic) {
  auto cfg = base_config();
  cfg.mode = TestbedMode::kCoupledNoOrion;
  Testbed tb{cfg};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 5e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);
  flow.start();
  tb.run_until(800_ms);
  EXPECT_GT(flow.packets_received(), 100U);
}

TEST(TestbedIntegration, MultiUeFailoverKeepsEveryoneAttached) {
  auto cfg = base_config();
  cfg.num_ues = 3;
  cfg.ue_mean_snr_db = {22.0, 17.0, 12.0};
  Testbed tb{cfg};
  std::vector<std::unique_ptr<UdpFlow>> flows;
  for (int i = 0; i < 3; ++i) {
    UdpFlowConfig flow_cfg;
    flow_cfg.rate_bps = 4e6;
    flows.push_back(std::make_unique<UdpFlow>(
        tb.sim(), tb.ue_pipe(i), tb.server_pipe(i), flow_cfg));
  }
  tb.start();
  tb.run_until(100_ms);
  for (auto& f : flows) {
    f->start();
  }
  tb.run_until(500_ms);
  tb.kill_primary_phy();
  tb.run_until(2'000_ms);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(tb.ue(i).connected()) << "ue " << i;
    EXPECT_EQ(tb.ue(i).stats().reattach_events, 0) << "ue " << i;
    EXPECT_GT(flows[std::size_t(i)]->packets_received(), 400U) << "ue " << i;
  }
  EXPECT_LE(tb.ru().stats().dropped_ttis, 4);
}

TEST(TestbedIntegration, ReviveDeadPhyEnablesSecondFailover) {
  Testbed tb{base_config()};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 8e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);
  flow.start();

  // First failover: A dies, B takes over.
  tb.run_until(500_ms);
  tb.kill_primary_phy();
  tb.run_until(1'000_ms);
  EXPECT_EQ(tb.orion().active_phy(Testbed::kRu), Testbed::kPhyB);

  // Operator restarts the dead process; Orion replays the stored init
  // sequence and adopts it as the new standby.
  tb.revive_dead_phy_as_standby();
  tb.run_until(2'000_ms);
  EXPECT_TRUE(tb.phy_a().alive());
  EXPECT_GT(tb.phy_a().stats().null_slots, 100);  // hot again, on nulls

  // Second failover: B dies, back to the revived A.
  tb.phy_b().kill();
  tb.run_until(3'500_ms);
  EXPECT_EQ(tb.orion().active_phy(Testbed::kRu), Testbed::kPhyA);
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_EQ(tb.ue(0).stats().reattach_events, 0);
  EXPECT_GT(tb.phy_a().stats().ul_tbs_decoded, 50);
  // Traffic still flows at the end.
  double tail_bytes = 0;
  for (std::size_t b = 300; b < 350; ++b) {
    tail_bytes += flow.goodput().bin(b);
  }
  EXPECT_GT(tail_bytes * 8 / 0.5 / 1e6, 5.0);
}

TEST(TestbedIntegration, StandbyModeDuplicateDoesRealDlWork) {
  auto cfg = base_config();
  cfg.standby_mode = StandbyMode::kDuplicate;
  Testbed tb{cfg};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 40e6;
  UdpFlow dl{tb.sim(), tb.server_pipe(0), tb.ue_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);
  dl.start();
  tb.run_until(1'000_ms);
  EXPECT_GT(tb.phy_b().stats().dl_tbs_encoded, 100);
  EXPECT_GT(tb.phy_b().stats().work_units, 0.0);
  // Its responses still never reach the L2.
  EXPECT_GT(tb.orion().stats().standby_responses_dropped, 0U);
}

TEST(TestbedIntegration, IndependentPerRuPlannedMigration) {
  auto cfg = base_config();
  cfg.cells = {CellSpec{1, {20.0}}, CellSpec{1, {20.0}}};  // + 1 standby
  Testbed tb{cfg};
  tb.start();
  tb.run_until(300_ms);
  tb.planned_migration_of(tb.ru_id(1));  // only cell 1 moves (PHY 2 -> 3)
  tb.run_until(1'000_ms);
  EXPECT_EQ(tb.mbox().active_phy(tb.ru_id(0)), tb.phy_id(0));
  EXPECT_EQ(tb.mbox().active_phy(tb.ru_id(1)), tb.phy_id(2));
  EXPECT_EQ(tb.ru_at(0).stats().dropped_ttis, 0);
  EXPECT_EQ(tb.ru_at(1).stats().dropped_ttis, 0);
}

TEST(TestbedIntegration, LossyFabricSurvivesViaNullInjection) {
  auto cfg = base_config();
  cfg.link.loss_probability = 0.005;  // harsh for a datacenter fabric
  Testbed tb{cfg};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 8e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);
  flow.start();
  tb.run_until(3'000_ms);
  // Lost FAPI datagrams were compensated with injected nulls (§6.1);
  // neither PHY starved to death.
  EXPECT_TRUE(tb.phy_a().alive());
  EXPECT_TRUE(tb.phy_b().alive());
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_GT(flow.packets_received(), 1500U);
}

TEST(TestbedIntegration, HigherNumerologyWorks) {
  // §3 scope note: the ideas apply to mmWave-style configurations with
  // larger subcarrier spacing. Run the whole stack at µ=2 (250 µs
  // slots), with the PHY's intra-slot schedule and the detector scaled
  // accordingly.
  auto cfg = base_config();
  cfg.slots.slot_duration = 250'000;  // 250 µs TTIs
  cfg.slots.slots_per_frame = 40;
  cfg.slots.slots_per_subframe = 4;
  cfg.phy.cplane_offset = 15_us;
  cfg.phy.uplane_offset = 60_us;
  cfg.phy.midslot_sync_offset = 130_us;
  cfg.phy.tx_jitter = 17_us;
  cfg.phy.ul_indication_offset = 40_us;
  cfg.mbox.detector_timeout = 225_us;  // scales with the heartbeat gap
  Testbed tb{cfg};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 10e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);
  flow.start();
  tb.run_until(500_ms);
  EXPECT_EQ(tb.mbox().stats().failures_detected, 0U);  // no false alarms
  EXPECT_GT(flow.packets_received(), 300U);

  // Failover still lands within a couple of (shorter) TTIs.
  tb.kill_primary_phy();
  tb.run_until(1'500_ms);
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_EQ(tb.ue(0).stats().reattach_events, 0);
  EXPECT_LE(tb.ru().stats().dropped_ttis, 4);
  const Nanos detect = tb.last_failover_notification() - 500_ms;
  EXPECT_LT(detect, 250_us);  // faster detection at higher numerology
}

TEST(TestbedIntegration, SnrShockTriggersLinkAdaptation) {
  // A deep shadowing event (-14 dB) mid-run: the PHY's SNR filter
  // tracks it down, the L2 downgrades the MCS, and the link keeps
  // working at a lower rate instead of thrashing.
  auto cfg = base_config();
  cfg.ue_mean_snr_db = {21.0};
  Testbed tb{cfg};
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 5e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};
  tb.start();
  tb.run_until(100_ms);
  flow.start();
  tb.run_until(500_ms);
  const double snr_before = tb.l2().reported_snr_db(UeId{1});
  tb.ue(0).channel().set_mean_snr_db(7.0);
  tb.ue(0).channel().shock_snr_db(-14.0);
  tb.run_until(1'500_ms);
  const double snr_after = tb.l2().reported_snr_db(UeId{1});
  EXPECT_GT(snr_before, 17.0);
  EXPECT_LT(snr_after, 11.0);
  EXPECT_TRUE(tb.ue(0).connected());
  // Traffic still flows at QPSK rates.
  double tail = 0;
  for (std::size_t b = 100; b < 150; ++b) {
    tail += flow.goodput().bin(b);
  }
  EXPECT_GT(tail * 8 / 0.5 / 1e6, 3.0);
}

TEST(TestbedIntegration, L2DeathEventuallyStarvesThePhys) {
  // The FAPI contract cuts both ways: if the L2 stops issuing per-slot
  // requests, Orion's loss compensation bridges only a short gap (it
  // is for lost datagrams, not a dead L2) and the PHYs then crash —
  // the behaviour the paper observed with FlexRAN.
  Testbed tb{base_config()};
  tb.start();
  tb.run_until(500_ms);
  tb.l2().kill();
  tb.run_until(1'000_ms);
  EXPECT_FALSE(tb.phy_a().alive());
  EXPECT_FALSE(tb.phy_b().alive());
}

TEST(TestbedIntegration, DeterministicAcrossRuns) {
  auto run = [] {
    Testbed tb{base_config()};
    tb.start();
    tb.run_until(300_ms);
    return std::tuple{tb.phy_a().stats().ul_crc_ok,
                      tb.phy_a().stats().ul_crc_fail,
                      tb.fabric().frames_processed()};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace slingshot
