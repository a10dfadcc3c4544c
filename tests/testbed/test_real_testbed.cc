// Real-process deployment mode end to end: Orion relay + 2 PHYs + L2
// exchanging real FAPI datagrams under wall-clock pacing, a scripted
// kill of the active PHY, and the conformance contract that the real
// run's episode ledger matches the simulator's for the same fault plan.
//
// These tests run real time (tens of milliseconds of wall clock each)
// and carry the `realtime` ctest label. The inproc variants are the CI
// smoke; the fork variant exercises genuine process isolation and
// SIGKILL.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/real_orion.h"
#include "testbed/real_testbed.h"

namespace slingshot {
namespace {

RealTestbedConfig smoke_config(bool inproc) {
  RealTestbedConfig cfg;
  cfg.inproc = inproc;
  cfg.tti_ns = 500'000;
  cfg.run_slots = 160;
  cfg.detect_timeout_ns = 2'000'000;
  return cfg;
}

void expect_failover_ledger(const RealRunResult& result) {
  // kDetected -> kFailoverInitiated on the dead primary (PhyId 1),
  // then kSwapFinalized on the promoted standby (PhyId 2).
  ASSERT_EQ(result.ledger.size(), 3U);
  EXPECT_EQ(result.ledger[0].kind, EpisodeEventKind::kDetected);
  EXPECT_EQ(result.ledger[0].phy, PhyId{1});
  EXPECT_EQ(result.ledger[1].kind, EpisodeEventKind::kFailoverInitiated);
  EXPECT_EQ(result.ledger[1].phy, PhyId{1});
  EXPECT_EQ(result.ledger[2].kind, EpisodeEventKind::kSwapFinalized);
  EXPECT_EQ(result.ledger[2].phy, PhyId{2});
  for (const auto& e : result.ledger) {
    EXPECT_EQ(e.ru, RuId{1});
  }
}

TEST(RealTestbed, InprocNoFaultRunsClean) {
  auto cfg = smoke_config(/*inproc=*/true);
  RealRunResult result = RealTestbed{cfg}.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.ledger.empty());  // no fault, no episodes
  EXPECT_TRUE(result.restored);
  // The overwhelming majority of slots must complete the
  // UL_TTI -> CRC round trip (allow slack for scheduler jitter).
  EXPECT_GE(result.l2_crcs, std::uint64_t(cfg.run_slots) * 8 / 10);
  EXPECT_GT(result.l2_rx_records, 0U);  // RX_DATA flowed over SHM
  EXPECT_EQ(result.parse_errors, 0U);
  EXPECT_EQ(result.detection_ns, -1);
  EXPECT_EQ(result.outage_ns, -1);
}

TEST(RealTestbed, InprocFailoverDetectsSwapsAndRestores) {
  auto cfg = smoke_config(/*inproc=*/true);
  cfg.fault.kill_slot = 60;
  RealRunResult result = RealTestbed{cfg}.run();
  ASSERT_TRUE(result.ok) << result.error;
  expect_failover_ledger(result);
  // Detection: the silence countdown starts at the last message heard
  // from the dead PHY, which precedes the kill by up to a slot or so,
  // hence the slack below the timeout. It must also not take an
  // unreasonable multiple of the timeout.
  EXPECT_GE(result.detection_ns, cfg.detect_timeout_ns - 4 * cfg.tti_ns);
  EXPECT_LT(result.detection_ns, 25 * cfg.detect_timeout_ns);
  // Service resumed on the standby and ran to the end of the window.
  EXPECT_TRUE(result.restored);
  EXPECT_GT(result.outage_ns, 0);
  EXPECT_LT(result.outage_ns, 60'000'000);  // well under the paper's 6.2 s
}

TEST(RealTestbed, InprocLedgerConformsToSimulator) {
  auto cfg = smoke_config(/*inproc=*/true);
  cfg.fault.kill_slot = 60;
  RealRunResult real = RealTestbed{cfg}.run();
  ASSERT_TRUE(real.ok) << real.error;

  const auto sim_ledger = run_sim_fault_plan(cfg.fault);
  EXPECT_TRUE(ledgers_conform(real.ledger, sim_ledger))
      << "real ledger (" << real.ledger.size() << " events) diverged from "
      << "sim ledger (" << sim_ledger.size() << " events)";

  // And the no-fault plans agree too (both empty).
  const FaultPlan none;
  EXPECT_TRUE(ledgers_conform({}, run_sim_fault_plan(none)));
}

TEST(RealTestbed, ForkModeFailoverWithRealSigkill) {
  auto cfg = smoke_config(/*inproc=*/false);
  cfg.fault.kill_slot = 60;
  RealRunResult result = RealTestbed{cfg}.run();
  ASSERT_TRUE(result.ok) << result.error;
  expect_failover_ledger(result);
  EXPECT_TRUE(result.restored);
  EXPECT_GE(result.detection_ns, cfg.detect_timeout_ns - 4 * cfg.tti_ns);
  EXPECT_GT(result.outage_ns, 0);
  EXPECT_TRUE(
      ledgers_conform(result.ledger, run_sim_fault_plan(cfg.fault)));
}

// The relay counts the active PHY's silence only while a UL_TTI it
// forwarded is unanswered. An L2 that sends nothing, which is what a
// stall of the whole process looks like from the relay, must never make
// a healthy PHY look dead; an unanswered UL_TTI must.
TEST(RealOrionRelay, SilenceCountsOnlyWhileAUlTtiIsUnanswered) {
  UdpEndpoint l2;
  UdpEndpoint orion;
  UdpEndpoint phy_a;
  UdpEndpoint phy_b;
  for (UdpEndpoint* ep : {&l2, &orion, &phy_a, &phy_b}) {
    ASSERT_TRUE(ep->open_loopback());
  }
  RealOrionConfig oc;
  oc.ru = RuId{1};
  oc.l2_port = l2.port();
  oc.phy_ports = {phy_a.port(), phy_b.port()};
  oc.detect_timeout_ns = 2'000'000;
  oc.pacer = {WallclockPacer::now_ns(), 500'000};
  RealOrionRelay relay(oc, &orion, ShmRing::create(4096),
                       ShmRing::create(4096),
                       {ShmRing::create(4096), ShmRing::create(4096)},
                       {ShmRing::create(4096), ShmRing::create(4096)});
  const auto phy_a_speaks = [&] {
    ASSERT_TRUE(phy_a.send_to(
        orion.port(),
        serialize_fapi(FapiMessage{RuId{1}, 0, SlotIndication{}})));
    relay.poll_once(100);
  };
  const auto l2_sends_ul_tti = [&](std::int64_t slot) {
    ASSERT_TRUE(l2.send_to(orion.port(),
                           serialize_fapi(make_null_ul_tti(RuId{1}, slot))));
    relay.poll_once(100);
  };
  const auto wait_past_timeout = [&] {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        3 * oc.detect_timeout_ns / 2));
    relay.poll_once(0);
  };

  phy_a_speaks();  // arms the detector
  wait_past_timeout();
  EXPECT_TRUE(relay.ledger().empty()) << "an idle L2 killed the PHY";

  l2_sends_ul_tti(1);
  phy_a_speaks();
  wait_past_timeout();
  EXPECT_TRUE(relay.ledger().empty()) << "an answered UL_TTI killed the PHY";

  l2_sends_ul_tti(2);
  wait_past_timeout();
  ASSERT_EQ(relay.ledger().size(), 3U);
  EXPECT_EQ(relay.ledger()[0].kind, EpisodeEventKind::kDetected);
  EXPECT_EQ(relay.ledger()[0].phy, PhyId{1});
  EXPECT_EQ(relay.active_phy(), PhyId{2});
}

}  // namespace
}  // namespace slingshot
