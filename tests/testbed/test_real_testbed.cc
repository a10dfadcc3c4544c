// Real-process deployment mode end to end: Orion relay + PHYs + L2
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
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
  cfg.kills = {PhyKill{60, 0}};
  RealRunResult result = RealTestbed{cfg}.run();
  ASSERT_TRUE(result.ok) << result.error;
  // On failure, say where the kill landed against the L2's pacing: a
  // kill near the last L2 slot means the detector had no time, not
  // that it missed.
  SCOPED_TRACE(::testing::Message()
               << "kill planned at slot " << cfg.kills[0].slot
               << ", landed in wall slot " << result.kill_slot
               << "; L2's last send in wall slot " << result.last_l2_slot
               << " of " << cfg.run_slots << "; last CRC slot "
               << result.last_crc_slot << "; ledger "
               << result.ledger.size() << " events");
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
  cfg.kills = {PhyKill{60, 0}};
  RealRunResult real = RealTestbed{cfg}.run();
  ASSERT_TRUE(real.ok) << real.error;

  const auto sim_ledger = run_sim_fault_plan(cfg.kills);
  EXPECT_TRUE(ledgers_conform(real.ledger, sim_ledger))
      << "real ledger (" << real.ledger.size() << " events) diverged from "
      << "sim ledger (" << sim_ledger.size() << " events)";

  // And the no-fault plans agree too (both empty).
  const PhyKillPlan none;
  EXPECT_TRUE(ledgers_conform({}, run_sim_fault_plan(none)));
}

TEST(RealTestbed, ForkModeFailoverWithRealSigkill) {
  auto cfg = smoke_config(/*inproc=*/false);
  cfg.kills = {PhyKill{60, 0}};
  RealRunResult result = RealTestbed{cfg}.run();
  ASSERT_TRUE(result.ok) << result.error;
  expect_failover_ledger(result);
  EXPECT_TRUE(result.restored);
  EXPECT_GE(result.detection_ns, cfg.detect_timeout_ns - 4 * cfg.tti_ns);
  EXPECT_GT(result.outage_ns, 0);
  EXPECT_TRUE(
      ledgers_conform(result.ledger, run_sim_fault_plan(cfg.kills)));
}

// Repeated failures through the core's standby pool: PHY 2 backs the
// cell while PHY 3 waits in the pool. Killing PHY 1 promotes PHY 2 and
// adopts PHY 3 as the new standby; killing PHY 2 then promotes PHY 3.
TEST(RealTestbed, InprocTwoFailuresConformToSimulator) {
  auto cfg = smoke_config(/*inproc=*/true);
  cfg.num_phys = 3;
  cfg.run_slots = 200;
  cfg.kills = {PhyKill{50, 0}, PhyKill{110, 1}};
  RealRunResult real = RealTestbed{cfg}.run();
  ASSERT_TRUE(real.ok) << real.error;

  std::string story;
  for (const auto& e : real.ledger) {
    story += std::string(episode_event_name(e.kind)) + "(" +
             std::to_string(e.phy.value()) + ") ";
  }
  const auto sim_ledger = run_sim_fault_plan(cfg.kills, cfg.num_phys);
  EXPECT_TRUE(ledgers_conform(real.ledger, sim_ledger)) << story;
  using K = EpisodeEventKind;
  const std::vector<std::pair<K, int>> expected = {
      {K::kDetected, 1},       {K::kFailoverInitiated, 1},
      {K::kStandbyAdopted, 3}, {K::kSwapFinalized, 2},
      {K::kDetected, 2},       {K::kFailoverInitiated, 2},
      {K::kSwapFinalized, 3}};
  ASSERT_EQ(real.ledger.size(), expected.size()) << story;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(real.ledger[i].kind, expected[i].first) << story;
    EXPECT_EQ(real.ledger[i].phy, PhyId{std::uint8_t(expected[i].second)})
        << story;
  }
  EXPECT_TRUE(real.restored);
}

// The relay declares the active PHY dead only when a UL_TTI it forwarded
// has gone unanswered for the detect timeout *and* the L2 has since
// forwarded UL_TTIs for ceil(timeout / tti) later slots. An L2 that goes
// quiet, which is what a stall of the whole process looks like from the
// relay, must never make a healthy PHY look dead.
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
  const std::int64_t progress_slots =
      (oc.detect_timeout_ns + oc.pacer.tti_ns - 1) / oc.pacer.tti_ns;
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
  EXPECT_TRUE(relay.ledger().empty())
      << "one unanswered UL_TTI and a silent L2 killed the PHY";

  // The L2 moves on while PHY 1 stays silent: the last of these slots
  // completes the progress the detector asks for.
  for (std::int64_t s = 3; s < 3 + progress_slots; ++s) {
    EXPECT_TRUE(relay.ledger().empty()) << "declared dead before slot " << s;
    l2_sends_ul_tti(s);
  }
  ASSERT_EQ(relay.ledger().size(), 2U);
  EXPECT_EQ(relay.ledger()[0].kind, EpisodeEventKind::kDetected);
  EXPECT_EQ(relay.ledger()[0].phy, PhyId{1});
  EXPECT_EQ(relay.ledger()[1].kind, EpisodeEventKind::kFailoverInitiated);
  // The swap lands when the request stream reaches the failover boundary.
  l2_sends_ul_tti(relay.core().migration_log().back().boundary_slot);
  ASSERT_EQ(relay.ledger().size(), 3U);
  EXPECT_EQ(relay.ledger()[2].kind, EpisodeEventKind::kSwapFinalized);
  EXPECT_EQ(relay.active_phy(), PhyId{2});
}

}  // namespace
}  // namespace slingshot
