// Regression tests for the failover-path bugs found by the
// fault-injection harness, each driven through a FaultPlan and checked
// with the InvariantChecker, plus a randomized soak over the fault
// space. See src/inject/invariant_checker.h for the invariant list.
#include "inject/injector.h"

#include <gtest/gtest.h>

#include "inject/fault_plan.h"
#include "inject/invariant_checker.h"
#include "testbed/testbed.h"

namespace slingshot {
namespace {

TestbedConfig base_config() {
  TestbedConfig cfg;
  cfg.seed = 7;
  cfg.num_ues = 1;
  cfg.ue_mean_snr_db = {20.0};
  return cfg;
}

// µ=2 numerology (250 µs TTIs), as in TestbedIntegration.HigherNumerologyWorks.
TestbedConfig mu2_config() {
  auto cfg = base_config();
  cfg.slots.slot_duration = 250'000;
  cfg.slots.slots_per_frame = 40;
  cfg.slots.slots_per_subframe = 4;
  cfg.phy.cplane_offset = 15_us;
  cfg.phy.uplane_offset = 60_us;
  cfg.phy.midslot_sync_offset = 130_us;
  cfg.phy.tx_jitter = 17_us;
  cfg.phy.ul_indication_offset = 40_us;
  cfg.mbox.detector_timeout = 225_us;
  return cfg;
}

int failover_count(const Testbed& tb) {
  int n = 0;
  for (const auto& e : const_cast<Testbed&>(tb).orion().migration_log()) {
    if (e.kind == MigrationEvent::Kind::kFailover) {
      ++n;
    }
  }
  return n;
}

// S3 regression: a duplicated failure notification must not trigger a
// second failover with a later boundary, and after the swap no FAPI may
// flow to the consumed PHY until it is revived as a standby.
TEST(FaultInjection, DuplicateFailureNotificationIsIdempotent) {
  Testbed tb{base_config()};
  FaultInjector inj{tb};
  InvariantChecker chk{tb};
  FaultPlan plan;
  // The duplicate of the next notification arrives 100 µs after the
  // original — after the first failover is already pending.
  plan.add(195_ms, FaultKind::kDupFailureNotify, FaultSite::kOrionL2, 1,
           100_us);
  plan.add(200_ms, FaultKind::kKillPhy, FaultSite::kPhyA);
  inj.arm(plan);
  tb.start();
  tb.run_until(600_ms);

  EXPECT_EQ(inj.notifications_duplicated(), 1U);
  EXPECT_EQ(failover_count(tb), 1);
  // The split counters classify the pair correctly: one notification
  // initiated the failover, the re-delivery was recognized as a
  // duplicate, and the accounting identity holds.
  const auto& ost = tb.orion().stats();
  EXPECT_EQ(ost.failovers_initiated, 1U);
  EXPECT_EQ(ost.duplicate_notifications_ignored, 1U);
  EXPECT_EQ(ost.failure_notifications,
            ost.failovers_initiated + ost.duplicate_notifications_ignored +
                ost.stale_notifications_ignored);
  EXPECT_EQ(chk.count_matching("I5"), 0U) << chk.report();
  EXPECT_EQ(chk.count_matching("I6"), 0U) << chk.report();
  EXPECT_TRUE(chk.ok()) << chk.report();
}

// S2 regression: once a failure episode consumed a watch (and the L2
// unwatched the PHY at the switch), stray heartbeats from the failed
// PHY must not re-arm the detector. A gray failure makes the stray
// traffic: the PHY's fronthaul goes silent long enough to be declared
// dead, then resumes.
TEST(FaultInjection, StrayHeartbeatDoesNotRearmConsumedWatch) {
  Testbed tb{base_config()};
  FaultInjector inj{tb};
  InvariantChecker chk{tb};
  FaultPlan plan;
  plan.add(500_ms, FaultKind::kHangPhy, FaultSite::kPhyA, 1, 5_ms);
  plan.add(520_ms, FaultKind::kKillPhy, FaultSite::kPhyA);
  inj.arm(plan);
  tb.start();
  tb.run_until(900_ms);

  // Exactly one detection for the episode: the resumed heartbeats after
  // the hang (and the real death later) must not produce a second one.
  EXPECT_EQ(tb.mbox().stats().failures_detected, 1U);
  EXPECT_EQ(failover_count(tb), 1);
  EXPECT_EQ(chk.count_matching("duplicate"), 0U) << chk.report();
  EXPECT_EQ(chk.count_matching("unwatched"), 0U) << chk.report();
}

// S1 regression: at a non-default numerology the middlebox and the
// PHY-side Orions must use the configured SlotConfig, or the
// migrate_on_slot boundary is interpreted as a different TTI than the
// L2 Orion meant.
TEST(FaultInjection, MigrationBoundaryAtNonDefaultNumerology) {
  Testbed tb{mu2_config()};
  FaultInjector inj{tb};
  InvariantChecker chk{tb};
  FaultPlan plan;
  plan.add(300_ms, FaultKind::kPlannedMigration, FaultSite::kNone, 8);
  inj.arm(plan);
  tb.start();
  tb.run_until(800_ms);

  EXPECT_EQ(tb.mbox().stats().migrations_executed, 1U);
  EXPECT_EQ(tb.mbox().active_phy(Testbed::kRu), Testbed::kPhyB);
  EXPECT_EQ(chk.count_matching("I3"), 0U) << chk.report();
  EXPECT_EQ(chk.count_matching("I1"), 0U) << chk.report();
}

// S1 regression (wrap window): at µ=2 the slot-number space is 40960
// wrapped slots, not the default 20480 — slot_reached must derive the
// window from the configured numerology, and a migration whose boundary
// sits just past the 40959->0 wrap must execute exactly once, at the
// boundary.
TEST(FaultInjection, MigrationAcrossSlotNumberWrap) {
  Testbed tb{mu2_config()};
  FaultInjector inj{tb};
  InvariantChecker chk{tb};
  FaultPlan plan;
  // At t=10.239 s the current slot is 40956; boundary 40964 wraps to 4.
  plan.add(10'239_ms, FaultKind::kPlannedMigration, FaultSite::kNone, 8);
  inj.arm(plan);
  tb.start();
  tb.run_until(10'500_ms);

  EXPECT_EQ(tb.mbox().stats().migrations_executed, 1U);
  EXPECT_EQ(tb.mbox().active_phy(Testbed::kRu), Testbed::kPhyB);
  EXPECT_EQ(chk.count_matching("I3"), 0U) << chk.report();
}

// S4 regression: the Fig 7 drain window must close. Responses from the
// pre-migration primary delayed until long after the swap must be
// dropped, not accepted as drained.
TEST(FaultInjection, DrainWindowExpires) {
  Testbed tb{base_config()};
  FaultInjector inj{tb};
  InvariantChecker chk{tb};
  FaultPlan plan;
  // Capture the next three indications from the old primary's Orion
  // just before the boundary and deliver them 100 ms late.
  plan.add(300_ms, FaultKind::kDelayFapiInd, FaultSite::kOrionA, 3, 100_ms);
  plan.add(300_ms + 100_us, FaultKind::kPlannedMigration, FaultSite::kNone, 4);
  inj.arm(plan);
  tb.start();
  tb.run_until(600_ms);

  EXPECT_EQ(inj.indications_delayed(), 3U);
  EXPECT_EQ(tb.mbox().stats().migrations_executed, 1U);
  EXPECT_EQ(chk.count_matching("I4"), 0U) << chk.report();
}

// The checker taps every PHY of a pool testbed, not just A and B: on a
// 3-cell deployment a failover of PHY index 2 runs clean, and FAPI sent
// to that failed PHY long after the swap is an I6 violation.
TEST(FaultInjection, CheckerSeesFapiToPhyBeyondAAndB) {
  TestbedConfig cfg;
  cfg.seed = 7;
  cfg.cells.assign(3, CellSpec{1, {20.0}});
  Testbed tb{cfg};
  ASSERT_EQ(tb.num_phys(), 4);
  InvariantChecker chk{tb};
  tb.start();
  tb.sim().at(300_ms, [&tb] { tb.kill_phy(tb.phy_id(2)); });
  tb.run_until(500_ms);

  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(2)), tb.phy_id(3));
  EXPECT_GT(chk.slots_checked(), 0);
  EXPECT_TRUE(chk.ok()) << chk.report();

  tb.pipe_to_phy(2)->send(make_null_dl_tti(tb.ru_id(2), 0));
  EXPECT_EQ(chk.count_matching("I6: FAPI to failed phy 3"), 1U)
      << chk.report();
}

// Randomized soak: ten thousand slots under a seeded random fault plan
// (datagram loss/corruption, duplicated and delayed notifications, two
// full kill/revive failover cycles). A correct system absorbs all of it
// with zero invariant violations; any violation is replayable from the
// seed.
TEST(FaultInjection, RandomizedSoakHoldsAllInvariants) {
  Testbed tb{base_config()};
  FaultInjector inj{tb};
  InvariantChecker chk{tb};
  RngRegistry rng_registry{20230823};  // fixed seed: replayable
  auto rng = rng_registry.stream("fault_plan");
  const FaultPlan plan =
      make_random_fault_plan(rng, 500_ms, 4'900_ms, 10, true);
  if (plan.contains(FaultKind::kDropFronthaul)) {
    // A dropped fronthaul frame can push a migration's execution to the
    // next packet of the boundary TTI.
    chk.allow_boundary_skew(1);
  }
  inj.arm(plan);
  tb.start();
  tb.run_until(5'000_ms);

  EXPECT_GE(failover_count(tb), 2);
  EXPECT_GT(chk.slots_checked(), 9'000);
  EXPECT_TRUE(chk.ok()) << chk.report();
  // Both PHYs ended the run alive (second revive restored the standby).
  EXPECT_TRUE(tb.phy_a().alive());
  EXPECT_TRUE(tb.phy_b().alive());
}

// Harness self-check: the same seed yields the same plan.
TEST(FaultInjection, RandomPlanIsDeterministic) {
  RngRegistry reg{99};
  auto r1 = reg.stream("p");
  auto r2 = reg.stream("p");
  const auto a = make_random_fault_plan(r1, 0, 3'000_ms, 8, true);
  const auto b = make_random_fault_plan(r2, 0, 3'000_ms, 8, true);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(describe(a.events[i]), describe(b.events[i])) << i;
  }
}

}  // namespace
}  // namespace slingshot
