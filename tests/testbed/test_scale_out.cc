// Multi-cell scale-out tests: N cells x M PHYs with Orion's shared
// standby pool. Covers pool assignment and consumption, concurrent
// double failures inside one detection window, pool exhaustion with the
// explicit "unprotected" state and deferred failover on revive, revive
// replaying inits for every RU a PHY backs, and the standby-failure
// rule: a notified standby is suspect until it speaks.
#include "testbed/testbed.h"

#include <gtest/gtest.h>

#include "inject/fault_plan.h"
#include "inject/injector.h"
#include "transport/apps.h"

namespace slingshot {
namespace {

TestbedConfig pool_config(int cells, int pool_size) {
  TestbedConfig cfg;
  cfg.seed = 11;
  cfg.cells.assign(std::size_t(cells), CellSpec{1, {20.0}});
  cfg.standby_pool_size = pool_size;
  return cfg;
}

TEST(ScaleOut, PoolStandbyIsSharedAcrossCells) {
  Testbed tb{pool_config(4, 1)};
  tb.start();
  tb.run_until(300_ms);

  // One standby (PHY index 4 -> PhyId 5) backs all four primaries.
  ASSERT_EQ(tb.num_phys(), 5);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(tb.orion().active_phy(tb.ru_id(c)), tb.phy_id(c)) << "cell " << c;
    EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(c)), tb.phy_id(4)) << "cell " << c;
    EXPECT_TRUE(tb.ue(c).connected()) << "cell " << c;
    EXPECT_EQ(tb.ru_at(c).stats().dropped_ttis, 0) << "cell " << c;
  }
  EXPECT_EQ(tb.orion().pool_available(), 1U);
  // The shared standby runs on null FAPI for every cell, decodes nothing.
  EXPECT_GT(tb.phy(4).stats().null_slots, 500);
  EXPECT_EQ(tb.phy(4).stats().ul_tbs_decoded, 0);
}

TEST(ScaleOut, ConsumingAStandbyRepointsTheOtherCells) {
  Testbed tb{pool_config(3, 2)};
  tb.start();
  tb.run_until(400_ms);
  // All three cells drew the first pool member (PhyId 4).
  for (int c = 0; c < 3; ++c) {
    ASSERT_EQ(tb.orion().standby_phy(tb.ru_id(c)), tb.phy_id(3));
  }

  tb.kill_phy(tb.phy_id(0));  // cell 0's primary
  tb.run_until(1'500_ms);

  // Cell 0 was promoted onto the shared standby; the other two cells
  // must never be left pointing at the now-primary member.
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(0)), tb.phy_id(3));
  for (int c = 1; c < 3; ++c) {
    EXPECT_EQ(tb.orion().active_phy(tb.ru_id(c)), tb.phy_id(c)) << "cell " << c;
    EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(c)), tb.phy_id(4)) << "cell " << c;
    EXPECT_EQ(tb.ru_at(c).stats().dropped_ttis, 0) << "cell " << c;
  }
  // Cell 0's vacated secondary slot is refilled from the pool too, so it
  // keeps protection after the failover.
  EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(0)), tb.phy_id(4));
  EXPECT_EQ(tb.orion().stats().standbys_reassigned, 3U);
  EXPECT_EQ(tb.orion().pool_available(), 1U);
  EXPECT_TRUE(notification_identity_holds(tb.orion().stats()));
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(tb.ue(c).connected()) << "cell " << c;
    EXPECT_EQ(tb.ue(c).stats().reattach_events, 0) << "cell " << c;
  }
}

TEST(ScaleOut, PlannedMigrationOntoASharedMemberConsumesIt) {
  Testbed tb{pool_config(3, 2)};
  tb.start();
  tb.run_until(400_ms);
  for (int c = 0; c < 3; ++c) {
    ASSERT_EQ(tb.orion().standby_phy(tb.ru_id(c)), tb.phy_id(3));
  }

  tb.planned_migration_of(tb.ru_id(0));
  tb.run_until(800_ms);

  // Cell 0 now runs on the shared member, so the other cells no longer
  // count on it as their standby: they move to the next free member.
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(0)), tb.phy_id(3));
  EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(0)), tb.phy_id(0));
  for (int c = 1; c < 3; ++c) {
    EXPECT_EQ(tb.orion().active_phy(tb.ru_id(c)), tb.phy_id(c)) << "cell " << c;
    EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(c)), tb.phy_id(4)) << "cell " << c;
  }
  EXPECT_EQ(tb.orion().stats().standbys_reassigned, 2U);
  EXPECT_EQ(tb.orion().pool_available(), 1U);
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(tb.ue(c).connected()) << "cell " << c;
    EXPECT_EQ(tb.ue(c).stats().reattach_events, 0) << "cell " << c;
    EXPECT_EQ(tb.ru_at(c).stats().dropped_ttis, 0) << "cell " << c;
  }
}

TEST(ScaleOut, ConcurrentDoubleFailureInOneDetectionWindow) {
  Testbed tb{pool_config(2, 2)};
  FaultInjector inject{tb};
  // Both primaries die 100 us apart — well inside the 450 us detection
  // timeout, so the second failure overlaps the first failover while the
  // pool is being consumed.
  inject.arm(make_double_failure_plan(500_ms, tb.phy_id(0), tb.phy_id(1),
                                      100_us));
  tb.start();
  tb.run_until(2'000_ms);

  // Both cells must end on live PHYs drawn from the pool — never a
  // stale swap onto a member the concurrent failover already consumed.
  const PhyId active0 = tb.orion().active_phy(tb.ru_id(0));
  const PhyId active1 = tb.orion().active_phy(tb.ru_id(1));
  EXPECT_TRUE(tb.phy_by_id(active0)->alive());
  EXPECT_TRUE(tb.phy_by_id(active1)->alive());
  EXPECT_NE(active0, active1);

  const auto& s = tb.orion().stats();
  EXPECT_EQ(s.failovers_initiated, 2U);
  EXPECT_TRUE(notification_identity_holds(s))
      << "notifications=" << s.failure_notifications
      << " failovers=" << s.failovers_initiated
      << " dup=" << s.duplicate_notifications_ignored
      << " stale=" << s.stale_notifications_ignored
      << " unprotected=" << s.unprotected_notifications
      << " standby_failures=" << s.standby_failures;

  for (int c = 0; c < 2; ++c) {
    EXPECT_TRUE(tb.ue(c).connected()) << "cell " << c;
    EXPECT_EQ(tb.ue(c).stats().reattach_events, 0) << "cell " << c;
    EXPECT_LE(tb.ru_at(c).stats().dropped_ttis, 4) << "cell " << c;
  }
}

TEST(ScaleOut, ExhaustedPoolEntersUnprotectedStateThenDeferredFailover) {
  Testbed tb{pool_config(2, 1)};
  tb.start();
  tb.run_until(400_ms);

  // First failure consumes the only pool member for cell 0; cell 1 is
  // left explicitly unprotected (no standby), not pointed at a stale one.
  tb.kill_phy(tb.phy_id(0));
  tb.run_until(900_ms);
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(0)), tb.phy_id(2));
  EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(1)), PhyId{});
  EXPECT_EQ(tb.orion().pool_available(), 0U);

  // Second failure with the pool exhausted: no failover target exists.
  // The notification is accounted as "unprotected" — no swap happens.
  // (Detection takes ~450 us; check shortly after, and revive before
  // the UE's ~50 ms radio-link-failure timer expires.)
  tb.kill_phy(tb.phy_id(1));
  tb.run_until(905_ms);
  EXPECT_EQ(tb.orion().stats().unprotected_notifications, 1U);
  EXPECT_EQ(tb.orion().stats().failovers_initiated, 1U);
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(1)), tb.phy_id(1));  // still dead

  // An operator restarts the first dead PHY into the pool: the deferred
  // failover executes immediately and cell 1 recovers.
  tb.revive_phy_as_standby(tb.phy_id(0));
  tb.run_until(2'500_ms);
  EXPECT_EQ(tb.orion().stats().deferred_failovers_executed, 1U);
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(1)), tb.phy_id(0));
  EXPECT_TRUE(tb.phy(0).alive());
  EXPECT_GT(tb.phy(0).stats().ul_tbs_decoded, 50);
  EXPECT_TRUE(notification_identity_holds(tb.orion().stats()));
  for (int c = 0; c < 2; ++c) {
    EXPECT_TRUE(tb.ue(c).connected()) << "cell " << c;
    EXPECT_EQ(tb.ue(c).stats().reattach_events, 0) << "cell " << c;
  }
}

TEST(ScaleOut, ReviveReplaysInitsForEveryRuThePhyBacks) {
  // Cell 0's primary dies and consumes the only pool member, leaving
  // cell 1 unprotected. Reviving the dead PHY must make it the standby
  // of *both* cells — including the one it failed from, whose failover
  // episode ends there and then (no false-positive rehabilitation) — so
  // a second failure moves cell 1 onto it without a reattach.
  Testbed tb{pool_config(2, 1)};
  tb.start();
  tb.run_until(400_ms);

  tb.kill_phy(tb.phy_id(0));
  tb.run_until(1'000_ms);
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(0)), tb.phy_id(2));
  EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(1)), PhyId{});

  tb.revive_phy_as_standby(tb.phy_id(0));
  tb.run_until(1'400_ms);
  EXPECT_TRUE(tb.phy(0).alive());
  EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(0)), tb.phy_id(0));
  EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(1)), tb.phy_id(0));
  EXPECT_EQ(tb.orion().stats().rehabilitations, 0U);

  tb.kill_phy(tb.phy_id(1));
  tb.run_until(3'000_ms);
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(1)), tb.phy_id(0));
  EXPECT_TRUE(tb.phy(0).alive());
  EXPECT_GT(tb.phy(0).stats().ul_tbs_decoded, 50);
  for (int c = 0; c < 2; ++c) {
    EXPECT_TRUE(tb.ue(c).connected()) << "cell " << c;
    EXPECT_EQ(tb.ue(c).stats().reattach_events, 0) << "cell " << c;
  }
  EXPECT_TRUE(notification_identity_holds(tb.orion().stats()));
}

TEST(ScaleOut, LossyFabricFalsePositivesKeepTheStandby) {
  // A lost heartbeat trips the detector on the standby (its sparse
  // null-slot downlink is the easiest to starve). The standby is only
  // suspect until its next fresh indication, so the cell ends protected.
  auto cfg = pool_config(1, 1);
  cfg.link.loss_probability = 0.005;
  Testbed tb{cfg};
  tb.start();
  tb.run_until(3'000_ms);

  const auto& s = tb.orion().stats();
  EXPECT_GE(s.standby_failures, 1U);  // the false positive happened
  EXPECT_TRUE(tb.phy(1).alive());
  EXPECT_EQ(tb.orion().pool_available(), 1U);
  EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(0)), tb.phy_id(1));
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_TRUE(notification_identity_holds(s));
}

TEST(ScaleOut, FalsePositivePrimaryRefilledBeforeItSpeaksRejoinsThePool) {
  // The primary hangs (alive, but its tx is silenced) and is failed
  // over; the swap refills its vacated standby slot from the pool, and
  // only then does it speak. Backing nothing, its started carrier would
  // get no FAPI and the PHY's starvation watchdog would kill it: its
  // rehabilitation must stop that carrier and make it a free pool
  // member.
  Testbed tb{pool_config(1, 2)};
  FaultInjector inject{tb};
  FaultPlan plan;
  plan.add(400_ms, FaultKind::kHangPhy, FaultSite::kPhyA, 1, 2'500_us);
  inject.arm(plan);
  tb.start();
  tb.run_until(1'500_ms);

  const auto& s = tb.orion().stats();
  EXPECT_EQ(s.failovers_initiated, 1U);
  EXPECT_EQ(s.standbys_reassigned, 1U);  // the refill happened
  EXPECT_EQ(s.rehabilitations, 1U);
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(0)), tb.phy_id(1));
  EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(0)), tb.phy_id(2));
  EXPECT_TRUE(tb.phy(0).alive());
  EXPECT_TRUE(tb.phy(1).alive());
  EXPECT_TRUE(tb.phy(2).alive());
  EXPECT_EQ(tb.orion().pool_available(), 2U);  // PHY 2 and PHY 0
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_EQ(tb.ue(0).stats().reattach_events, 0);
  EXPECT_TRUE(notification_identity_holds(s));

  // The new member is real protection: when PHY 1 dies and PHY 2 takes
  // the cell over, PHY 0 refills the standby slot.
  tb.kill_phy(tb.phy_id(1));
  tb.run_until(2'500_ms);
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(0)), tb.phy_id(2));
  EXPECT_EQ(tb.orion().standby_phy(tb.ru_id(0)), tb.phy_id(0));
  EXPECT_TRUE(tb.phy(0).alive());
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_TRUE(notification_identity_holds(tb.orion().stats()));
}

TEST(ScaleOut, DeadStandbyIsNeverAFailoverTarget) {
  Testbed tb{pool_config(1, 1)};
  tb.start();
  tb.run_until(400_ms);

  // The standby dies for real: it stays suspect, backing nothing usable.
  tb.kill_phy(tb.phy_id(1));
  tb.run_until(500_ms);
  EXPECT_EQ(tb.orion().stats().standby_failures, 1U);
  EXPECT_EQ(tb.orion().pool_available(), 0U);

  // Then the primary dies: the cell goes unprotected and nothing swaps
  // onto the dead standby.
  tb.kill_phy(tb.phy_id(0));
  tb.run_until(505_ms);
  EXPECT_EQ(tb.orion().stats().unprotected_notifications, 1U);
  EXPECT_EQ(tb.orion().stats().failovers_initiated, 0U);
  EXPECT_TRUE(tb.orion().migration_log().empty());
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(0)), tb.phy_id(0));
  EXPECT_EQ(tb.mbox().active_phy(tb.ru_id(0)), tb.phy_id(0));

  // Reviving the standby runs the deferred failover onto it.
  tb.revive_phy_as_standby(tb.phy_id(1));
  tb.run_until(1'500_ms);
  EXPECT_EQ(tb.orion().stats().deferred_failovers_executed, 1U);
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(0)), tb.phy_id(1));
  EXPECT_EQ(tb.mbox().active_phy(tb.ru_id(0)), tb.phy_id(1));
  EXPECT_GT(tb.phy(1).stats().ul_tbs_decoded, 50);
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_EQ(tb.ue(0).stats().reattach_events, 0);
  EXPECT_TRUE(notification_identity_holds(tb.orion().stats()));
}

TEST(ScaleOut, TargetDyingInsideTheBoundaryWindowIsRedirected) {
  auto cfg = pool_config(1, 2);
  // A wider boundary window so the target's own detection (<= 450 us)
  // lands before the swap.
  cfg.failover_margin_slots = 4;
  Testbed tb{cfg};
  // The moment the primary's failover is initiated, its target dies.
  tb.orion().set_on_failover([&tb](const MigrationEvent& event) {
    if (event.to == tb.phy_id(1)) {
      tb.kill_phy(event.to);
    }
  });
  tb.start();
  tb.run_until(400_ms);
  ASSERT_EQ(tb.orion().standby_phy(tb.ru_id(0)), tb.phy_id(1));

  tb.kill_phy(tb.phy_id(0));
  tb.run_until(1'500_ms);
  const auto& log = tb.orion().migration_log();
  ASSERT_EQ(log.size(), 2U);
  EXPECT_EQ(log[0].to, tb.phy_id(1));
  EXPECT_EQ(log[1].to, tb.phy_id(2));  // redirected to the next member
  EXPECT_EQ(tb.orion().stats().standby_failures, 1U);
  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(0)), tb.phy_id(2));
  EXPECT_EQ(tb.mbox().active_phy(tb.ru_id(0)), tb.phy_id(2));
  EXPECT_GT(tb.phy(2).stats().ul_tbs_decoded, 50);
  EXPECT_TRUE(tb.ue(0).connected());
  EXPECT_EQ(tb.ue(0).stats().reattach_events, 0);
  EXPECT_TRUE(notification_identity_holds(tb.orion().stats()));
}

TEST(ScaleOut, FailedCellRecoversOthersUndisturbed) {
  Testbed tb{pool_config(4, 1)};
  tb.start();
  tb.run_until(500_ms);
  tb.kill_phy(tb.phy_id(2));
  tb.run_until(2'000_ms);

  EXPECT_EQ(tb.orion().active_phy(tb.ru_id(2)), tb.phy_id(4));
  EXPECT_LE(tb.ru_at(2).stats().dropped_ttis, 4);
  for (int c = 0; c < 4; ++c) {
    if (c == 2) {
      continue;
    }
    // Untouched cells: zero disruption.
    EXPECT_EQ(tb.orion().active_phy(tb.ru_id(c)), tb.phy_id(c)) << "cell " << c;
    EXPECT_EQ(tb.ru_at(c).stats().dropped_ttis, 0) << "cell " << c;
    EXPECT_TRUE(tb.ue(c).connected()) << "cell " << c;
  }
  // The pool is exhausted; the untouched cells are now unprotected —
  // explicitly, not silently pointed at the consumed member.
  for (int c = 0; c < 4; ++c) {
    EXPECT_NE(tb.orion().standby_phy(tb.ru_id(c)), tb.phy_id(4)) << "cell " << c;
  }
}

TEST(ScaleOut, PoolConfigIsDeterministicAcrossRuns) {
  auto run = [] {
    Testbed tb{pool_config(3, 1)};
    tb.start();
    tb.run_until(300_ms);
    tb.kill_phy(tb.phy_id(1));
    tb.run_until(700_ms);
    return std::tuple{tb.fabric().frames_processed(),
                      tb.orion().stats().failovers_initiated,
                      tb.orion().stats().standbys_reassigned,
                      tb.phy(3).stats().ul_tbs_decoded};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace slingshot
