// Ablation: sweep of the randomized fault-plan space under invariant
// checking.
//
// Each row arms a deterministic random FaultPlan (fixed seed) against a
// full Slingshot testbed, runs it with the InvariantChecker attached,
// and reports what the system absorbed: injected packet faults,
// failovers ridden out, false positives rescinded, and — the point of
// the exercise — how many of the paper's correctness invariants
// (I1–I6, see src/inject/invariant_checker.h) were violated. A healthy
// tree prints zero violations in every row; the matrix exists so a
// future regression prints *which* invariant broke and under which
// fault mix, turning a soak failure into a targeted bug report.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "inject/fault_plan.h"
#include "inject/injector.h"
#include "inject/invariant_checker.h"
#include "testbed/testbed.h"

namespace slingshot {
namespace {

struct Mix {
  const char* name;
  int num_events;       // packet faults drawn from the random space
  bool failovers;       // interleave kill/revive episodes
};

struct Outcome {
  std::size_t events = 0;
  int failovers = 0;
  std::uint64_t rehabs = 0;
  std::uint64_t violations = 0;
  std::int64_t slots = 0;
  bool survived = false;
  std::uint64_t notifications = 0;
  // Notification-accounting identity (notification_identity_holds: every
  // kFailureNotify lands in exactly one outcome counter), checked at
  // every mid-run checkpoint along with counter monotonicity.
  bool counters_ok = true;
};

// The monotone Orion counters never decrease across checkpoints.
bool monotone_since(const OrionL2Stats& cur, const OrionL2Stats& prev) {
  return cur.failure_notifications >= prev.failure_notifications &&
         cur.failovers_initiated >= prev.failovers_initiated &&
         cur.duplicate_notifications_ignored >=
             prev.duplicate_notifications_ignored &&
         cur.stale_notifications_ignored >= prev.stale_notifications_ignored &&
         cur.unprotected_notifications >= prev.unprotected_notifications &&
         cur.standby_failures >= prev.standby_failures &&
         cur.drained_responses_accepted >= prev.drained_responses_accepted &&
         cur.drain_windows_expired >= prev.drain_windows_expired;
}

Outcome run_cell(const Mix& mix, std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.num_ues = 1;
  cfg.ue_mean_snr_db = {20.0};
  Testbed tb{cfg};
  FaultInjector inj{tb};
  InvariantChecker chk{tb};

  auto rng = RngRegistry{seed}.stream("fault_matrix");
  const auto plan = make_random_fault_plan(rng, 500_ms, 4'400_ms,
                                           mix.num_events, mix.failovers);
  if (plan.contains(FaultKind::kDropFronthaul)) {
    // Dropped fronthaul packets can push a migration's trigger to the
    // next packet; one slot of execution skew is expected, not a bug.
    chk.allow_boundary_skew(1);
  }
  inj.arm(plan);
  tb.start();

  Outcome out;
  // Step through the horizon so the counter identity and monotonicity
  // are checked *during* the fault storm, not just at the end — a
  // transient double-count that later cancels out would pass an
  // end-only check.
  OrionL2Stats prev = tb.orion().stats();
  for (Nanos t = 500_ms; t <= 4'500_ms; t += 500_ms) {
    tb.run_until(t);
    const OrionL2Stats cur = tb.orion().stats();
    if (!notification_identity_holds(cur) || !monotone_since(cur, prev)) {
      out.counters_ok = false;
      std::printf("COUNTER VIOLATION at t=%lld ns: notifs=%llu "
                  "initiated=%llu dup=%llu stale=%llu unprotected=%llu "
                  "standby=%llu (prev notifs=%llu)\n",
                  static_cast<long long>(t),
                  static_cast<unsigned long long>(cur.failure_notifications),
                  static_cast<unsigned long long>(cur.failovers_initiated),
                  static_cast<unsigned long long>(
                      cur.duplicate_notifications_ignored),
                  static_cast<unsigned long long>(
                      cur.stale_notifications_ignored),
                  static_cast<unsigned long long>(
                      cur.unprotected_notifications),
                  static_cast<unsigned long long>(cur.standby_failures),
                  static_cast<unsigned long long>(prev.failure_notifications));
    }
    prev = cur;
  }
  out.notifications = prev.failure_notifications;
  out.events = plan.events.size();
  for (const auto& e : tb.orion().migration_log()) {
    if (e.kind == MigrationEvent::Kind::kFailover) {
      ++out.failovers;
    }
  }
  out.rehabs = tb.orion().stats().rehabilitations;
  out.violations = chk.violation_count();
  out.slots = chk.slots_checked();
  out.survived = tb.phy_a().alive() && tb.phy_b().alive() &&
                 tb.ue(0).connected();
  if (!chk.ok()) {
    std::printf("%s\n", chk.report().c_str());
  }
  return out;
}

}  // namespace
}  // namespace slingshot

int main() {
  using namespace slingshot;
  using namespace slingshot::bench;
  print_banner("Ablation", "fault-plan matrix vs invariants I1-I6");
  print_note("4.5 s per cell; every plan is a fixed-seed draw from the "
             "random fault space, so rows reproduce bit-for-bit");

  const Mix mixes[] = {
      {"none", 0, false},
      {"packet-faults", 12, false},
      {"failovers", 0, true},
      {"combined", 10, true},
  };
  const std::uint64_t seeds[] = {20230823, 4242, 777};

  print_row({"mix", "seed", "events", "failovers", "notifs", "rehabs",
             "slots", "violations", "counters", "survived"},
            11);
  bool all_clean = true;
  for (const auto& mix : mixes) {
    for (const auto seed : seeds) {
      const auto out = run_cell(mix, seed);
      all_clean = all_clean && out.violations == 0 && out.survived &&
                  out.counters_ok;
      print_row({mix.name, std::to_string(seed), std::to_string(out.events),
                 std::to_string(out.failovers),
                 std::to_string(out.notifications), std::to_string(out.rehabs),
                 std::to_string(out.slots), std::to_string(out.violations),
                 out.counters_ok ? "ok" : "BROKEN",
                 out.survived ? "yes" : "NO"},
                11);
    }
  }
  std::printf("\nresult: %s\n",
              all_clean ? "all invariants held in every cell"
                        : "INVARIANT VIOLATIONS — see reports above");
  return all_clean ? 0 : 1;
}
