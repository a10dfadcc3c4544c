// Ablation: multi-cell scale-out sweep over the shared standby pool.
//
// For each (cells, pool) point the bench builds an N-cell testbed whose
// last `pool` PHYs form Orion's shared standby pool, runs UDP uplink on
// every cell, kills one primary mid-run, and reports the blast radius:
// TTIs dropped by the failed cell (the failover gap), the worst-case
// TTIs dropped by any *untouched* cell (must be zero — the pool design
// promises failure isolation), wall-clock cost, and the Orion
// notification-accounting identity.
//
// The 8-cell / 1-standby row doubles as the acceptance gate for the
// scale-out work: the failed cell must recover within the detection +
// migration budget (a handful of TTIs) while the other seven cells ride
// through with zero dropped TTIs. The bench exits nonzero if any row
// violates that, so `abl_scale_sweep --short` works as a ctest smoke.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "testbed/testbed.h"
#include "transport/apps.h"

namespace slingshot {
namespace {

struct SweepPoint {
  int cells = 0;
  int pool = 0;
};

struct SweepResult {
  double wall_s = 0;
  double sim_s = 0;
  std::int64_t failed_cell_dropped = 0;  // TTIs lost by the killed cell
  std::int64_t max_other_dropped = 0;    // worst untouched cell
  std::uint64_t failovers = 0;
  std::uint64_t reassigned = 0;
  std::uint64_t pool_left = 0;
  bool identity_ok = false;
  bool recovered = false;    // failed cell ends on a live PHY, UE attached
  bool others_clean = false; // every untouched cell: zero drops, UE attached
};

SweepResult run_point(const SweepPoint& pt, Nanos kill_at, Nanos horizon) {
  TestbedConfig cfg;
  cfg.seed = 31;
  cfg.cells.assign(std::size_t(pt.cells), CellSpec{1, {20.0}});
  cfg.standby_pool_size = pt.pool;
  Testbed tb{cfg};

  std::vector<std::unique_ptr<UdpFlow>> flows;
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 4e6;
  for (int c = 0; c < pt.cells; ++c) {
    flows.push_back(std::make_unique<UdpFlow>(tb.sim(), tb.ue_pipe(c),
                                              tb.server_pipe(c), flow_cfg));
  }

  tb.start();
  tb.run_until(100_ms);
  for (auto& f : flows) {
    f->start();
  }
  // Kill cell 0's primary mid-run; the pool absorbs the failure.
  tb.sim().at(kill_at, [&tb] { tb.kill_phy(tb.phy_id(0)); });

  const auto t0 = std::chrono::steady_clock::now();
  tb.run_until(horizon);
  SweepResult r;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  r.sim_s = double(horizon - 100_ms) / 1e9;

  r.failed_cell_dropped = tb.ru_at(0).stats().dropped_ttis;
  for (int c = 1; c < pt.cells; ++c) {
    const auto dropped = tb.ru_at(c).stats().dropped_ttis;
    if (dropped > r.max_other_dropped) {
      r.max_other_dropped = dropped;
    }
  }
  const auto& s = tb.orion().stats();
  r.failovers = s.failovers_initiated;
  r.reassigned = s.standbys_reassigned;
  r.pool_left = tb.orion().pool_available();
  r.identity_ok = notification_identity_holds(s);

  const PhyId active0 = tb.orion().active_phy(tb.ru_id(0));
  r.recovered = tb.phy_by_id(active0) != nullptr &&
                tb.phy_by_id(active0)->alive() && tb.ue(0).connected() &&
                tb.ue(0).stats().reattach_events == 0;
  r.others_clean = true;
  for (int c = 1; c < pt.cells; ++c) {
    r.others_clean = r.others_clean && tb.ue(c).connected() &&
                     tb.ue(c).stats().reattach_events == 0 &&
                     tb.ru_at(c).stats().dropped_ttis == 0;
  }
  return r;
}

}  // namespace
}  // namespace slingshot

int main(int argc, char** argv) {
  using namespace slingshot;
  using namespace slingshot::bench;
  bool short_mode = false;
  std::string json_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  print_banner("Ablation",
               short_mode ? "multi-cell scale-out sweep (short smoke mode)"
                          : "multi-cell scale-out sweep");
  print_note("one primary killed mid-run per point; untouched cells must "
             "drop zero TTIs");

  // The 8-cell / 1-standby point is the acceptance case and stays in
  // both modes; full mode sweeps the whole grid from the issue.
  std::vector<SweepPoint> points;
  if (short_mode) {
    points = {{2, 1}, {8, 1}};
  } else {
    for (const int cells : {1, 2, 4, 8, 16}) {
      for (const int pool : {1, 2}) {
        points.push_back({cells, pool});
      }
    }
  }
  const Nanos kill_at = short_mode ? 400_ms : 1'000_ms;
  const Nanos horizon = short_mode ? 1'200_ms : 3'000_ms;

  print_row({"cells", "pool", "failover", "other", "reassign", "left",
             "identity", "wall_s", "verdict"},
            10);
  bool all_ok = true;
  for (const auto& pt : points) {
    const auto r = run_point(pt, kill_at, horizon);
    // Detection (450 us) + boundary margin (2 slots) + swap lands the
    // traffic back within a handful of TTIs; budget of 4 matches the
    // integration tests.
    const bool point_ok = r.recovered && r.others_clean &&
                          r.failed_cell_dropped <= 4 &&
                          r.max_other_dropped == 0 && r.identity_ok &&
                          r.failovers == 1;
    all_ok = all_ok && point_ok;
    print_row({std::to_string(pt.cells), std::to_string(pt.pool),
               std::to_string(r.failed_cell_dropped),
               std::to_string(r.max_other_dropped),
               std::to_string(r.reassigned), std::to_string(r.pool_left),
               r.identity_ok ? "ok" : "BROKEN", fmt(r.wall_s),
               point_ok ? "ok" : "FAIL"},
              10);

    JsonRow row{"abl_scale_sweep"};
    row.integer("cells", pt.cells)
        .integer("pool", pt.pool)
        .boolean("short_mode", short_mode)
        .num("wall_s", r.wall_s)
        .num("sim_s", r.sim_s)
        .integer("failover_dropped_ttis", r.failed_cell_dropped)
        .integer("max_other_dropped_ttis", r.max_other_dropped)
        .integer("failovers", (long long)(r.failovers))
        .integer("standbys_reassigned", (long long)(r.reassigned))
        .integer("pool_available_after", (long long)(r.pool_left))
        .boolean("identity_ok", r.identity_ok)
        .boolean("point_ok", point_ok);
    append_bench_json(json_path, row);
  }
  std::printf("\nresult: %s\n",
              all_ok ? "every point recovered within budget with zero "
                       "collateral drops"
                     : "SCALE-OUT VIOLATIONS — see rows above");
  return all_ok ? 0 : 1;
}
