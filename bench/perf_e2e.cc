// End-to-end wall-clock performance harness — the regression tripwire
// for the simulator/PHY/packet-path hot-path work.
//
// Runs two representative scenarios:
//  * fig10_failover      — a Fig 10-style run: bidirectional UDP (DL
//                          120 Mbps + UL 15.8 Mbps) through a primary-PHY
//                          failover, 10 s of virtual time.
//  * tab02_migration     — a Table 2-style slice: uplink UDP near the
//                          decoding threshold while the PHY migrates
//                          back and forth at 20/s.
//
// For each scenario it reports wall-clock seconds, simulated-time
// speedup, executed events/s and LDPC decodes/s, and appends a
// machine-readable row to BENCH_perf.json (see bench_util.h) so later
// PRs have a trajectory to not regress.
//
// `perf_e2e --short` runs abbreviated horizons — the ctest smoke mode
// that keeps this harness itself from rotting.
//
// `perf_e2e --trace` additionally re-runs fig10 with the observability
// layer attached: it reports the Fig 10 detection/restoration breakdown
// (crash → detector fire → notification → boundary swap, plus per-slot
// drain accounting) and per-stage slot latencies, appends a row to
// BENCH_obs.json (`--obs-json` overrides the path), and self-validates
// the emitted schema — span balance, non-negative latencies, required
// keys — exiting nonzero on violation so CI catches telemetry rot.
// Every JSON row is annotated with the active SIMD level.
//
// `perf_e2e --shards N` switches to the sharded multi-cell scenario
// instead: a 16-cell fleet (8 in --short) of independent cell islands
// under the window-barrier engine (testbed/sharded_testbed.h), with a
// primary-PHY failover and coordinator spare replenishment mid-run. It
// runs the fleet twice — serial (shards=1) baseline, then on N worker
// threads — reports the wall-clock ratio, and self-verdicts: the
// per-island trace hashes of the two runs must be bit-identical, so a
// determinism regression in the barrier/mailbox exits nonzero in CI.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/obs.h"
#include "phy/simd.h"
#include "testbed/sharded_testbed.h"
#include "testbed/testbed.h"
#include "transport/apps.h"

namespace slingshot {
namespace {

struct PerfResult {
  double wall_s = 0;
  double sim_s = 0;
  std::uint64_t events = 0;
  std::int64_t decodes = 0;  // PHY UL decodes + UE DL decodes
  std::uint64_t ul_rx_pkts = 0;
  std::uint64_t dl_rx_pkts = 0;
};

double wall_seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::int64_t total_decodes(Testbed& tb, int num_ues) {
  std::int64_t decodes =
      tb.phy_a().stats().ul_tbs_decoded + tb.phy_b().stats().ul_tbs_decoded;
  for (int i = 0; i < num_ues; ++i) {
    decodes += tb.ue(i).stats().dl_tbs_ok + tb.ue(i).stats().dl_tbs_failed;
  }
  return decodes;
}

// Fig 10-style: heavy bidirectional UDP with a fail-stop primary crash
// partway through.
PerfResult run_fig10(Nanos horizon, Nanos event_time, int bulk_ues,
                     obs::Observability* o = nullptr) {
  TestbedConfig cfg;
  cfg.seed = 10;
  cfg.num_ues = 1;
  cfg.ue_mean_snr_db = {21.0};
  cfg.bulk_ues = bulk_ues;
  Testbed tb{cfg};
  if (o != nullptr) {
    tb.attach_observability(*o);
  }

  UdpFlowConfig dl_cfg;
  dl_cfg.rate_bps = 120e6;
  UdpFlow dl{tb.sim(), tb.server_pipe(0), tb.ue_pipe(0), dl_cfg};
  UdpFlowConfig ul_cfg;
  ul_cfg.rate_bps = 15.8e6;
  UdpFlow ul{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), ul_cfg};

  tb.start();
  tb.run_until(100_ms);
  dl.start();
  ul.start();
  tb.sim().at(event_time, [&tb] { tb.kill_primary_phy(); });

  const auto t0 = std::chrono::steady_clock::now();
  const auto events_before = tb.sim().executed_events();
  tb.run_until(horizon);
  PerfResult r;
  r.wall_s = wall_seconds_since(t0);
  r.sim_s = double(horizon - 100_ms) / 1e9;
  r.events = tb.sim().executed_events() - events_before;
  r.decodes = total_decodes(tb, cfg.num_ues);
  r.dl_rx_pkts = dl.packets_received();
  r.ul_rx_pkts = ul.packets_received();
  if (o != nullptr) {
    o->finalize();
  }
  return r;
}

// The same config the traced fig10 testbed will hand out — the
// Observability object must exist before the testbed it observes.
obs::ObservabilityConfig fig10_obs_config(int bulk_ues) {
  TestbedConfig cfg;
  cfg.seed = 10;
  cfg.num_ues = 1;
  cfg.ue_mean_snr_db = {21.0};
  cfg.bulk_ues = bulk_ues;
  Testbed tb{cfg};
  return tb.obs_config();
}

double us(Nanos delta) { return double(delta) / 1e3; }

// Fig 10-style detection/restoration breakdown plus per-stage slot
// latency percentiles, printed and appended to the obs JSON file.
// Returns false if the emitted telemetry violates its own schema.
bool report_obs(obs::Observability& o, double traced_wall_s,
                double untraced_wall_s, const std::string& obs_json_path,
                const char* scenario) {
  using namespace slingshot::bench;
  auto& t = o.tracer();
  const double overhead_pct =
      untraced_wall_s > 0
          ? 100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s
          : 0.0;

  std::printf("\nobservability (%s):\n", scenario);
  std::printf("  spans opened/closed   %llu / %llu\n",
              (unsigned long long)t.spans_opened(),
              (unsigned long long)t.spans_closed());
  std::printf("  deadline misses       %llu   unserved slots %llu\n",
              (unsigned long long)t.deadline_misses(),
              (unsigned long long)t.unserved_slots());
  std::printf("  detector ticks        %llu   events dropped %llu\n",
              (unsigned long long)t.detector_ticks(),
              (unsigned long long)t.events_dropped());
  std::printf("  tracing overhead      %.1f%% wall-clock (%.2fs vs %.2fs)\n",
              overhead_pct, traced_wall_s, untraced_wall_s);

  JsonRow row{"perf_e2e_obs"};
  row.str("scenario", scenario)
      .num("wall_s", traced_wall_s)
      .num("untraced_wall_s", untraced_wall_s)
      .num("overhead_pct", overhead_pct)
      .integer("spans_opened", (long long)t.spans_opened())
      .integer("spans_closed", (long long)t.spans_closed())
      .integer("deadline_misses", (long long)t.deadline_misses())
      .integer("unserved_slots", (long long)t.unserved_slots())
      .integer("late_stamps_dropped", (long long)t.late_stamps_dropped())
      .integer("detector_ticks", (long long)t.detector_ticks())
      .integer("events_dropped", (long long)t.events_dropped());

  bool ok = t.spans_opened() == t.spans_closed();
  if (!ok) {
    std::printf("  SCHEMA VIOLATION: span imbalance\n");
  }

  std::printf("  per-stage latency (us, p50 / p99):\n");
  for (std::size_t l = 0; l < std::size_t(obs::SlotSpanLatency::kNumLatencies);
       ++l) {
    const auto lat = obs::SlotSpanLatency(l);
    const char* name = obs::slot_span_latency_name(lat);
    auto& pct = t.latency_percentiles(lat);
    const double p50 = pct.quantile(0.50);
    const double p99 = pct.quantile(0.99);
    std::printf("    %-10s %10.1f / %10.1f   (n=%lld)\n", name, p50, p99,
                (long long)t.latency_stats(lat).count());
    row.num(std::string(name) + "_p50_us", p50);
    row.num(std::string(name) + "_p99_us", p99);
    // kLead can be legitimately large (scheduling lead), the rest are
    // elapsed intervals and must be non-negative when present.
    if (!std::isnan(p50) && p50 < 0) {
      std::printf("  SCHEMA VIOLATION: negative %s p50\n", name);
      ok = false;
    }
  }

  const auto episodes = t.failover_episodes();
  std::printf("  failover episodes     %zu\n", episodes.size());
  row.integer("failover_episodes", (long long)episodes.size());
  if (!episodes.empty()) {
    const auto& ep = episodes.front();
    const double detect_us = us(ep.detect_t - ep.down_t);
    const double notify_us = us(ep.notify_t - ep.detect_t);
    const double swap_us = us(ep.swap_t - ep.notify_t);
    const double restore_us = us(ep.swap_t - ep.down_t);
    std::printf("    crash->detect       %10.1f us\n", detect_us);
    std::printf("    detect->notify      %10.1f us\n", notify_us);
    std::printf("    notify->swap        %10.1f us  (boundary slot %lld)\n",
                swap_us, (long long)ep.boundary_slot);
    std::printf("    crash->swap total   %10.1f us\n", restore_us);
    std::printf("    drains accepted     %10d  (expired: %s)\n",
                ep.drains_accepted, ep.drain_expired ? "yes" : "no");
    if (!ep.drained_slots.empty()) {
      std::printf("    drained slots      ");
      for (const auto s : ep.drained_slots) {
        std::printf(" %lld", (long long)s);
      }
      std::printf("\n");
    }
    row.num("detect_us", detect_us)
        .num("notify_us", notify_us)
        .num("swap_us", swap_us)
        .num("restore_us", restore_us)
        .integer("boundary_slot", ep.boundary_slot)
        .integer("drains_accepted", ep.drains_accepted)
        .boolean("drain_expired", ep.drain_expired);
    if (detect_us < 0 || notify_us < 0 || swap_us < 0) {
      std::printf("  SCHEMA VIOLATION: negative detection-path latency\n");
      ok = false;
    }
  }

  // Required-key check on the rendered row: a refactor that silently
  // drops a field should fail the smoke test, not ship.
  const std::string rendered = row.render();
  for (const char* key :
       {"scenario", "wall_s", "overhead_pct", "spans_opened", "spans_closed",
        "deadline_misses", "unserved_slots", "e2e_p50_us", "e2e_p99_us",
        "failover_episodes"}) {
    if (rendered.find("\"" + std::string(key) + "\"") == std::string::npos) {
      std::printf("  SCHEMA VIOLATION: missing key %s\n", key);
      ok = false;
    }
  }
  append_bench_json(obs_json_path, row);
  std::printf("  row appended to %s\n", obs_json_path.c_str());
  return ok;
}

// Table 2-style: uplink UDP near the decoding threshold while planned
// migrations bounce the PHY at 20/s.
PerfResult run_tab02(Nanos measure, int bulk_ues) {
  TestbedConfig cfg;
  cfg.seed = 21;
  cfg.num_ues = 1;
  cfg.ue_mean_snr_db = {13.5};
  cfg.phy.ldpc_max_iters = 4;
  cfg.bulk_ues = bulk_ues;
  Testbed tb{cfg};

  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 8e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};

  tb.start();
  tb.run_until(500_ms);
  flow.start();
  const auto period = Nanos(1e9 / 20.0);
  auto migrate_task = tb.sim().every(tb.sim().now() + period, period,
                                     [&tb] { tb.planned_migration(); });

  const auto t0 = std::chrono::steady_clock::now();
  const auto events_before = tb.sim().executed_events();
  tb.run_until(500_ms + measure);
  migrate_task.cancel();
  PerfResult r;
  r.wall_s = wall_seconds_since(t0);
  r.sim_s = double(measure) / 1e9;
  r.events = tb.sim().executed_events() - events_before;
  r.decodes = total_decodes(tb, cfg.num_ues);
  r.ul_rx_pkts = flow.packets_received();
  return r;
}

// ---- Sharded fleet scenario (--shards N) ----

struct ShardResult {
  double wall_s = 0;
  double sim_s = 0;
  std::uint64_t events = 0;          // sum of island executed counts
  std::uint64_t delivered = 0;       // mailbox events delivered
  std::uint64_t episodes = 0;        // coordinator failure-episode ledger
  std::uint64_t fingerprint = 0;     // fold of per-island (hash, executed)
  std::vector<std::uint64_t> hashes; // per-island trace hashes
};

ShardResult run_sharded(int cells, int shards, Nanos horizon, Nanos kill_at) {
  ShardedTestbedConfig cfg;
  cfg.seed = 16;
  cfg.cells.assign(std::size_t(cells), CellSpec{1, {20.0}});
  cfg.shards = shards;
  ShardedTestbed tb{cfg};

  std::vector<std::unique_ptr<UdpFlow>> flows;
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 4e6;
  for (int c = 0; c < cells; ++c) {
    Testbed& island = tb.island(c);
    flows.push_back(std::make_unique<UdpFlow>(
        island.sim(), island.ue_pipe(0), island.server_pipe(0), flow_cfg));
  }

  tb.start();
  tb.run_until(100_ms);
  for (auto& flow : flows) {
    flow->start();
  }
  tb.kill_primary_at(0, kill_at);

  const auto t0 = std::chrono::steady_clock::now();
  tb.run_until(horizon);
  ShardResult r;
  r.wall_s = wall_seconds_since(t0);
  r.sim_s = double(horizon - 100_ms) / 1e9;
  for (int c = 0; c < cells; ++c) {
    r.events += tb.island_executed(c);
    r.hashes.push_back(tb.island_hash(c));
  }
  r.delivered = tb.engine().events_delivered();
  r.episodes = tb.coordinator().stats().episodes;
  r.fingerprint = tb.fingerprint();
  return r;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

void report_sharded(const char* scenario, const ShardResult& r, int cells,
                    int shards, double serial_wall_s, bool deterministic,
                    const std::string& json_path) {
  using namespace slingshot::bench;
  std::printf("\n%s (shards=%d):\n", scenario, shards);
  std::printf("  wall-clock       %8.2f s  (%.2fx vs serial)\n", r.wall_s,
              serial_wall_s / r.wall_s);
  std::printf("  virtual time     %8.2f s  (%.1fx real time)\n", r.sim_s,
              r.sim_s / r.wall_s);
  std::printf("  events           %8llu  (%.0f events/s)\n",
              (unsigned long long)r.events, double(r.events) / r.wall_s);
  std::printf("  mailbox events   %8llu   episodes %llu\n",
              (unsigned long long)r.delivered,
              (unsigned long long)r.episodes);
  std::printf("  fleet fingerprint %s   determinism %s\n",
              hex64(r.fingerprint).c_str(), deterministic ? "ok" : "BROKEN");

  JsonRow row{"perf_e2e_shards"};
  row.str("scenario", scenario)
      .integer("shards", shards)
      .integer("cells", cells)
      .str("simd", simd::level_name(simd::active_level()))
      .num("wall_s", r.wall_s)
      .num("sim_s", r.sim_s)
      .num("speedup_vs_serial", serial_wall_s / r.wall_s)
      .integer("events", (long long)(r.events))
      .num("events_per_s", double(r.events) / r.wall_s)
      .integer("mailbox_delivered", (long long)(r.delivered))
      .integer("episodes", (long long)(r.episodes))
      .str("fingerprint", hex64(r.fingerprint))
      .boolean("determinism_ok", deterministic);
  append_bench_json(json_path, row);
}

// Serial baseline + N-worker run of the same fleet; exits through the
// returned verdict: per-island hashes must match bit-for-bit.
bool run_shard_mode(bool short_mode, int shards,
                    const std::string& json_path) {
  const int cells = short_mode ? 8 : 16;
  const Nanos horizon = short_mode ? 400_ms : 2'000_ms;
  const Nanos kill_at = short_mode ? 250_ms : 1'000_ms;
  const char* scenario =
      short_mode ? "shard_fleet_failover_short" : "shard_fleet_failover";

  const auto serial = run_sharded(cells, 1, horizon, kill_at);
  report_sharded(scenario, serial, cells, 1, serial.wall_s,
                 /*deterministic=*/true, json_path);

  const auto sharded = run_sharded(cells, shards, horizon, kill_at);
  const bool deterministic = sharded.hashes == serial.hashes &&
                             sharded.fingerprint == serial.fingerprint &&
                             sharded.events == serial.events;
  report_sharded(scenario, sharded, cells, shards, serial.wall_s,
                 deterministic, json_path);
  if (!deterministic) {
    std::printf("\nDETERMINISM VIOLATION: per-island traces diverged "
                "between shards=1 and shards=%d\n", shards);
    for (int c = 0; c < cells; ++c) {
      if (serial.hashes[std::size_t(c)] != sharded.hashes[std::size_t(c)]) {
        std::printf("  island %d: %s != %s\n", c,
                    hex64(serial.hashes[std::size_t(c)]).c_str(),
                    hex64(sharded.hashes[std::size_t(c)]).c_str());
      }
    }
  }
  return deterministic;
}

void report(const char* scenario, const PerfResult& r, int bulk_ues,
            const std::string& json_path) {
  using namespace slingshot::bench;
  std::printf("\n%s:\n", scenario);
  std::printf("  wall-clock       %8.2f s\n", r.wall_s);
  std::printf("  virtual time     %8.2f s  (%.1fx real time)\n", r.sim_s,
              r.sim_s / r.wall_s);
  std::printf("  events           %8llu  (%.0f events/s)\n",
              (unsigned long long)r.events, double(r.events) / r.wall_s);
  std::printf("  LDPC decodes     %8lld  (%.0f decodes/s)\n",
              (long long)r.decodes, double(r.decodes) / r.wall_s);
  std::printf("  UL/DL pkts rx    %llu / %llu\n",
              (unsigned long long)r.ul_rx_pkts,
              (unsigned long long)r.dl_rx_pkts);

  JsonRow row{"perf_e2e"};
  row.str("scenario", scenario)
      .str("simd", simd::level_name(simd::active_level()))
      .num("wall_s", r.wall_s)
      .num("sim_s", r.sim_s)
      .integer("events", (long long)(r.events))
      .num("events_per_s", double(r.events) / r.wall_s)
      .integer("decodes", (long long)(r.decodes))
      .num("decodes_per_s", double(r.decodes) / r.wall_s)
      .integer("ul_rx_pkts", (long long)(r.ul_rx_pkts))
      .integer("dl_rx_pkts", (long long)(r.dl_rx_pkts));
  if (bulk_ues > 0) {
    // Massive-UE annotation (--ues N): a batch of N SoA UEs rode the
    // cell alongside the tracer UE. Omitted at 0 so pre-existing rows
    // and bulk-free rows stay byte-compatible.
    row.integer("ues", bulk_ues);
  }
  append_bench_json(json_path, row);
}

}  // namespace
}  // namespace slingshot

int main(int argc, char** argv) {
  using namespace slingshot;
  using namespace slingshot::bench;
  bool short_mode = false;
  bool trace_mode = false;
  int shards = 0;     // 0 = classic single-testbed scenarios
  int bulk_ues = 0;   // --ues N: batched UEs riding each scenario cell
  double min_events_per_s = 0.0;  // --min-events-per-s: CI sanity floor
  std::string json_path = "BENCH_perf.json";
  std::string obs_json_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_mode = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
      if (shards < 1) {
        shards = 1;
      }
    } else if (std::strcmp(argv[i], "--ues") == 0 && i + 1 < argc) {
      bulk_ues = std::atoi(argv[++i]);
      if (bulk_ues < 0) {
        bulk_ues = 0;
      }
    } else if (std::strcmp(argv[i], "--min-events-per-s") == 0 &&
               i + 1 < argc) {
      min_events_per_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--obs-json") == 0 && i + 1 < argc) {
      obs_json_path = argv[++i];
    }
  }

  if (shards > 0) {
    print_banner("perf_e2e",
                 short_mode ? "sharded fleet harness (short smoke mode)"
                            : "sharded fleet harness");
    print_note(("rows appended to " + json_path).c_str());
    std::printf("shards: %d   simd: %s\n", shards,
                simd::level_name(simd::active_level()));
    return run_shard_mode(short_mode, shards, json_path) ? 0 : 1;
  }

  print_banner("perf_e2e", short_mode
                               ? "wall-clock perf harness (short smoke mode)"
                               : "wall-clock perf harness");
  print_note(("rows appended to " + json_path).c_str());
  std::printf("simd: %s   bulk ues: %d\n",
              simd::level_name(simd::active_level()), bulk_ues);

  const Nanos fig10_horizon = short_mode ? 1'500_ms : 10'000_ms;
  const Nanos fig10_event = short_mode ? 500_ms : 2'000_ms;
  const auto fig10 = run_fig10(fig10_horizon, fig10_event, bulk_ues);
  report(short_mode ? "fig10_failover_short" : "fig10_failover", fig10,
         bulk_ues, json_path);

  bool obs_ok = true;
  if (trace_mode) {
    // Same scenario, tracer attached; the untraced run above is the
    // overhead baseline.
    obs::Observability o{fig10_obs_config(bulk_ues)};
    const auto traced = run_fig10(fig10_horizon, fig10_event, bulk_ues, &o);
    obs_ok = report_obs(o, traced.wall_s, fig10.wall_s, obs_json_path,
                        short_mode ? "fig10_failover_short" : "fig10_failover");
  }

  const auto tab02 = short_mode ? run_tab02(2'000_ms, bulk_ues)
                                : run_tab02(6'000_ms, bulk_ues);
  report(short_mode ? "tab02_migration_short" : "tab02_migration", tab02,
         bulk_ues, json_path);

  // --min-events-per-s: a deliberately loose CI floor. It does not try
  // to detect small regressions (wall-clock noise and sanitizer presets
  // would make that flaky); it catches the catastrophic kind, e.g. an
  // event loop gone accidentally quadratic.
  bool rate_ok = true;
  if (min_events_per_s > 0.0) {
    for (const auto& [scenario, r] :
         {std::pair{"fig10", &fig10}, std::pair{"tab02", &tab02}}) {
      const double rate = double(r->events) / r->wall_s;
      if (rate < min_events_per_s) {
        std::printf("\nRATE FLOOR VIOLATION: %s ran at %.0f events/s "
                    "(floor %.0f)\n",
                    scenario, rate, min_events_per_s);
        rate_ok = false;
      }
    }
    if (rate_ok) {
      std::printf("\nevents/s sanity floor (%.0f): PASS\n", min_events_per_s);
    }
  }
  return obs_ok && rate_ok ? 0 : 1;
}
