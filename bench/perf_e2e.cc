// End-to-end wall-clock performance harness — the regression tripwire
// for the simulator/PHY/packet-path hot-path work.
//
// Its scenarios are slingbench's workloads (benchmark/workloads.h): each
// one is built, started and pre-rolled by slingbench::Workload, then
// timed as one run_until(horizon()). By default it runs two:
//  * fig10_failover   — bidirectional UDP (DL 120 Mbps + UL 15.8 Mbps)
//                       through a primary-PHY failover, 9.9 s measured.
//  * tab02_migration  — uplink UDP near the decoding threshold while the
//                       PHY migrates back and forth at 20/s, 20 s
//                       measured.
//
// For each scenario it reports wall-clock seconds, simulated-time
// speedup, executed events/s and LDPC decodes/s, and appends a
// machine-readable row to BENCH_perf.json (see bench_util.h) so later
// changes have a trajectory to not regress. Every row names the build
// it came from (compiler, build type, flags, hardware threads).
//
// `perf_e2e --short` runs the workloads' smoke horizons — the ctest
// smoke mode that keeps this harness itself from rotting.
//
// `perf_e2e --trace` additionally re-runs fig10 with the observability
// layer attached: it reports the Fig 10 detection/restoration breakdown
// (crash → detector fire → notification → boundary swap, plus per-slot
// drain accounting) and per-stage slot latencies, appends a row to
// BENCH_obs.json (`--obs-json` overrides the path), and self-validates
// the emitted schema — span balance, non-negative latencies, required
// keys — exiting nonzero on violation so CI catches telemetry rot.
//
// `perf_e2e --shards N` runs the fleet_sharded workload instead: cell
// islands under the window-barrier engine (testbed/sharded_testbed.h),
// one primary killed mid-run. It runs the fleet twice — serial
// (shards=1) baseline, then on N worker threads — reports the
// wall-clock ratio, and self-verdicts: the per-island trace hashes and
// the fleet fingerprint of the two runs must be bit-identical, so a
// determinism regression in the barrier/mailbox exits nonzero in CI.
//
// Every run also checks its episode shape (Workload::check_shape: the
// failover or migration train happened, lost TTIs within budget, flows
// restored) and the binary exits nonzero on any failure.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/obs.h"
#include "phy/simd.h"
#include "workloads.h"

namespace slingshot {
namespace {

using slingbench::count_of;
using slingbench::Counters;
using slingbench::RunConfig;
using slingbench::Workload;

struct Run {
  double wall_s = 0;
  double sim_s = 0;
  Counters measured;  // counts of the timed horizon
  bool shape_ok = false;

  [[nodiscard]] double events() const {
    return count_of(measured, "sim.events");
  }
};

std::string scenario_of(const Workload& w, bool short_mode) {
  return short_mode ? w.name() + "_short" : w.name();
}

// Starts and pre-rolls `w`, then times one run_until(horizon()) and
// checks the episode shape of the measured horizon.
Run run(Workload& w, bool short_mode) {
  w.start();
  w.preroll();
  const Counters before = w.counters();
  const auto t0 = std::chrono::steady_clock::now();
  w.run_until(w.horizon());
  Run r;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  r.sim_s = double(w.horizon() - w.measure_from()) / 1e9;
  r.measured = w.counters();
  for (std::size_t i = 0; i < r.measured.size(); ++i) {
    r.measured[i].second -= before[i].second;
  }
  const auto failures = w.check_shape(r.measured);
  for (const auto& f : failures) {
    std::printf("SHAPE FAILURE (%s): %s\n",
                scenario_of(w, short_mode).c_str(), f.c_str());
  }
  r.shape_ok = failures.empty();
  return r;
}

int num_ues(const Testbed& tb) {
  int ues = 0;
  for (const auto& cell : tb.config().cells) {
    ues += cell.num_ues;
  }
  return ues;
}

// Cumulative PHY UL decodes plus UE DL decodes.
std::int64_t total_decodes(Testbed& tb) {
  std::int64_t decodes = 0;
  for (int p = 0; p < tb.num_phys(); ++p) {
    decodes += tb.phy(p).stats().ul_tbs_decoded;
  }
  for (int i = 0; i < num_ues(tb); ++i) {
    decodes += tb.ue(i).stats().dl_tbs_ok + tb.ue(i).stats().dl_tbs_failed;
  }
  return decodes;
}

// The build a row came from; the same definitions slingbench records.
void add_build(bench::JsonRow& row) {
  row.str("compiler", SLINGBENCH_COMPILER)
      .str("build_type", SLINGBENCH_BUILD_TYPE)
      .str("cxx_flags", SLINGBENCH_CXX_FLAGS)
      .integer("hardware_threads", std::thread::hardware_concurrency());
}

double us(Nanos delta) { return double(delta) / 1e3; }

// Fig 10-style detection/restoration breakdown plus per-stage slot
// latency percentiles, printed and appended to the obs JSON file.
// Returns false if the emitted telemetry violates its own schema.
bool report_obs(obs::Observability& o, double traced_wall_s,
                double untraced_wall_s, const std::string& obs_json_path,
                const std::string& scenario) {
  using namespace slingshot::bench;
  auto& t = o.tracer();
  const double overhead_pct =
      untraced_wall_s > 0
          ? 100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s
          : 0.0;

  std::printf("\nobservability (%s):\n", scenario.c_str());
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
  add_build(row);

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

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

// One fleet_sharded run and the determinism evidence it leaves behind.
struct FleetRun {
  Run run;
  int shards = 0;
  int cells = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> hashes;  // per-island trace hashes
};

FleetRun run_fleet(bool short_mode, int shards) {
  Workload w{"fleet_sharded",
             RunConfig{.smoke = short_mode, .shards = shards}};
  FleetRun f;
  f.run = run(w, short_mode);
  f.shards = w.shards();
  f.cells = w.cells();
  f.fingerprint = w.fingerprint();
  for (Testbed* tb : w.testbeds()) {
    f.hashes.push_back(tb->sim().trace_hash());
  }
  return f;
}

void report_sharded(const std::string& scenario, const FleetRun& f,
                    double serial_wall_s, bool deterministic,
                    const std::string& json_path) {
  using namespace slingshot::bench;
  const Run& r = f.run;
  // One Orion failover per failure episode.
  const double episodes = count_of(r.measured, "core.failovers");
  std::printf("\n%s (shards=%d):\n", scenario.c_str(), f.shards);
  std::printf("  wall-clock       %8.2f s  (%.2fx vs serial)\n", r.wall_s,
              serial_wall_s / r.wall_s);
  std::printf("  virtual time     %8.2f s  (%.1fx real time)\n", r.sim_s,
              r.sim_s / r.wall_s);
  std::printf("  events           %8.0f  (%.0f events/s)\n", r.events(),
              r.events() / r.wall_s);
  std::printf("  cells            %8d   episodes %.0f\n", f.cells, episodes);
  std::printf("  fleet fingerprint %s   determinism %s\n",
              hex64(f.fingerprint).c_str(), deterministic ? "ok" : "BROKEN");

  JsonRow row{"perf_e2e_shards"};
  row.str("scenario", scenario)
      .integer("shards", f.shards)
      .integer("cells", f.cells)
      .str("simd", simd::level_name(simd::active_level()))
      .num("wall_s", r.wall_s)
      .num("sim_s", r.sim_s)
      .num("speedup_vs_serial", serial_wall_s / r.wall_s)
      .integer("events", (long long)r.events())
      .num("events_per_s", r.events() / r.wall_s)
      .integer("episodes", (long long)episodes)
      .str("fingerprint", hex64(f.fingerprint))
      .boolean("determinism_ok", deterministic);
  add_build(row);
  append_bench_json(json_path, row);
}

// Serial baseline + N-worker run of the same fleet; exits through the
// returned verdict: per-island hashes must match bit-for-bit and both
// runs must keep their episode shape.
bool run_shard_mode(bool short_mode, int shards,
                    const std::string& json_path) {
  const std::string scenario =
      short_mode ? "fleet_sharded_short" : "fleet_sharded";

  const FleetRun serial = run_fleet(short_mode, 1);
  report_sharded(scenario, serial, serial.run.wall_s,
                 /*deterministic=*/true, json_path);

  const FleetRun sharded = run_fleet(short_mode, shards);
  const bool deterministic = sharded.hashes == serial.hashes &&
                             sharded.fingerprint == serial.fingerprint &&
                             sharded.run.events() == serial.run.events();
  report_sharded(scenario, sharded, serial.run.wall_s, deterministic,
                 json_path);
  if (!deterministic) {
    std::printf("\nDETERMINISM VIOLATION: per-island traces diverged "
                "between shards=1 and shards=%d\n", shards);
    for (std::size_t c = 0; c < serial.hashes.size(); ++c) {
      if (serial.hashes[c] != sharded.hashes[c]) {
        std::printf("  island %zu: %s != %s\n", c,
                    hex64(serial.hashes[c]).c_str(),
                    hex64(sharded.hashes[c]).c_str());
      }
    }
  }
  return deterministic && serial.run.shape_ok && sharded.run.shape_ok;
}

void report(Workload& w, bool short_mode, const Run& r,
            const std::string& json_path) {
  using namespace slingshot::bench;
  const std::string scenario = scenario_of(w, short_mode);
  Testbed& tb = *w.testbeds().front();
  const std::int64_t decodes = total_decodes(tb);
  // UDP datagrams handed to the app side: SDUs the L2's RLC releases
  // toward the server, and SDUs the UEs' RLC releases into their modem
  // stage (so the DL count includes datagrams still in that stage).
  const std::int64_t ul_rx_pkts = tb.l2().stats().ul_sdus_delivered;
  std::int64_t dl_rx_pkts = 0;
  for (int i = 0; i < num_ues(tb); ++i) {
    dl_rx_pkts += tb.ue(i).stats().dl_sdus_delivered;
  }
  std::printf("\n%s:\n", scenario.c_str());
  std::printf("  wall-clock       %8.2f s\n", r.wall_s);
  std::printf("  virtual time     %8.2f s  (%.1fx real time)\n", r.sim_s,
              r.sim_s / r.wall_s);
  std::printf("  events           %8.0f  (%.0f events/s)\n", r.events(),
              r.events() / r.wall_s);
  std::printf("  LDPC decodes     %8lld  (%.0f decodes/s)\n",
              (long long)decodes, double(decodes) / r.wall_s);
  std::printf("  UL/DL pkts rx    %lld / %lld\n", (long long)ul_rx_pkts,
              (long long)dl_rx_pkts);
  std::printf("  fingerprint      %s\n", hex64(w.fingerprint()).c_str());

  JsonRow row{"perf_e2e"};
  row.str("scenario", scenario)
      .str("simd", simd::level_name(simd::active_level()))
      .num("wall_s", r.wall_s)
      .num("sim_s", r.sim_s)
      .integer("events", (long long)r.events())
      .num("events_per_s", r.events() / r.wall_s)
      .integer("decodes", (long long)decodes)
      .num("decodes_per_s", double(decodes) / r.wall_s)
      .integer("ul_rx_pkts", (long long)ul_rx_pkts)
      .integer("dl_rx_pkts", (long long)dl_rx_pkts)
      .str("fingerprint", hex64(w.fingerprint()));
  add_build(row);
  append_bench_json(json_path, row);
}

}  // namespace
}  // namespace slingshot

int main(int argc, char** argv) {
  using namespace slingshot;
  using namespace slingshot::bench;
  bool short_mode = false;
  bool trace_mode = false;
  int shards = 0;  // 0 = the single-testbed scenarios
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
  std::printf("simd: %s\n", simd::level_name(simd::active_level()));

  const RunConfig config{.smoke = short_mode};
  Workload fig10_w{"fig10_failover", config};
  const Run fig10 = run(fig10_w, short_mode);
  report(fig10_w, short_mode, fig10, json_path);
  bool ok = fig10.shape_ok;

  if (trace_mode) {
    // Same scenario, tracer attached; the untraced run above is the
    // overhead baseline. The bundle is declared first so it outlives the
    // testbed it observes.
    std::unique_ptr<obs::Observability> o;
    Workload traced_w{"fig10_failover", config};
    Testbed& tb = *traced_w.testbeds().front();
    o = std::make_unique<obs::Observability>(tb.obs_config());
    tb.attach_observability(*o);
    const Run traced = run(traced_w, short_mode);
    o->finalize();
    ok = report_obs(*o, traced.wall_s, fig10.wall_s, obs_json_path,
                    scenario_of(traced_w, short_mode)) &&
         traced.shape_ok && ok;
  }

  Workload tab02_w{"tab02_migration", config};
  const Run tab02 = run(tab02_w, short_mode);
  report(tab02_w, short_mode, tab02, json_path);
  ok = ok && tab02.shape_ok;

  // --min-events-per-s: a deliberately loose CI floor. It does not try
  // to detect small regressions (wall-clock noise and sanitizer presets
  // would make that flaky); it catches the catastrophic kind, e.g. an
  // event loop gone accidentally quadratic.
  if (min_events_per_s > 0.0) {
    bool rate_ok = true;
    for (const auto& [scenario, r] :
         {std::pair{"fig10", &fig10}, std::pair{"tab02", &tab02}}) {
      const double rate = r->events() / r->wall_s;
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
    ok = ok && rate_ok;
  }
  return ok ? 0 : 1;
}
