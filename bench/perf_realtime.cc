// perf_realtime — wall-clock soak of the real-process deployment mode.
//
// Runs the RealTestbed (Orion relay + 2 PHYs + L2 as separate processes,
// or threads with --inproc) under wall-clock TTI pacing, kills the
// active PHY mid-run, and measures the *measured* — not simulated —
// detection latency and CRC-flow outage. The same fault plan is then
// replayed through the simulator testbed and the two episode ledgers
// must describe the identical (kind, ru, phy) sequence: that
// conformance is what licenses quoting simulator failover numbers as
// predictions for the deployed system.
//
// Self-validating: exits nonzero if the failover does not execute, the
// stack does not restore, the ledger diverges from the simulator, or
// any measured latency is outside sane bounds. Registered as the
// `perf_realtime_smoke` ctest (--inproc --short) so every CI run
// exercises a real socket/ring/pacer failover end to end.
//
// Usage: perf_realtime [--inproc] [--short] [--json FILE]
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "testbed/real_testbed.h"

namespace {

using namespace slingshot;

struct Args {
  bool inproc = false;
  bool short_mode = false;
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--inproc") == 0) {
      args.inproc = true;
    } else if (std::strcmp(argv[i], "--short") == 0) {
      args.short_mode = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_realtime [--inproc] [--short] [--json FILE]\n");
      std::exit(2);
    }
  }
  return args;
}

bool violation(const char* what) {
  std::printf("VIOLATION: %s\n", what);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  bench::print_banner("perf_realtime",
                      "real-process deployment: wall-clock failover soak");

  RealTestbedConfig cfg;
  cfg.inproc = args.inproc;
  cfg.tti_ns = 500'000;
  cfg.run_slots = args.short_mode ? 160 : 800;
  cfg.kills = {PhyKill{cfg.run_slots / 3, 0}};
  cfg.detect_timeout_ns = 2'000'000;

  std::printf("mode=%s slots=%lld tti=%lld us kill_slot=%lld detect=%lld us\n",
              cfg.inproc ? "inproc" : "fork", (long long)cfg.run_slots,
              (long long)(cfg.tti_ns / 1000), (long long)cfg.kills[0].slot,
              (long long)(cfg.detect_timeout_ns / 1000));

  RealRunResult result = RealTestbed{cfg}.run();

  const auto sim_ledger = run_sim_fault_plan(cfg.kills, cfg.num_phys);
  const bool conforms = ledgers_conform(result.ledger, sim_ledger);

  const double detection_ms = double(result.detection_ns) / 1e6;
  const double outage_ms = double(result.outage_ns) / 1e6;

  bench::print_row({"metric", "value"});
  bench::print_row({"l2_crcs", std::to_string(result.l2_crcs)});
  bench::print_row({"rx_records", std::to_string(result.l2_rx_records)});
  bench::print_row({"detection_ms", bench::fmt(detection_ms, 3)});
  bench::print_row({"outage_ms", bench::fmt(outage_ms, 3)});
  bench::print_row({"restored", result.restored ? "yes" : "no"});
  bench::print_row({"ledger_events", std::to_string(result.ledger.size())});
  bench::print_row({"sim_conforms", conforms ? "yes" : "no"});
  bench::print_row({"pacer_overruns", std::to_string(result.pacer_overruns)});
  for (const auto& e : result.ledger) {
    std::printf("  episode: %-20s ru=%u phy=%u slot=%lld\n",
                episode_event_name(e.kind), unsigned(e.ru.value()),
                unsigned(e.phy.value()), (long long)e.slot);
  }

  // ---- Self-validation: this bench is its own acceptance gate. ----
  bool ok = true;
  if (!result.ok) {
    std::printf("VIOLATION: run failed: %s\n", result.error.c_str());
    ok = false;
  }
  if (result.ledger.size() != 3) {
    ok = violation("failover did not execute (expected 3 ledger events)");
  }
  if (!result.restored) {
    ok = violation("CRC flow did not restore on the standby by run end");
  }
  if (!conforms) {
    ok = violation("real episode ledger diverged from the simulator's");
  }
  if (result.detection_ns < 0 ||
      result.detection_ns > 50 * cfg.detect_timeout_ns) {
    ok = violation("detection latency out of bounds");
  }
  if (result.outage_ns <= 0 || result.outage_ns > 200'000'000) {
    ok = violation("outage gap out of bounds");
  }
  if (result.parse_errors != 0) {
    ok = violation("wire codec rejected frames on a clean run");
  }

  if (!args.json_path.empty()) {
    bench::JsonRow row{"perf_realtime"};
    row.str("mode", cfg.inproc ? "inproc" : "fork")
        .boolean("short", args.short_mode)
        .integer("slots", (long long)cfg.run_slots)
        .num("tti_us", double(cfg.tti_ns) / 1e3)
        .num("detection_ms", detection_ms)
        .num("outage_ms", outage_ms)
        .boolean("restored", result.restored)
        .boolean("sim_conforms", conforms)
        .integer("ledger_events", (long long)result.ledger.size())
        .integer("l2_crcs", (long long)result.l2_crcs)
        .integer("pacer_overruns", (long long)result.pacer_overruns);
    if (!bench::append_bench_json(args.json_path, row)) {
      ok = false;
    }
  }

  std::printf("result: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
