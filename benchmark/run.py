#!/usr/bin/env python3
"""slingbench: build, run, verify and report the simulator benchmark.

Two ways to run it, from the repository root:

  benchmark/run.sh [--seed S] [--reps N] [--out FILE]
      One set: every workload, N timed reps each (default 5), interleaved
      round-robin with a rotating first workload, plus one verification
      pass and one traced pass per workload. Prints every metric by name
      with its unit and writes a self-describing result file.

  benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
      One workload for about T seconds of timed reps. The last line of
      stdout is one JSON object: {"correct", "attempted", "failed",
      "metrics"}, with the end-to-end metrics (--trace 0) or the
      per-layer metrics (--trace 1).

Every timed rep runs in a fresh child process (build/slingbench/slingbench),
so peak RSS and allocator state are per rep. See benchmark/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, "build", "slingbench")
CHILD_TIMEOUT_S = 170

WORKLOADS = {
    "fig10_failover": "PHY/fronthaul bound: LDPC, demap, BFP and O-RAN work",
    "tab02_migration": "event dispatch and control path bound: Orion, "
                       "migrate_on_slot, scheduler",
    "fleet_sharded": "the barrier runtime and the UE-batch layer",
    "fabric_frer": "packet bound: net and switchsim work on two planes",
}

# (name, unit, better) of every end-to-end metric.
E2E = [
    ("cell_ttis_per_s", "1/s", "higher"),
    ("tti_us_p50", "us", "lower"),
    ("tti_us_p99", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("goodput_mbps", "Mbit/s", "higher"),
]

# (name, unit, better) of every per-layer metric.
PER_LAYER = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.unattributed_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("sim.shard_speedup", "x", "higher"),
    ("sim.island_events_imbalance", "ratio", "lower"),
    ("sim.windows", "count", "lower"),
    ("phy.ul_decode_us", "us", "lower"),
    ("phy.ldpc_iters_mean", "count", "lower"),
    ("phy.ul_tbs_decoded", "count", "higher"),
    ("phy.ul_crc_ok_ratio", "ratio", "higher"),
    ("phy.dl_encode_us", "us", "lower"),
    ("phy.fh_rx_s", "s", "lower"),
    ("phy.fapi_rx_s", "s", "lower"),
    ("ru.dl_rx_s", "s", "lower"),
    ("ru.lost_ttis", "count", "lower"),
    ("ue.advance_tti_us", "us", "lower"),
    ("ue.bulk_ul_crc_ok", "count", "higher"),
    ("fronthaul.frames", "count", "lower"),
    ("fronthaul.parse_us", "us", "lower"),
    ("fronthaul.serialize_us", "us", "lower"),
    ("fronthaul.msamples_per_s", "Msamples/s", "higher"),
    ("fapi.msgs", "count", "lower"),
    ("fapi.codec_us", "us", "lower"),
    ("l2.fapi_rx_s", "s", "lower"),
    ("core.migrations", "count", "higher"),
    ("core.failovers", "count", "lower"),
    ("switchsim.frames", "count", "lower"),
    ("switchsim.pipeline_s", "s", "lower"),
    ("switchsim.ns_per_frame", "ns", "lower"),
    ("net.frames_delivered", "count", "higher"),
    ("net.overflow_drops", "count", "lower"),
    ("net.frer_duplicates_eliminated", "count", "higher"),
    ("net.drop_ratio", "ratio", "lower"),
    ("trace.capture_s", "s", "lower"),
    ("testbed.construct_s", "s", "lower"),
    ("testbed.start_s", "s", "lower"),
    ("testbed.preroll_s", "s", "lower"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(jobs):
    """Configure (once) and build the benchmark; exits 1 on failure."""
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                      "-B", BUILD_DIR] + gen)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs)])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, env=env, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                log("slingbench: build failed (log: %s)" % log_path)
                sys.exit(1)


class Child:
    """Runs the benchmark binary once and returns its JSON result."""

    def __init__(self, binary, seed, smoke, shards):
        self.binary = binary
        self.seed = seed
        self.smoke = smoke
        self.shards = shards

    def run(self, workload, mode, shards=None, trace_out=None):
        cmd = [self.binary, "--workload", workload, "--seed", str(self.seed),
               "--mode", mode, "--shards", str(shards or self.shards)]
        if self.smoke:
            cmd.append("--smoke")
        if trace_out:
            cmd += ["--trace-out", trace_out]
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"ok": False, "crashed": True,
                    "failures": ["%s %s timed out" % (workload, mode)]}
        lines = p.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return {"ok": False, "crashed": True,
                    "failures": ["%s %s exited %d without a result: %s" % (
                        workload, mode, p.returncode, p.stderr[-400:])]}
        if p.returncode != 0 and result.get("ok", False):
            result["ok"] = False
            result["failures"] = ["exit code %d" % p.returncode]
        return result


def stats(values):
    """median, quartiles (statistics.quantiles, n=4), min, max, n."""
    vals = sorted(values)
    if not vals:
        return None
    q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                 else (vals[0], vals[0], vals[0]))
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "min": vals[0], "max": vals[-1], "n": len(vals)}


class WorkloadRun:
    """Everything measured on one workload: verification, reps, traces."""

    def __init__(self, name, child, trace_dir):
        self.name = name
        self.child = child
        self.trace_dir = trace_dir
        os.makedirs(trace_dir, exist_ok=True)
        self.verify = None
        self.reps = []      # untraced timed reps
        self.traces = []    # (untraced rep, traced rep) pairs

    def run_verify(self):
        # The fleet's verification run is its serial (shards=1) reference.
        shards = 1 if self.name == "fleet_sharded" else None
        self.verify = self.child.run(self.name, "verify", shards=shards)

    def run_rep(self):
        self.reps.append(self.child.run(self.name, "rep"))

    def run_trace_pair(self):
        untraced = self.child.run(self.name, "rep")
        out = os.path.join(self.trace_dir, "%s-seed%d-%d.csv" % (
            self.name, self.child.seed, len(self.traces)))
        self.traces.append(
            (untraced, self.child.run(self.name, "traced", trace_out=out)))

    def timed(self):
        return self.reps + [u for u, _ in self.traces]

    # ---- checks ----
    def failures(self):
        f = []
        if self.verify is None or not self.verify.get("ok"):
            f += ["verification: " + x for x in
                  (self.verify or {}).get("failures", ["not run"])]
        runs = self.timed() + [t for _, t in self.traces]
        for r in runs:
            f += ["%s run: %s" % (r.get("mode", "?"), x)
                  for x in r.get("failures", [])]
        ok = [r for r in runs if r.get("ok")]
        # Traced and untraced runs alike: one fingerprint, identical counts.
        if len({r["fingerprint"] for r in ok}) > 1:
            f.append("fingerprints differ across runs (traced included): %s"
                     % sorted({r["fingerprint"] for r in ok}))
        if len({json.dumps(r["counters"], sort_keys=True) for r in ok}) > 1:
            f.append("count metrics differ across runs")
        for _, t in self.traces:
            if t.get("ok"):
                total = sum(t["spans"].values())
                if abs(total - t["wall_s"]) > 1e-6 * max(1.0, t["wall_s"]):
                    f.append("spans + unattributed (%.9f s) != traced wall "
                             "(%.9f s)" % (total, t["wall_s"]))
        if (self.name == "fleet_sharded" and self.verify
                and self.verify.get("ok") and ok
                and ok[0]["fingerprint"] != self.verify["fingerprint"]):
            f.append("fleet fingerprint %s != %s of the serial run" % (
                ok[0]["fingerprint"], self.verify["fingerprint"]))
        return f

    def attempted_failed(self, failures):
        """Operations are simulated cell-TTIs of the timed runs."""
        timed = self.timed()
        nominal = max([r.get("cell_ttis", 0) for r in timed] + [1])
        attempted = failed = 0
        for r in timed:
            n = r.get("cell_ttis", nominal)
            attempted += n
            if not r.get("ok"):
                failed += n
            else:
                failed += max(0, r["lost_ttis"] - r["lost_tti_budget"])
        if failures and failed == 0:
            # A failure no timed rep accounts for (verification, a traced
            # run, a fingerprint or count mismatch) taints every rep.
            failed = attempted
        return int(attempted), int(failed)

    # ---- metrics ----
    def e2e(self):
        ok = [r for r in self.reps if r.get("ok")]
        per_rep = {
            "cell_ttis_per_s": [r["cell_ttis"] / r["wall_s"] for r in ok],
            "tti_us_p50": [r["tti_us_p50"] for r in ok],
            "tti_us_p99": [r["tti_us_p99"] for r in ok],
            "setup_s": [r["setup_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
            "goodput_mbps": [r["goodput_mbps"] for r in ok],
        }
        return {name: stats(per_rep[name]) for name, _, _ in E2E}

    def per_layer(self):
        samples = {name: [] for name, _, _ in PER_LAYER}
        fleet = self.name == "fleet_sharded"
        # The traced fleet runs serially: it is compared with the serial
        # verification run, and so is the sharded rep.
        serial_wall = (self.verify or {}).get("wall_s")
        for u, t in self.traces:
            if not (u.get("ok") and t.get("ok")) or (fleet and not serial_wall):
                continue
            c = t["counters"]
            spans = t["spans"]
            replay = t["replay"]
            untraced_serial = serial_wall if fleet else u["wall_s"]
            values = {
                "sim.events": c["sim.events"],
                "sim.events_per_s": u["counters"]["sim.events"] / u["wall_s"],
                "sim.unattributed_s": spans["sim.unattributed_s"],
                "trace_overhead": t["wall_s"] / untraced_serial - 1.0,
                "sim.shard_speedup": (serial_wall / u["wall_s"]
                                      if fleet else 1.0),
                "sim.island_events_imbalance": u["island_events_imbalance"],
                "sim.windows": c["sim.windows"],
                "phy.ul_decode_us": replay["phy.ul_decode_us"],
                "phy.ldpc_iters_mean": (c["phy.decode_iterations"] /
                                        c["phy.ul_tbs_decoded"]
                                        if c["phy.ul_tbs_decoded"] else 0.0),
                "phy.ul_tbs_decoded": c["phy.ul_tbs_decoded"],
                "phy.ul_crc_ok_ratio": (c["phy.ul_crc_ok"] /
                                        c["phy.ul_tbs_decoded"]
                                        if c["phy.ul_tbs_decoded"] else 0.0),
                "phy.dl_encode_us": replay["phy.dl_encode_us"],
                "phy.fh_rx_s": spans["phy.fh_rx_s"],
                "phy.fapi_rx_s": spans["phy.fapi_rx_s"],
                "ru.dl_rx_s": spans["ru.dl_rx_s"],
                "ru.lost_ttis": c["ru.lost_ttis"],
                "ue.advance_tti_us": replay["ue.advance_tti_us"],
                "ue.bulk_ul_crc_ok": c["ue.bulk_ul_crc_ok"],
                "fronthaul.frames": t["fronthaul_frames"],
                "fronthaul.parse_us": replay["fronthaul.parse_us"],
                "fronthaul.serialize_us": replay["fronthaul.serialize_us"],
                "fronthaul.msamples_per_s": replay["fronthaul.msamples_per_s"],
                "fapi.msgs": t["fapi_msgs"],
                "fapi.codec_us": replay["fapi.codec_us"],
                "l2.fapi_rx_s": spans["l2.fapi_rx_s"],
                "core.migrations": c["core.migrations"],
                "core.failovers": c["core.failovers"],
                "switchsim.frames": c["switchsim.frames"],
                "switchsim.pipeline_s": spans["switchsim.pipeline_s"],
                "switchsim.ns_per_frame": (
                    spans["switchsim.pipeline_s"] * 1e9 /
                    t["span_calls"]["switchsim.pipeline_s"]
                    if t["span_calls"]["switchsim.pipeline_s"] else 0.0),
                "net.frames_delivered": c["net.frames_delivered"],
                "net.overflow_drops": c["net.overflow_drops"],
                "net.frer_duplicates_eliminated":
                    c["net.frer_duplicates_eliminated"],
                "net.drop_ratio": (c["net.frames_dropped"] /
                                   (c["net.frames_delivered"] +
                                    c["net.frames_dropped"])
                                   if c["net.frames_delivered"] else 0.0),
                "trace.capture_s": spans["trace.capture_s"],
                "testbed.construct_s": u["construct_s"],
                "testbed.start_s": u["start_s"],
                "testbed.preroll_s": u["preroll_s"],
            }
            for k, v in values.items():
                samples[k].append(v)
        return {name: stats(samples[name]) for name, _, _ in PER_LAYER}

    def summary(self):
        failures = self.failures()
        attempted, failed = self.attempted_failed(failures)
        ref = next((r for r in self.timed() if r.get("ok")), {})
        return {
            "why": WORKLOADS[self.name],
            "correct": not failures,
            "failures": failures,
            "attempted": attempted,
            "failed": failed,
            "testbed_seed": ref.get("testbed_seed"),
            "shards": ref.get("shards"),
            "fingerprint": ref.get("fingerprint"),
            "counters": ref.get("counters"),
            "reps": len(self.reps),
            "traced_runs": len(self.traces),
            "invariant_slots_checked": (self.verify or {}).get(
                "invariant_slots_checked"),
            "e2e": self.e2e() if self.reps else None,
            "per_layer": self.per_layer() if self.traces else None,
        }

    def calib(self):
        runs = ([self.verify] if self.verify else []) + self.reps + [
            x for pair in self.traces for x in pair]
        return [r["host_calib_ms"] for r in runs if "host_calib_ms" in r]

    def build_info(self):
        for r in [self.verify] + self.reps:
            if r and "build" in r:
                return r["build"]
        return None


def usable_cpus():
    return len(os.sched_getaffinity(0))


def fleet_shards():
    """Worker threads of the fleet: min(4, usable CPUs)."""
    return min(4, usable_cpus())


def git_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def metric_table(name_unit, values):
    rows = []
    for name, unit, _ in name_unit:
        s = values.get(name)
        if s is None:
            continue
        spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
        rows.append("  %-32s %14.6g %-10s (q1 %.6g, q3 %.6g, spread %.1f%%, n=%d)"
                    % (name, s["median"], unit, s["q1"], s["q3"],
                       100 * spread, s["n"]))
    return rows


def print_workload(name, summary):
    print("%s: %s" % (name, "correct" if summary["correct"] else "FAILED"))
    for f in summary["failures"]:
        print("  failure: %s" % f)
    print("  attempted %d cell-TTIs, failed %d" % (summary["attempted"],
                                                   summary["failed"]))
    for section, table in (("e2e", E2E), ("per_layer", PER_LAYER)):
        if summary[section]:
            print("  -- %s" % section)
            for row in metric_table(table, summary[section]):
                print(row)


def workload_mode(args, binary):
    child = Child(binary, args.seed, args.smoke, fleet_shards())
    run = WorkloadRun(args.workload, child, os.path.join(BUILD_DIR, "trace"))
    run.run_verify()
    t0 = time.monotonic()
    step = run.run_trace_pair if args.trace else run.run_rep
    # Measure for --seconds: start another run only while it is expected
    # to finish in time, and always make at least a few.
    min_runs = 1 if args.trace else 3
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.monotonic() - t0
        per = elapsed / done
        if done >= min_runs and elapsed + per > args.seconds:
            break
    summary = run.summary()
    print_workload(args.workload, summary)
    calib = stats(run.calib())
    if calib:
        print("host_calib_ms: median %.3f (min %.3f, max %.3f, n=%d)" % (
            calib["median"], calib["min"], calib["max"], calib["n"]))
    table = PER_LAYER if args.trace else E2E
    values = summary["per_layer"] if args.trace else summary["e2e"]
    metrics = {}
    for name, unit, _ in table:
        s = (values or {}).get(name)
        if s is None:
            summary["correct"] = False
            continue
        metrics[name] = {"value": s["median"], "unit": unit}
    if args.out:
        write_result(args.out, args, [run], {args.workload: summary})
    print(json.dumps({"correct": summary["correct"],
                      "attempted": max(1, summary["attempted"]),
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


def write_result(path, args, runs, summaries):
    calib = [x for r in runs for x in r.calib()]
    build_info = next((r.build_info() for r in runs if r.build_info()), None)
    result = {
        "benchmark": "slingbench",
        "command": "benchmark/run.sh " + " ".join(sys.argv[1:]),
        "git_sha": git_sha(),
        "build": build_info,
        "nproc": usable_cpus(),
        "seed": args.seed,
        "smoke": args.smoke,
        "reps": args.reps if not args.workload else None,
        "seconds": args.seconds if args.workload else None,
        "host_calib_ms": stats(calib),
        "metric_units": {name: {"unit": unit, "better": better}
                         for name, unit, better in E2E + PER_LAYER},
        "workloads": summaries,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f, indent=1, sort_keys=False)
        f.write("\n")
    os.replace(tmp, path)
    return result


def check_smoke(result):
    """Every metric BENCHMARK.json names is in the result, with a unit and
    a finite value, on every workload."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = result["metric_units"]
    for w, s in result["workloads"].items():
        if not s["correct"]:
            problems.append("%s: %s" % (w, "; ".join(s["failures"])))
        for section, key in (("end_to_end", "e2e"), ("per_layer", "per_layer")):
            for m in spec[section]:
                got = (s.get(key) or {}).get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (w, m["name"]))
                elif not all(math.isfinite(got[k]) for k in
                             ("median", "q1", "q3", "min", "max")):
                    problems.append("%s: metric %s is not finite" % (
                        w, m["name"]))
                elif units.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append("%s: metric %s unit %r != %r" % (
                        w, m["name"], units.get(m["name"], {}).get("unit"),
                        m["unit"]))
    return problems


def set_mode(args, binary):
    child = Child(binary, args.seed, args.smoke, fleet_shards())
    trace_dir = os.path.join(BUILD_DIR, "trace")
    names = list(WORKLOADS)
    runs = {n: WorkloadRun(n, child, trace_dir) for n in names}
    for n in names:
        log("verify %s" % n)
        runs[n].run_verify()
    for rep in range(args.reps):
        order = names[rep % len(names):] + names[:rep % len(names)]
        for n in order:
            log("rep %d/%d %s" % (rep + 1, args.reps, n))
            runs[n].run_rep()
    for n in names:
        log("traced %s" % n)
        runs[n].run_trace_pair()
    summaries = {n: runs[n].summary() for n in names}
    out = args.out or os.path.join(BUILD_DIR, "result.json")
    result = write_result(out, args, list(runs.values()), summaries)
    print("slingbench set: git %s, nproc %s, reps %d, host_calib_ms median "
          "%.3f (min %.3f, max %.3f)" % (
              result["git_sha"][:12], result["nproc"], args.reps,
              result["host_calib_ms"]["median"], result["host_calib_ms"]["min"],
              result["host_calib_ms"]["max"]))
    for n in names:
        print_workload(n, summaries[n])
    print("result written to %s" % out)
    ok = all(s["correct"] for s in summaries.values())
    if args.smoke:
        problems = check_smoke(result)
        for p in problems:
            print("SMOKE FAILURE: %s" % p)
        ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="offset added to each workload's canonical seed")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time of a --workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=5,
                    help="timed reps per workload in a set")
    ap.add_argument("--out", help="result file")
    ap.add_argument("--smoke", action="store_true",
                    help="short horizons, 1 rep, checks the metric list")
    ap.add_argument("--no-build", action="store_true")
    ap.add_argument("--bin", help="benchmark binary (default: the build's)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.smoke:
        args.reps = 1
    if not args.no_build:
        build(usable_cpus())
    binary = args.bin or os.path.join(BUILD_DIR, "slingbench")
    if not os.path.exists(binary):
        log("slingbench: no binary at %s" % binary)
        return 1
    return workload_mode(args, binary) if args.workload else set_mode(args, binary)


if __name__ == "__main__":
    sys.exit(main())
