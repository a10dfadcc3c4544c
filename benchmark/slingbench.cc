// slingbench: runs one workload once and prints one JSON line.
//
//   slingbench --workload W [--seed S] [--shards N] [--smoke]
//              [--mode rep|traced|verify] [--trace-out FILE]
//
// rep     an untraced, timed run: set-up phases, per-TTI step times,
//         peak RSS, the simulated counts and the episode-shape checks.
// traced  the same run with the per-layer seams attached (seams.h),
//         followed by the kernel replays; writes the per-(TTI, layer)
//         span table to --trace-out.
// verify  the same run with the InvariantChecker (I1-I6) attached and,
//         on fabric_frer, a duplicate detector behind FRER elimination.
//
// run.py starts one process per run and aggregates; see README.md.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/log.h"
#include "inject/invariant_checker.h"
#include "obs/metrics.h"
#include "phy/simd.h"
#include "seams.h"
#include "workloads.h"

namespace slingbench {
namespace {

using namespace slingshot;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int shards = 0;  // 0: min(4, hardware threads)
  bool smoke = false;
  std::string mode = "rep";
  std::string trace_out;
};

// Minimal JSON object writer: one flat or nested object on one line.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
    fresh_ = false;
    return *this;
  }
  Json& u64(const std::string& k, std::uint64_t v) {
    key(k);
    out_ += std::to_string(v);
    fresh_ = false;
    return *this;
  }
  Json& str(const std::string& k, const std::string& v) {
    key(k);
    out_ += "\"" + escape(v) + "\"";
    fresh_ = false;
    return *this;
  }
  Json& boolean(const std::string& k, bool v) {
    key(k);
    out_ += v ? "true" : "false";
    fresh_ = false;
    return *this;
  }
  Json& strings(const std::string& k, const std::vector<std::string>& v) {
    key(k);
    out_ += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_ += (i ? ", \"" : "\"") + escape(v[i]) + "\"";
    }
    out_ += "]";
    fresh_ = false;
    return *this;
  }
  Json& open(const std::string& k) {
    key(k);
    out_ += "{";
    fresh_ = true;
    return *this;
  }
  Json& close() {
    out_ += "}";
    fresh_ = false;
    return *this;
  }
  [[nodiscard]] std::string render() const { return "{" + out_ + "}"; }

 private:
  void key(const std::string& k) {
    if (!fresh_ && !out_.empty()) {
      out_ += ", ";
    }
    out_ += "\"" + escape(k) + "\": ";
    fresh_ = true;
  }
  static std::string escape(const std::string& s) {
    std::string r;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        r.push_back('\\');
      }
      r.push_back(c == '\n' ? ' ' : c);
    }
    return r;
  }
  std::string out_;
  bool fresh_ = true;
};

double seconds_since(Clock::time_point t0) { return double(elapsed_ns(t0)) / 1e9; }

volatile std::uint64_t g_calib_sink = 0;

// A fixed integer kernel (a dependent xorshift-multiply chain) whose
// time tracks the host's current speed. Reported, never used to
// normalise anything.
double host_calib_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < (1 << 23); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x2545F4914F6CDD1DULL;
  }
  g_calib_sink = x;
  return double(elapsed_ns(t0)) / 1e6;
}

// Nearest-rank percentile of `v` (reordered in place).
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  auto rank = std::size_t(std::ceil(q * double(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(rank), v.end());
  return v[rank];
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// FNV-1a over (source, tx timestamp, payload): two eCPRI frames hashing
// equal past the eliminator are the same frame delivered twice.
std::uint64_t frame_fingerprint(const Packet& p) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint8_t b) { h = (h ^ b) * 1099511628211ULL; };
  for (int i = 0; i < 8; ++i) {
    mix(std::uint8_t(p.eth.src.bits() >> (8 * i)));
    mix(std::uint8_t(std::uint64_t(p.created_at) >> (8 * i)));
  }
  for (const std::uint8_t b : p.payload) {
    mix(b);
  }
  return h;
}

int run(const Args& args) {
  const bool traced = args.mode == "traced";
  const bool verify = args.mode == "verify";
  const double calib_ms = host_calib_ms();

  RunConfig config;
  config.seed = args.seed;
  config.smoke = args.smoke;
  config.shards = args.shards > 0
                      ? args.shards
                      : int(std::clamp(std::thread::hardware_concurrency(),
                                       1U, 4U));
  if (args.workload == "fleet_sharded" && traced) {
    // The traced fleet runs serially so its spans sum to the wall time;
    // the fingerprint is the same at every shard count.
    config.shards = 1;
  }

  std::atomic<int> tti{-1};
  std::unordered_set<std::uint64_t> seen_at_ru;
  std::uint64_t duplicates_delivered = 0;

  const auto t_construct = Clock::now();
  Workload w{args.workload, config};
  const double construct_s = seconds_since(t_construct);
  // Declared after the workload: they unhook themselves from its
  // testbeds when destroyed, so they must go first.
  std::vector<std::unique_ptr<IslandTrace>> islands;
  std::unique_ptr<InvariantChecker> checker;

  const Nanos tti_ns = SlotConfig{}.slot_duration;
  const int num_ttis = int((w.horizon() - w.measure_from()) / tti_ns);
  if (traced) {
    for (Testbed* tb : w.testbeds()) {
      islands.push_back(std::make_unique<IslandTrace>(*tb, tti, num_ttis));
    }
  }
  const bool check_invariants = verify && args.workload != "fleet_sharded";
  if (check_invariants) {
    checker = std::make_unique<InvariantChecker>(*w.testbeds().front());
  }
  if (verify && args.workload == "fabric_frer") {
    w.testbeds().front()->ru_nic().set_rx_interceptor([&](Packet& p) {
      if (p.eth.ethertype == EtherType::kEcpri &&
          !seen_at_ru.insert(frame_fingerprint(p)).second) {
        ++duplicates_delivered;
      }
      return true;
    });
  }

  const auto t_start = Clock::now();
  w.start();
  const double start_s = seconds_since(t_start);
  const auto t_preroll = Clock::now();
  w.preroll();
  const double preroll_s = seconds_since(t_preroll);

  const Counters before = w.counters();
  std::vector<std::uint64_t> island_events_before;
  for (Testbed* tb : w.testbeds()) {
    island_events_before.push_back(tb->sim().executed_events());
  }
  std::vector<double> step_us(std::size_t(num_ttis), 0.0);
  std::vector<std::int64_t> step_ns(std::size_t(num_ttis), 0);
  for (int k = 0; k < num_ttis; ++k) {
    tti.store(k, std::memory_order_relaxed);
    const auto t0 = Clock::now();
    w.run_until(w.measure_from() + Nanos(k + 1) * tti_ns);
    step_ns[std::size_t(k)] = elapsed_ns(t0);
  }
  tti.store(-1, std::memory_order_relaxed);

  std::int64_t wall_ns = 0;
  for (int k = 0; k < num_ttis; ++k) {
    wall_ns += step_ns[std::size_t(k)];
    step_us[std::size_t(k)] = double(step_ns[std::size_t(k)]) / 1e3;
  }
  const double wall_s = double(wall_ns) / 1e9;

  Counters measured = w.counters();
  for (std::size_t i = 0; i < measured.size(); ++i) {
    measured[i].second -= before[i].second;
  }
  std::vector<std::string> failures = w.check_shape(measured);
  double max_events = 0, sum_events = 0;
  for (std::size_t i = 0; i < w.testbeds().size(); ++i) {
    const double e = double(w.testbeds()[i]->sim().executed_events() -
                            island_events_before[i]);
    max_events = std::max(max_events, e);
    sum_events += e;
  }
  const double imbalance =
      sum_events > 0 ? max_events / (sum_events / double(w.cells())) : 0.0;

  const double horizon_s = double(w.horizon() - w.measure_from()) / 1e9;
  const double goodput_mbps =
      count_of(measured, "app.rx_bytes") * 8.0 / horizon_s / 1e6;

  Json out;
  out.str("workload", w.name())
      .str("mode", args.mode)
      .u64("seed", args.seed)
      .u64("testbed_seed", w.testbed_seed())
      .num("shards", w.shards())
      .boolean("smoke", args.smoke)
      .str("fingerprint", hex64(w.fingerprint()))
      .num("cells", w.cells())
      .num("ttis", num_ttis)
      .num("cell_ttis", double(w.cells()) * num_ttis)
      .num("wall_s", wall_s)
      .num("tti_us_p50", percentile(step_us, 0.50))
      .num("tti_us_p99", percentile(step_us, 0.99))
      .num("construct_s", construct_s)
      .num("start_s", start_s)
      .num("preroll_s", preroll_s)
      .num("setup_s", construct_s + start_s + preroll_s)
      .num("goodput_mbps", goodput_mbps)
      .num("lost_ttis", count_of(measured, "ru.lost_ttis"))
      .num("lost_tti_budget", double(w.lost_tti_budget()))
      .num("island_events_imbalance", imbalance)
      .num("host_calib_ms", calib_ms);
  out.open("counters");
  for (const auto& [k, v] : measured) {
    out.num(k, v);
  }
  out.close();

  if (traced) {
    std::array<double, kNumLayers> layer_s{};
    std::array<double, kNumLayers> calls{};
    double fh_frames = 0, fapi_msgs = 0;
    std::vector<std::array<std::int64_t, kNumLayers>> per_tti(
        std::size_t(num_ttis), std::array<std::int64_t, kNumLayers>{});
    for (const auto& island : islands) {
      for (std::size_t k = 0; k < per_tti.size(); ++k) {
        for (int l = 0; l < kNumLayers; ++l) {
          per_tti[k][std::size_t(l)] += island->per_tti_ns()[k][std::size_t(l)];
        }
      }
      for (int l = 0; l < kNumLayers; ++l) {
        calls[std::size_t(l)] += double(island->calls()[std::size_t(l)]);
      }
      fh_frames += double(island->fronthaul_frames());
      fapi_msgs += double(island->fapi_msgs());
    }
    std::int64_t spans_ns = 0;
    for (const auto& row : per_tti) {
      for (int l = 0; l < kNumLayers; ++l) {
        layer_s[std::size_t(l)] += double(row[std::size_t(l)]) / 1e9;
        spans_ns += row[std::size_t(l)];
      }
    }
    if (!args.trace_out.empty()) {
      if (std::FILE* f = std::fopen(args.trace_out.c_str(), "w")) {
        // Columns are nanoseconds: the step, each layer's self time, and
        // the unattributed rest.
        std::fprintf(f, "tti,step_ns");
        for (const std::string name : kLayerMetric) {
          std::fprintf(f, ",%s_ns", name.substr(0, name.size() - 2).c_str());
        }
        std::fprintf(f, ",sim.unattributed_ns\n");
        for (std::size_t k = 0; k < per_tti.size(); ++k) {
          std::int64_t attributed = 0;
          std::fprintf(f, "%zu,%" PRId64, k, step_ns[k]);
          for (const std::int64_t ns : per_tti[k]) {
            std::fprintf(f, ",%" PRId64, ns);
            attributed += ns;
          }
          std::fprintf(f, ",%" PRId64 "\n", step_ns[k] - attributed);
        }
        std::fclose(f);
      } else {
        failures.push_back("cannot write " + args.trace_out);
      }
    }
    const ReplayCosts replay = replay_kernels(islands);
    out.open("spans");
    for (int l = 0; l < kNumLayers; ++l) {
      out.num(kLayerMetric[std::size_t(l)], layer_s[std::size_t(l)]);
    }
    out.num("sim.unattributed_s", double(wall_ns - spans_ns) / 1e9);
    out.close();
    out.open("span_calls");
    for (int l = 0; l < kNumLayers; ++l) {
      out.num(kLayerMetric[std::size_t(l)], calls[std::size_t(l)]);
    }
    out.close();
    out.num("fronthaul_frames", fh_frames).num("fapi_msgs", fapi_msgs);
    out.open("replay")
        .num("phy.ul_decode_us", replay.ul_decode_us)
        .num("phy.dl_encode_us", replay.dl_encode_us)
        .num("fronthaul.parse_us", replay.parse_us)
        .num("fronthaul.serialize_us", replay.serialize_us)
        .num("fronthaul.msamples_per_s", replay.msamples_per_s)
        .num("fapi.codec_us", replay.fapi_codec_us)
        .num("ue.advance_tti_us", replay.ue_advance_tti_us)
        .close();
  }

  if (check_invariants) {
    out.num("invariant_slots_checked", double(checker->slots_checked()))
        .num("invariant_violations", double(checker->violation_count()));
    if (!checker->ok()) {
      failures.push_back("invariant violations: " + checker->report());
    } else if (checker->slots_checked() == 0) {
      failures.push_back("the invariant checker checked no slot");
    }
  }
  if (verify && args.workload == "fabric_frer") {
    out.num("duplicates_delivered", double(duplicates_delivered));
    if (duplicates_delivered != 0) {
      failures.push_back(std::to_string(duplicates_delivered) +
                         " duplicate frames delivered past FRER elimination");
    }
  }

  out.num("peak_rss_mb", double(obs::sample_peak_rss_bytes()) / 1e6);
  out.open("build")
      .str("compiler", SLINGBENCH_COMPILER)
      .str("build_type", SLINGBENCH_BUILD_TYPE)
      .str("cxx_flags", SLINGBENCH_CXX_FLAGS)
      .str("lto", SLINGBENCH_LTO)
      .str("simd", simd::level_name(simd::active_level()))
      .num("hardware_threads", std::thread::hardware_concurrency())
      .close();
  out.boolean("ok", failures.empty()).strings("failures", failures);
  std::printf("%s\n", out.render().c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace slingbench

int main(int argc, char** argv) {
  using slingbench::Args;
  if (!slingbench::kOptimizedBuild) {
    std::fprintf(stderr,
                 "slingbench: built without optimisation (__OPTIMIZE__ and "
                 "NDEBUG are required); refusing to measure\n");
    return 2;
  }
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--shards" && has_value) {
      args.shards = std::atoi(argv[++i]);
    } else if (a == "--mode" && has_value) {
      args.mode = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (a == "--smoke") {
      args.smoke = true;
    } else {
      std::fprintf(stderr, "slingbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (args.mode != "rep" && args.mode != "traced" && args.mode != "verify") {
    std::fprintf(stderr, "slingbench: unknown mode %s\n", args.mode.c_str());
    return 2;
  }
  slingshot::Logger::instance().set_level(slingshot::LogLevel::kError);
  try {
    return slingbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slingbench: %s\n", e.what());
    return 2;
  }
}
