// The four slingbench workloads. Each one builds a testbed from a seed,
// pre-rolls it, and is then stepped one TTI at a time by the runner.
//
//  fig10_failover   PHY/fronthaul bound: heavy bidirectional UDP through
//                   a primary-PHY fail-stop (LDPC, demap, BFP, O-RAN).
//  tab02_migration  event-dispatch and control-path bound: a planned
//                   migration every 50 ms, light PHY work.
//  fleet_sharded    the barrier runtime and the UE-batch layer: 16 cell
//                   islands of 5 000 batched UEs, one primary killed.
//  fabric_frer      packet bound: a congested 10 GbE fabric with sync
//                   error and FRER over two planes, one cable pulled.
//
// Traffic is open-loop CBR UDP in virtual time; the runner drives the
// simulator in a closed loop with no pacing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "testbed/sharded_testbed.h"
#include "testbed/testbed.h"
#include "transport/apps.h"

namespace slingbench {

using slingshot::Nanos;
using slingshot::Testbed;

struct RunConfig {
  // Added to the workload's canonical seed: 0 reproduces the canonical
  // runs (seeds 10, 21, 16, 41).
  std::uint64_t seed = 0;
  // Short horizons and a small fleet, for the ctest smoke.
  bool smoke = false;
  // Worker threads of the fleet's barrier runtime (ignored elsewhere).
  int shards = 1;
};

// A named count. Every count is cumulative, so the runner reports the
// difference between the end of the run and the end of the pre-roll.
using Counters = std::vector<std::pair<std::string, double>>;

// The count named `key`, 0 if absent.
[[nodiscard]] double count_of(const Counters& counters, const std::string& key);

class Workload {
 public:
  // Constructs the testbed(s) and the traffic flows: the "construct"
  // phase of set-up. Throws std::invalid_argument on an unknown name.
  Workload(const std::string& name, const RunConfig& config);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  void start();
  // Runs to measure_from(), starts the flows and schedules the episode
  // (the fault or the migration train).
  void preroll();
  void run_until(Nanos t);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t testbed_seed() const { return seed_; }
  [[nodiscard]] int shards() const;
  [[nodiscard]] int cells() const { return int(testbeds_.size()); }
  [[nodiscard]] Nanos measure_from() const { return measure_from_; }
  [[nodiscard]] Nanos horizon() const { return horizon_; }
  // One per cell island (a single one outside the fleet).
  [[nodiscard]] const std::vector<Testbed*>& testbeds() const {
    return testbeds_;
  }

  // Trace hash and executed-event count of every island, folded; equal
  // across shard counts and with or without tracing.
  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] Counters counters() const;
  // TTIs the episode may lose by design: the paper's 2-TTI failover gap
  // per fail-stop, none for planned migrations or FRER.
  [[nodiscard]] std::int64_t lost_tti_budget() const;
  // Episode-shape checks on the finished run, given the counts of the
  // measured horizon; returns one line per failed check.
  [[nodiscard]] std::vector<std::string> check_shape(
      const Counters& measured) const;

 private:
  enum class Kind { kFig10, kTab02, kFleet, kFabric };

  void add_flow(Testbed& tb, bool downlink, double rate_bps);

  std::string name_;
  Kind kind_;
  std::uint64_t seed_ = 0;
  Nanos measure_from_ = 0;
  Nanos horizon_ = 0;
  Nanos event_at_ = 0;
  std::unique_ptr<Testbed> single_;
  std::unique_ptr<slingshot::ShardedTestbed> fleet_;
  std::vector<Testbed*> testbeds_;
  std::vector<std::unique_ptr<slingshot::UdpFlow>> flows_;
  std::int64_t migrations_requested_ = 0;
  std::int64_t steps_ = 0;  // run_until calls (barrier windows outside the fleet)
};

}  // namespace slingbench
