// Shard-determinism golden trace: the 8-cell sharded testbed must
// produce bit-identical per-island executed counts and trace hashes at
// shard counts 1, 2, and 4 — through a primary-PHY failover, the
// coordinator's spare grant, and the island-side pool replenishment.
// Registered with the `tsan` ctest label so the thread-sanitizer preset
// exercises the window barrier and mailbox under instrumentation.
#include "testbed/sharded_testbed.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "transport/apps.h"

namespace slingshot {
namespace {

constexpr int kCells = 8;
constexpr Nanos kKillAt = 300_ms;
constexpr Nanos kHorizon = 600_ms;

struct RunFingerprint {
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> executed;
  std::uint64_t fingerprint = 0;
  std::uint64_t delivered = 0;
  std::uint64_t episodes = 0;
  std::uint64_t grants = 0;
  std::int64_t failed_cell_dropped = 0;
  std::int64_t max_other_dropped = 0;
  std::size_t pool_restored = 0;  // failed island's pool after replenish
  // Failed island ends on a live PHY with its UE still attached.
  bool failed_cell_recovered = false;
  // Every untouched island's UE stays attached without a re-attach.
  bool others_connected = false;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_scenario(int shards) {
  ShardedTestbedConfig cfg;
  cfg.seed = 8;
  cfg.cells.assign(kCells, CellSpec{1, {20.0}});
  cfg.shards = shards;
  cfg.pool_per_cell = 1;
  cfg.coordinator_spares = kCells;
  ShardedTestbed tb{cfg};

  std::vector<std::unique_ptr<UdpFlow>> flows;
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 4e6;
  for (int c = 0; c < kCells; ++c) {
    Testbed& island = tb.island(c);
    flows.push_back(std::make_unique<UdpFlow>(
        island.sim(), island.ue_pipe(0), island.server_pipe(0), flow_cfg));
  }

  tb.start();
  tb.run_until(100_ms);
  for (auto& flow : flows) {
    flow->start();
  }
  tb.kill_primary_at(0, kKillAt);
  tb.run_until(kHorizon);

  RunFingerprint fp;
  for (int c = 0; c < kCells; ++c) {
    fp.hashes.push_back(tb.island_hash(c));
    fp.executed.push_back(tb.island_executed(c));
  }
  fp.fingerprint = tb.fingerprint();
  fp.delivered = tb.engine().events_delivered();
  fp.episodes = tb.coordinator().stats().episodes;
  fp.grants = tb.coordinator().stats().grants_issued;
  fp.failed_cell_dropped = tb.island(0).ru_at(0).stats().dropped_ttis;
  for (int c = 1; c < kCells; ++c) {
    const auto dropped = tb.island(c).ru_at(0).stats().dropped_ttis;
    if (dropped > fp.max_other_dropped) {
      fp.max_other_dropped = dropped;
    }
  }
  fp.pool_restored = tb.island(0).orion().pool_available();

  Testbed& failed = tb.island(0);
  const PhyProcess* active =
      failed.phy_by_id(failed.orion().active_phy(failed.ru_id(0)));
  fp.failed_cell_recovered = active != nullptr && active->alive() &&
                             failed.ue(0).connected() &&
                             failed.ue(0).stats().reattach_events == 0;
  fp.others_connected = true;
  for (int c = 1; c < kCells; ++c) {
    Testbed& island = tb.island(c);
    fp.others_connected = fp.others_connected && island.ue(0).connected() &&
                          island.ue(0).stats().reattach_events == 0;
  }
  return fp;
}

TEST(ShardDeterminism, GoldenTraceBitIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_scenario(1);

  // The failover episode itself behaved: only the killed island dropped
  // TTIs, within the detection + 2-slot-boundary budget, the untouched
  // islands rode through clean, and the coordinator saw the episode and
  // replenished the consumed pool slice (protection restored).
  EXPECT_GE(serial.episodes, 1U);
  EXPECT_GE(serial.grants, 1U);
  EXPECT_GT(serial.failed_cell_dropped, 0);
  EXPECT_LE(serial.failed_cell_dropped, 4);
  EXPECT_EQ(serial.max_other_dropped, 0);
  EXPECT_EQ(serial.pool_restored, 1U);  // revived PHY rejoined the pool
  EXPECT_TRUE(serial.failed_cell_recovered);
  EXPECT_TRUE(serial.others_connected);
  // Cross-island traffic actually flowed through the mailbox.
  EXPECT_GE(serial.delivered, 1U);

  // The tentpole contract: every per-island count and hash — and the
  // fleet fingerprint folding them — is bit-identical when the same
  // islands run on 2 and 4 worker threads.
  EXPECT_EQ(serial, run_scenario(2));
  EXPECT_EQ(serial, run_scenario(4));
}

TEST(ShardDeterminism, ShardCountIsNotPartOfTheSeed) {
  // Different seeds must change the fingerprint (the equality above is
  // meaningful, not a constant function).
  ShardedTestbedConfig cfg;
  cfg.cells.assign(2, CellSpec{1, {20.0}});
  cfg.shards = 1;
  auto fingerprint = [&](std::uint64_t seed) {
    cfg.seed = seed;
    ShardedTestbed tb{cfg};
    tb.start();
    tb.run_until(50_ms);
    return tb.fingerprint();
  };
  EXPECT_NE(fingerprint(1), fingerprint(2));
}

}  // namespace
}  // namespace slingshot
