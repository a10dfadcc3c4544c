// Golden-trace determinism tests.
//
// The simulator's ordering contract — events execute in strict
// (time, seq) order with FIFO tie-break — must survive refactors of the
// event-loop internals. These tests run a fixed-seed testbed scenario
// (steady state, and a mid-run PHY failover) and compare against
// constants captured from the original std::function/shared_ptr event
// loop: the executed-event count, an FNV-1a hash folded over every
// executed event's (time, seq) in execution order, and the decode
// outcomes (CRC pass/fail and LDPC iteration totals). A mismatch in the
// hash means event ordering changed; a mismatch in decode counters with
// a matching hash means the PHY kernels changed behaviour.
#include <gtest/gtest.h>

#include "common/log.h"
#include "obs/obs.h"
#include "testbed/testbed.h"
#include "transport/apps.h"

namespace slingshot {
namespace {

struct GoldenRun {
  std::uint64_t executed;
  std::uint64_t trace_hash;
  std::int64_t a_ul_crc_ok;
  std::int64_t a_ul_crc_fail;
  std::int64_t a_iters;
  std::int64_t b_ul_crc_ok;
  std::int64_t b_ul_crc_fail;
  std::int64_t b_iters;
  std::uint64_t flow_tx;
  std::uint64_t flow_rx;
};

GoldenRun run_scenario(bool with_failover, obs::Observability* o = nullptr,
                       const CalendarConfig* cal = nullptr) {
  Logger::instance().set_level(LogLevel::kError);
  TestbedConfig cfg;
  cfg.seed = 42;
  cfg.num_ues = 2;
  cfg.ue_mean_snr_db = {18.0, 7.0};  // UE 1 weak: exercises CRC failures
  Testbed tb{cfg};
  if (cal != nullptr) {
    tb.sim().set_calendar_config(*cal);
  }
  if (o != nullptr) {
    tb.attach_observability(*o);
  }

  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 4e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};

  tb.start();
  tb.run_until(100_ms);
  flow.start();
  if (with_failover) {
    tb.sim().at(250_ms, [&tb] { tb.kill_primary_phy(); });
  }
  tb.run_until(500_ms);

  if (o != nullptr) {
    o->finalize();
  }
  const auto& a = tb.phy_a().stats();
  const auto& b = tb.phy_b().stats();
  return GoldenRun{tb.sim().executed_events(),
                   tb.sim().trace_hash(),
                   a.ul_crc_ok,
                   a.ul_crc_fail,
                   a.decode_iterations,
                   b.ul_crc_ok,
                   b.ul_crc_fail,
                   b.decode_iterations,
                   flow.packets_sent(),
                   flow.packets_received()};
}

obs::ObservabilityConfig obs_config_for_scenario() {
  TestbedConfig cfg;
  cfg.seed = 42;
  cfg.num_ues = 2;
  cfg.ue_mean_snr_db = {18.0, 7.0};
  Testbed tb{cfg};
  return tb.obs_config();
}

// Constants captured from the pre-refactor event loop (seed 42). The
// executed-event count and trace hash were re-pinned once, when the
// failure detector stopped scheduling an event per generator tick and
// links kept only the picosecond tx-time model (DESIGN §5.2, §5.10);
// the decode and flow counts did not move.
TEST(GoldenTrace, SteadyStateMatchesSeedImplementation) {
  const GoldenRun r = run_scenario(/*with_failover=*/false);
  EXPECT_EQ(r.executed, 63548ULL);
  EXPECT_EQ(r.trace_hash, 0xf1efcffe0040b04eULL);
  EXPECT_EQ(r.a_ul_crc_ok, 387);
  EXPECT_EQ(r.a_ul_crc_fail, 9);
  EXPECT_EQ(r.a_iters, 686);
  EXPECT_EQ(r.b_ul_crc_ok, 0);
  EXPECT_EQ(r.b_ul_crc_fail, 0);
  EXPECT_EQ(r.flow_tx, 166ULL);
  EXPECT_EQ(r.flow_rx, 162ULL);
}

// The calendar-queue scheduler must be a reorder-free swap for the
// binary heap at ANY bucket geometry: the full failover scenario is
// pinned to the same event count and (time, seq) trace hash under
// hostile bucket widths (a window smaller than the scheduling horizon
// forces constant overflow churn; a near-TTI-wide bucket packs whole
// slots into one heap).
TEST(GoldenTrace, FailoverInvariantAcrossCalendarGeometries) {
  const CalendarConfig geometries[] = {
      {12, 4},   // 4 us x 16: everything spills through overflow
      {20, 6},   // 1 ms x 64
      {10, 5},   // 1 us x 32: long empty-bucket scans
      {24, 10},  // 16.8 ms x 1024: multi-slot buckets
  };
  for (const auto& cal : geometries) {
    SCOPED_TRACE(testing::Message() << "log2_w=" << cal.log2_bucket_ns
                                    << " log2_b=" << cal.log2_buckets);
    const GoldenRun r =
        run_scenario(/*with_failover=*/true, nullptr, &cal);
    EXPECT_EQ(r.executed, 51561ULL);
    EXPECT_EQ(r.trace_hash, 0xf61fd6bffbcc7eeaULL);
    EXPECT_EQ(r.b_ul_crc_ok, 195);
    EXPECT_EQ(r.flow_rx, 160ULL);
  }
}

TEST(GoldenTrace, FailoverMatchesSeedImplementation) {
  const GoldenRun r = run_scenario(/*with_failover=*/true);
  EXPECT_EQ(r.executed, 51561ULL);
  EXPECT_EQ(r.trace_hash, 0xf61fd6bffbcc7eeaULL);
  EXPECT_EQ(r.a_ul_crc_ok, 188);
  EXPECT_EQ(r.a_ul_crc_fail, 8);
  EXPECT_EQ(r.a_iters, 352);
  EXPECT_EQ(r.b_ul_crc_ok, 195);
  EXPECT_EQ(r.b_ul_crc_fail, 1);
  EXPECT_EQ(r.b_iters, 325);
  EXPECT_EQ(r.flow_tx, 166ULL);
  EXPECT_EQ(r.flow_rx, 160ULL);
}

// Observability must be a pure observer: attaching the tracer writes
// pre-allocated rows but schedules nothing, so the executed-event count
// and (time, seq) trace hash must be bit-identical to the untraced
// pins above. The span/stamp/deadline constants below are themselves
// golden values for the tracer — a change means the instrumentation
// points moved.
TEST(GoldenTrace, SteadyStateTracerCountsArePinned) {
  obs::Observability o{obs_config_for_scenario()};
  const GoldenRun r = run_scenario(/*with_failover=*/false, &o);
  EXPECT_EQ(r.executed, 63548ULL);
  EXPECT_EQ(r.trace_hash, 0xf1efcffe0040b04eULL);

  const auto& t = o.tracer();
  EXPECT_EQ(t.spans_opened(), t.spans_closed());
  EXPECT_EQ(t.spans_opened(), 1002ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kL2Request), 1000ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kOrionForward), 999ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kPhySlot), 1000ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kFronthaulTx), 999ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kPhyDecode), 198ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kResponse), 198ULL);
  EXPECT_EQ(t.deadline_misses(), 0ULL);
  // The last two slots at the 500 ms cutoff have an L2 request in
  // flight but no processed PHY slot yet (L2 runs one lead interval
  // ahead) — folded as unserved at finalize, not a telemetry bug.
  EXPECT_EQ(t.unserved_slots(), 2ULL);
  EXPECT_EQ(t.late_stamps_dropped(), 0ULL);
  EXPECT_EQ(t.events_dropped(), 0ULL);
  EXPECT_TRUE(t.failover_episodes().empty());
  // Logical tick counts, as the per-tick generator counted them: one
  // tick per 9 us, and both PHYs armed from the 5 ms watch grace on.
  EXPECT_EQ(t.detector_ticks(), 110000ULL);
  EXPECT_EQ(o.registry().find_counter("switch.generator_packets")->value(),
            55555ULL);
}

TEST(GoldenTrace, FailoverTracerCountsArePinned) {
  obs::Observability o{obs_config_for_scenario()};
  const GoldenRun r = run_scenario(/*with_failover=*/true, &o);
  EXPECT_EQ(r.executed, 51561ULL);
  EXPECT_EQ(r.trace_hash, 0xf61fd6bffbcc7eeaULL);

  const auto& t = o.tracer();
  EXPECT_EQ(t.spans_opened(), t.spans_closed());
  EXPECT_EQ(t.spans_opened(), 1002ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kL2Request), 1000ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kPhySlot), 1000ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kResponse), 197ULL);
  EXPECT_EQ(t.deadline_misses(), 0ULL);
  EXPECT_EQ(t.unserved_slots(), 2ULL);
  const auto episodes = t.failover_episodes();
  ASSERT_EQ(episodes.size(), 1U);
  const auto& ep = episodes[0];
  EXPECT_EQ(ep.failed_phy, 1);       // kPhyA
  EXPECT_GE(ep.detect_t, ep.down_t);
  EXPECT_GE(ep.notify_t, ep.detect_t);
  EXPECT_GE(ep.initiate_t, ep.notify_t);
  EXPECT_GE(ep.boundary_slot, 0);
  EXPECT_EQ(ep.drains_accepted, 0);
  EXPECT_EQ(t.detector_ticks(), 82247ULL);
  EXPECT_EQ(o.registry().find_counter("switch.generator_packets")->value(),
            55555ULL);
}

// Two runs of the same scenario in one process must agree exactly —
// catches hidden global state (thread_local workspaces, static pools)
// leaking across runs.
TEST(GoldenTrace, BackToBackRunsAreIdentical) {
  const GoldenRun r1 = run_scenario(/*with_failover=*/true);
  const GoldenRun r2 = run_scenario(/*with_failover=*/true);
  EXPECT_EQ(r1.executed, r2.executed);
  EXPECT_EQ(r1.trace_hash, r2.trace_hash);
  EXPECT_EQ(r1.a_ul_crc_ok, r2.a_ul_crc_ok);
  EXPECT_EQ(r1.b_ul_crc_ok, r2.b_ul_crc_ok);
}

}  // namespace
}  // namespace slingshot
