// Determinism of the parallel PHY decode path (ISSUE 4 tentpole).
//
// Two layers of evidence that attaching a fork-join pool changes
// nothing but wall-clock:
//  * decode a captured batch of noisy transport blocks through
//    Simulator::run_parallel with 1, 2 and 8 workers and assert every
//    result — hard decisions, combined LLRs, CRC verdicts, iteration
//    counts, SNR estimates — is bit-identical to the serial run;
//  * run the full golden-trace testbed scenario (seed 42, failover at
//    250 ms) with pools of each width attached and assert the pinned
//    executed-event count, (time, seq) trace hash, decode counters and
//    tracer span/stamp counts are EXACTLY the serial constants from
//    test_golden_trace.cc.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "obs/obs.h"
#include "phy/tb_codec.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "transport/apps.h"

namespace slingshot {
namespace {

struct CapturedTb {
  std::vector<std::complex<float>> iq;
  std::vector<std::uint8_t> payload;
  Modulation mod = Modulation::kQam16;
};

// A "captured slot": a batch of noisy TBs at SNRs straddling the
// decoding threshold, so the batch mixes CRC passes, failures, and
// varying iteration counts.
std::vector<CapturedTb> capture_slot(int num_tbs) {
  auto rng = RngRegistry{77}.stream("capture");
  std::vector<CapturedTb> tbs;
  const Modulation mods[] = {Modulation::kQpsk, Modulation::kQam16,
                             Modulation::kQam64};
  for (int t = 0; t < num_tbs; ++t) {
    CapturedTb tb;
    tb.mod = mods[t % 3];
    tb.payload.resize(40 + std::size_t(t) * 7);
    for (auto& b : tb.payload) {
      b = std::uint8_t(rng.next_u64());
    }
    auto enc = encode_tb(tb.payload, tb.mod);
    const double snr_db = 4.0 + double(t % 6) * 2.5;
    const double sigma = std::sqrt(std::pow(10.0, -snr_db / 10.0) / 2.0);
    for (auto& s : enc.iq) {
      s += std::complex<float>(float(rng.gaussian(0.0, sigma)),
                               float(rng.gaussian(0.0, sigma)));
    }
    tb.iq = std::move(enc.iq);
    tbs.push_back(std::move(tb));
  }
  return tbs;
}

std::vector<TbDecodeResult> decode_batch(const std::vector<CapturedTb>& tbs,
                                         int threads) {
  Simulator sim;
  ThreadPool pool{threads};
  if (threads > 1) {
    sim.set_thread_pool(&pool);
  }
  EXPECT_EQ(sim.parallel_workers(), threads > 1 ? threads : 1);
  // One workspace per worker, results in pre-sized disjoint slots —
  // the same structure PhyProcess::decode_uplink uses.
  std::vector<TbDecodeWorkspace> ws(std::size_t(sim.parallel_workers()));
  std::vector<TbDecodeResult> results(tbs.size());
  sim.run_parallel(tbs.size(), [&](std::size_t i, int worker) {
    const auto& tb = tbs[i];
    results[i] = decode_tb(tb.iq, tb.mod, tb.payload, 8, nullptr,
                           LdpcCode::standard(), &ws[std::size_t(worker)]);
  });
  return results;
}

void expect_identical(const std::vector<TbDecodeResult>& a,
                      const std::vector<TbDecodeResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].crc_ok, b[i].crc_ok) << "tb " << i;
    EXPECT_EQ(a[i].parity_ok, b[i].parity_ok) << "tb " << i;
    EXPECT_EQ(a[i].iterations_used, b[i].iterations_used) << "tb " << i;
    // Bit-exact, not approximately equal.
    EXPECT_EQ(std::memcmp(&a[i].est_snr_db, &b[i].est_snr_db,
                          sizeof(double)),
              0)
        << "tb " << i;
    // Soft state comes back only for a failed CRC (empty otherwise).
    ASSERT_EQ(a[i].combined_llrs.size(), b[i].combined_llrs.size());
    if (!a[i].combined_llrs.empty()) {
      EXPECT_EQ(std::memcmp(a[i].combined_llrs.data(),
                            b[i].combined_llrs.data(),
                            a[i].combined_llrs.size() * sizeof(float)),
                0)
          << "tb " << i;
    }
  }
}

TEST(ParallelDecode, BatchBitIdenticalAcrossThreadCounts) {
  const auto slot = capture_slot(24);
  const auto serial = decode_batch(slot, 1);
  // The batch must exercise both outcomes to be meaningful.
  int ok = 0;
  int fail = 0;
  for (const auto& r : serial) {
    (r.crc_ok ? ok : fail)++;
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(fail, 0);
  expect_identical(serial, decode_batch(slot, 2));
  expect_identical(serial, decode_batch(slot, 8));
}

// ---------------------------------------------------------------------
// Full-testbed golden pins, per thread count. Constants are the serial
// ones from test_golden_trace.cc — a pool must not move any of them.
// ---------------------------------------------------------------------

struct GoldenRun {
  std::uint64_t executed;
  std::uint64_t trace_hash;
  std::int64_t a_ul_crc_ok;
  std::int64_t a_iters;
  std::int64_t b_ul_crc_ok;
  std::int64_t b_iters;
};

GoldenRun run_failover_scenario(ThreadPool* pool,
                                obs::Observability* o = nullptr) {
  Logger::instance().set_level(LogLevel::kError);
  TestbedConfig cfg;
  cfg.seed = 42;
  cfg.num_ues = 2;
  cfg.ue_mean_snr_db = {18.0, 7.0};
  Testbed tb{cfg};
  tb.sim().set_thread_pool(pool);
  if (o != nullptr) {
    tb.attach_observability(*o);
  }

  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = 4e6;
  UdpFlow flow{tb.sim(), tb.ue_pipe(0), tb.server_pipe(0), flow_cfg};

  tb.start();
  tb.run_until(100_ms);
  flow.start();
  tb.sim().at(250_ms, [&tb] { tb.kill_primary_phy(); });
  tb.run_until(500_ms);
  if (o != nullptr) {
    o->finalize();
  }
  const auto& a = tb.phy_a().stats();
  const auto& b = tb.phy_b().stats();
  return GoldenRun{tb.sim().executed_events(), tb.sim().trace_hash(),
                   a.ul_crc_ok, a.decode_iterations, b.ul_crc_ok,
                   b.decode_iterations};
}

void expect_failover_pins(const GoldenRun& r) {
  EXPECT_EQ(r.executed, 105137ULL);
  EXPECT_EQ(r.trace_hash, 0xa72f2ee07b06d292ULL);
  EXPECT_EQ(r.a_ul_crc_ok, 188);
  EXPECT_EQ(r.a_iters, 352);
  EXPECT_EQ(r.b_ul_crc_ok, 195);
  EXPECT_EQ(r.b_iters, 325);
}

TEST(ParallelDecode, GoldenTracePinnedWithOneWorkerPool) {
  ThreadPool pool{1};
  expect_failover_pins(run_failover_scenario(&pool));
}

TEST(ParallelDecode, GoldenTracePinnedWithTwoWorkerPool) {
  ThreadPool pool{2};
  expect_failover_pins(run_failover_scenario(&pool));
}

TEST(ParallelDecode, GoldenTracePinnedWithEightWorkerPool) {
  ThreadPool pool{8};
  expect_failover_pins(run_failover_scenario(&pool));
}

// Tracer counts (spans opened/closed, per-stage stamps) are golden too:
// observability hooks only run on the event-loop thread, so a pool must
// not move a single stamp.
TEST(ParallelDecode, TracerCountsPinnedWithEightWorkerPool) {
  obs::ObservabilityConfig obs_cfg;
  {
    TestbedConfig cfg;
    cfg.seed = 42;
    cfg.num_ues = 2;
    cfg.ue_mean_snr_db = {18.0, 7.0};
    Testbed tb{cfg};
    obs_cfg = tb.obs_config();
  }
  obs::Observability o{obs_cfg};
  ThreadPool pool{8};
  expect_failover_pins(run_failover_scenario(&pool, &o));
  const auto& t = o.tracer();
  EXPECT_EQ(t.spans_opened(), t.spans_closed());
  EXPECT_EQ(t.spans_opened(), 1002ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kL2Request), 1000ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kPhySlot), 1000ULL);
  EXPECT_EQ(t.stamps_recorded(obs::SlotStage::kResponse), 197ULL);
  EXPECT_EQ(t.deadline_misses(), 0ULL);
  EXPECT_EQ(t.late_stamps_dropped(), 0ULL);
  EXPECT_EQ(t.events_dropped(), 0ULL);
}

}  // namespace
}  // namespace slingshot
