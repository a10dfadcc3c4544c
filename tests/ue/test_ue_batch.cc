// UeBatch conformance tests: the SoA massive-UE batch must reproduce
// the tracer-visible behavior of the individually-modeled UserEquipment
// — RLF declared within one supervision period of the reference, reattach
// exactly reattach_delay after declaration, grants held across short
// control gaps — plus the batch-only machinery (schedule arithmetic,
// traffic apps, churn, the zero-cost steady-state supervision guard).
#include "ue/ue_batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "l2/bulk_schedule.h"
#include "ue/ue.h"

namespace slingshot {
namespace {

UeBatchConfig small_config(std::uint32_t population) {
  UeBatchConfig cfg;
  cfg.schedule.population = population;
  cfg.seed = 7;
  return cfg;
}

// ---- Shared schedule arithmetic ----

TEST(BulkSchedule, WireIdsAreFlaggedAndCellRecoverable) {
  for (std::uint8_t cell : {std::uint8_t(0), std::uint8_t(3),
                            std::uint8_t(127)}) {
    const UeId id = bulk_wire_id(cell, 42);
    EXPECT_TRUE(is_bulk_ue(id));
    EXPECT_EQ(bulk_cell_of(id), cell);
  }
  // Tracer testbed ids (1.., 100*c+1..) never carry the flag.
  EXPECT_FALSE(is_bulk_ue(UeId{1}));
  EXPECT_FALSE(is_bulk_ue(UeId{101}));
  EXPECT_FALSE(is_bulk_ue(UeId{701}));
}

TEST(BulkSchedule, TurnsCycleFairlyOverAllLanes) {
  BulkSchedule s;
  s.population = 7;
  s.ul_grants_per_slot = 2;
  std::vector<int> turns_per_lane(s.population, 0);
  for (std::int64_t slot = 0; slot < 7 * 4; ++slot) {
    for (int j = 0; j < s.ul_grants_per_slot; ++j) {
      const auto turn = bulk_ul_turn(s, slot, j);
      ASSERT_LT(turn.lane, s.population);
      ++turns_per_lane[turn.lane];
    }
  }
  // 56 turns over 7 lanes: exactly 8 each (round-robin index % N).
  for (const int count : turns_per_lane) {
    EXPECT_EQ(count, 8);
  }
}

TEST(BulkSchedule, L2AndBatchRecomputeIdenticalTurns) {
  BulkSchedule s;
  s.cell = 2;
  s.population = 1000;
  std::vector<TtiPdu> pdus;
  append_bulk_ul(s, /*slot=*/1234, pdus);
  ASSERT_EQ(int(pdus.size()), s.ul_grants_per_slot);
  for (int j = 0; j < s.ul_grants_per_slot; ++j) {
    const auto turn = bulk_ul_turn(s, 1234, j);
    EXPECT_EQ(pdus[std::size_t(j)].ue, turn.ue);
    EXPECT_EQ(pdus[std::size_t(j)].harq, turn.harq);
    EXPECT_TRUE(pdus[std::size_t(j)].new_data);
  }
}

// ---- Construction and footprint ----

TEST(UeBatch, StartsFullyConnectedWithSmallFootprint) {
  UeBatch batch(small_config(10'000));
  EXPECT_EQ(batch.population(), 10'000U);
  EXPECT_EQ(batch.connected_count(), 10'000);
  EXPECT_EQ(batch.reattaching_count(), 0);
  // SoA lanes: ~38 bytes of hot state per UE; anything near the
  // UserEquipment footprint (timers + maps, kilobytes) is a regression.
  EXPECT_LT(batch.bytes_per_ue(), 64.0);
  EXPECT_GT(batch.bytes_per_ue(), 0.0);
}

// The fused lane step against a per-lane reference written out here:
// two LCG draws, the triangular innovation, the AR(1) step, and the
// credit accrual in the AR(1) form it replaced (mean 0, rho 1). Every
// lane's SNR, credits and LCG state must match bit for bit over 200
// TTIs, at whatever SIMD level the process dispatched to.
TEST(UeBatch, LaneTrajectoriesMatchScalarReferenceBitForBit) {
  const auto cfg = small_config(45);  // leaves 8- and 4-lane tails
  UeBatch batch(cfg);
  const std::uint32_t n = batch.population();
  std::vector<float> snr(n);
  std::vector<float> credits(n);
  std::vector<float> rate(n);
  std::vector<std::uint32_t> lcg(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    snr[i] = batch.lane_snr_db(i);
    credits[i] = batch.lane_credits(i);
    lcg[i] = batch.lane_lcg(i);
    switch (batch.lane_app(i)) {
      case BulkApp::kWeb: rate[i] = cfg.web_rate_bytes_per_slot; break;
      case BulkApp::kVoice: rate[i] = cfg.voice_rate_bytes_per_slot; break;
      case BulkApp::kFullBuffer: rate[i] = 0.0F; break;
    }
  }
  const float mean = cfg.fading.mean_snr_db;
  const float rho = cfg.fading.ar1_rho;
  const float scale = cfg.fading.innov_sigma_db * float(std::sqrt(6.0));
  auto uniform = [](std::uint32_t& state) {
    state = state * 1664525U + 1013904223U;
    return float(state >> 8) * 0x1.0p-24F;
  };
  auto same = [](float a, float b) {
    return std::memcmp(&a, &b, sizeof(float)) == 0;
  };
  for (std::int64_t slot = 0; slot < 200; ++slot) {
    batch.on_dl_control(slot);  // keeps every lane connected
    batch.advance_tti(slot);
    for (std::uint32_t i = 0; i < n; ++i) {
      const float u1 = uniform(lcg[i]);
      const float u2 = uniform(lcg[i]);
      const float innov = scale * (u1 + u2 - 1.0F);
      snr[i] = mean + rho * (snr[i] - mean) + innov;
      credits[i] = 0.0F + 1.0F * (credits[i] - 0.0F) + rate[i];
      ASSERT_TRUE(same(batch.lane_snr_db(i), snr[i]))
          << "slot " << slot << " lane " << i;
      ASSERT_TRUE(same(batch.lane_credits(i), credits[i]))
          << "slot " << slot << " lane " << i;
      ASSERT_EQ(batch.lane_lcg(i), lcg[i]) << "slot " << slot << " lane " << i;
    }
  }
  EXPECT_EQ(batch.connected_count(), std::int64_t(n));
}

TEST(UeBatch, TrafficMixFollowsConfiguredFractions) {
  auto cfg = small_config(20'000);
  cfg.web_fraction = 0.4;
  cfg.voice_fraction = 0.3;
  UeBatch batch(cfg);
  std::int64_t web = 0;
  std::int64_t voice = 0;
  for (std::uint32_t lane = 0; lane < batch.population(); ++lane) {
    web += batch.lane_app(lane) == BulkApp::kWeb ? 1 : 0;
    voice += batch.lane_app(lane) == BulkApp::kVoice ? 1 : 0;
  }
  EXPECT_NEAR(double(web) / 20'000.0, 0.4, 0.02);
  EXPECT_NEAR(double(voice) / 20'000.0, 0.3, 0.02);
}

// ---- Control-plane supervision ----

TEST(UeBatch, TracksMaxControlGap) {
  UeBatch batch(small_config(4));
  for (std::int64_t s = 0; s <= 10; ++s) {
    batch.on_dl_control(s);
  }
  batch.on_dl_control(13);  // slots 11, 12 missing: gap of 2
  batch.on_dl_control(14);
  EXPECT_EQ(batch.stats().max_ctrl_gap_slots, 2);
  EXPECT_EQ(batch.stats().ctrl_slots_seen, 13);
}

TEST(UeBatch, SteadyStateRunsZeroDeadlineScans) {
  auto cfg = small_config(256);
  UeBatch batch(cfg);
  for (std::int64_t s = 0; s < 300; ++s) {
    batch.on_dl_control(s);
    batch.advance_tti(s);
  }
  // Live control plane: the scalar guard keeps the SIMD sweeps idle.
  EXPECT_EQ(batch.stats().deadline_scans, 0);
  EXPECT_EQ(batch.stats().rlf_events, 0);
  EXPECT_EQ(batch.connected_count(), 256);
}

TEST(UeBatch, ShortFailoverGapDoesNotDisconnectAnyone) {
  auto cfg = small_config(64);
  cfg.rlf_timeout_slots = 100;
  UeBatch batch(cfg);
  std::int64_t s = 0;
  for (; s < 50; ++s) {
    batch.on_dl_control(s);
    batch.advance_tti(s);
  }
  for (; s < 53; ++s) {
    batch.advance_tti(s);  // 3-slot control outage (a generous failover)
  }
  for (; s < 120; ++s) {
    batch.on_dl_control(s);
    batch.advance_tti(s);
  }
  EXPECT_EQ(batch.stats().rlf_events, 0);
  EXPECT_EQ(batch.connected_count(), 64);
  EXPECT_EQ(batch.stats().max_ctrl_gap_slots, 3);
}

// The conformance anchor: the batch's slot-granular RLF lands within one
// 5 ms supervision period of a reference UserEquipment driven by the
// same control-plane history, and reattach completes exactly
// reattach_delay later.
TEST(UeBatchConformance, RlfTimingWithinOneSupervisionPeriodOfReferenceUe) {
  const std::int64_t last_ctrl_slot = 40;

  // Reference: a real UserEquipment with the default 50 ms RLF timer.
  Simulator sim;
  UeConfig ue_cfg;
  ue_cfg.id = UeId{1};
  FadingConfig fading;
  fading.ar1_sigma_db = 0.0;
  UserEquipment ue(sim, "ref-ue", ue_cfg, fading, sim.rng().stream("chan"));
  ue.power_on();
  const Nanos slot_ns = ue_cfg.slots.slot_duration;
  std::int64_t ue_rlf_slot = -1;
  for (std::int64_t s = 0; s < 400 && ue_rlf_slot < 0; ++s) {
    sim.run_until(s * slot_ns + 1);
    if (s <= last_ctrl_slot) {
      ue.on_dl_control(s, CPlaneMsg{});
    }
    if (!ue.connected()) {
      ue_rlf_slot = s;
    }
  }
  ASSERT_GT(ue_rlf_slot, 0);

  // Batch with the matching slot-granular timeout (50 ms at 500 µs).
  auto cfg = small_config(32);
  cfg.rlf_timeout_slots = ue_cfg.rlf_timeout / slot_ns;
  UeBatch batch(cfg);
  std::int64_t batch_rlf_slot = -1;
  for (std::int64_t s = 0; s < 400 && batch_rlf_slot < 0; ++s) {
    if (s <= last_ctrl_slot) {
      batch.on_dl_control(s);
    }
    batch.advance_tti(s);
    if (batch.connected_count() < std::int64_t(batch.population())) {
      batch_rlf_slot = s;
    }
  }
  ASSERT_GT(batch_rlf_slot, 0);
  // All lanes share the cell's control plane: they fail together.
  EXPECT_EQ(batch.connected_count(), 0);
  EXPECT_EQ(batch.stats().rlf_events, 32);

  // One supervision period = 5 ms = 10 slots at this numerology.
  EXPECT_LE(std::llabs(batch_rlf_slot - ue_rlf_slot), 10)
      << "batch declared at slot " << batch_rlf_slot << ", reference UE at "
      << ue_rlf_slot;
}

TEST(UeBatchConformance, ReattachCompletesExactlyAfterConfiguredDelay) {
  auto cfg = small_config(8);
  cfg.rlf_timeout_slots = 100;
  cfg.reattach_delay_slots = 57;
  UeBatch batch(cfg);
  batch.on_dl_control(0);
  std::int64_t rlf_slot = -1;
  std::int64_t reattach_slot = -1;
  // Stop before slot 258: with the control plane still dead, the
  // reattached lanes would (correctly, like a real UE) RLF again one
  // timeout after the reattach and start a second cycle.
  for (std::int64_t s = 1; s < 250; ++s) {
    batch.advance_tti(s);
    if (rlf_slot < 0 && batch.connected_count() == 0) {
      rlf_slot = s;
    }
    if (rlf_slot > 0 && reattach_slot < 0 && batch.connected_count() == 8) {
      reattach_slot = s;
    }
  }
  ASSERT_GT(rlf_slot, 0);
  ASSERT_GT(reattach_slot, 0);
  EXPECT_EQ(reattach_slot, rlf_slot + 57);
  EXPECT_EQ(batch.stats().reattach_events, 8);
}

// ---- Uplink generation ----

TEST(UeBatch, PullUplinkProducesRealEncodedSections) {
  auto cfg = small_config(100);
  UeBatch batch(cfg);
  batch.on_dl_control(10);
  const auto sections = batch.pull_uplink(10);
  ASSERT_EQ(int(sections.size()), cfg.schedule.ul_grants_per_slot);
  for (const auto& section : sections) {
    EXPECT_TRUE(is_bulk_ue(section.ue));
    EXPECT_TRUE(section.new_data);
    EXPECT_GT(section.codeword_bits, 0U);
    EXPECT_FALSE(section.iq.empty());
    EXPECT_GE(section.shadow_payload.size(), 16U);
    EXPECT_EQ(section.tb_bytes, section.shadow_payload.size());
  }
}

TEST(UeBatch, GrantHoldWindowStopsUplinkDuringLongOutage) {
  UeBatch batch(small_config(16));
  batch.on_dl_control(10);
  // Within the hold window (announce-to-target distance) transmission
  // continues; beyond it the batch has no grant to transmit against.
  EXPECT_FALSE(batch.pull_uplink(14).empty());
  EXPECT_TRUE(batch.pull_uplink(15).empty());
  EXPECT_TRUE(batch.pull_uplink(100).empty());
  // Control resumes: uplink resumes.
  batch.on_dl_control(101);
  EXPECT_FALSE(batch.pull_uplink(101).empty());
}

TEST(UeBatch, FullBufferLanesFillEveryTurn) {
  auto cfg = small_config(10);
  cfg.web_fraction = 0.0;
  cfg.voice_fraction = 0.0;  // all lanes full-buffer
  UeBatch batch(cfg);
  std::int64_t pulled = 0;
  for (std::int64_t s = 0; s < 40; ++s) {
    batch.on_dl_control(s);
    batch.advance_tti(s);
    pulled += std::int64_t(batch.pull_uplink(s).size());
  }
  EXPECT_EQ(batch.stats().ul_sections, pulled);
  EXPECT_EQ(batch.stats().ul_app_bytes,
            pulled * std::int64_t(cfg.schedule.ul_tb_bytes));
}

TEST(UeBatch, VoiceLaneDrainsAccruedCredits) {
  auto cfg = small_config(1);  // one lane: every turn is lane 0
  cfg.web_fraction = 0.0;
  cfg.voice_fraction = 1.0;
  cfg.schedule.ul_grants_per_slot = 1;
  UeBatch batch(cfg);
  ASSERT_EQ(batch.lane_app(0), BulkApp::kVoice);
  for (std::int64_t s = 0; s < 100; ++s) {
    batch.on_dl_control(s);
    batch.advance_tti(s);
  }
  batch.on_dl_control(100);
  const auto sections = batch.pull_uplink(100);
  ASSERT_EQ(sections.size(), 1U);
  // 100 slots of 0.76 B/slot CBR accrual ≈ 76 bytes drained.
  EXPECT_GE(batch.stats().ul_app_bytes, 70);
  EXPECT_LE(batch.stats().ul_app_bytes, 80);
}

// ---- Downlink decode model ----

TEST(UeBatch, DlHarqCombiningRecoversAfterLowSnrFailure) {
  auto cfg = small_config(1);
  cfg.fading.mean_snr_db = -20.0F;  // far below any MCS threshold
  cfg.fading.innov_sigma_db = 0.0F;
  UeBatch batch(cfg);
  const auto turn = bulk_dl_turn(cfg.schedule, /*slot=*/8, 0);
  UPlaneSection section;
  section.ue = turn.ue;
  section.harq = turn.harq;
  section.mcs = cfg.schedule.dl_mcs;
  section.tb_bytes = cfg.schedule.dl_tb_bytes;
  batch.on_dl_section(8, section);   // first transmission: SNR fail
  batch.on_dl_section(8, section);   // retry on the same process: combine
  EXPECT_EQ(batch.stats().dl_tbs_failed, 1);
  EXPECT_EQ(batch.stats().dl_tbs_ok, 1);
  EXPECT_EQ(batch.stats().dl_harq_combines, 1);
  const auto uci = batch.pull_uci();
  ASSERT_EQ(uci.size(), 2U);
  EXPECT_FALSE(uci[0].ack);
  EXPECT_TRUE(uci[1].ack);
  EXPECT_TRUE(batch.pull_uci().empty());  // drained
}

TEST(UeBatch, HighSnrDlSectionsMostlyDecode) {
  auto cfg = small_config(50);
  cfg.fading.mean_snr_db = 30.0F;
  cfg.dl_base_error_rate = 0.0;
  UeBatch batch(cfg);
  for (std::int64_t s = 0; s < 100; ++s) {
    batch.on_dl_control(s);
    batch.advance_tti(s);
    for (int j = 0; j < cfg.schedule.dl_pdus_per_slot; ++j) {
      const auto turn = bulk_dl_turn(cfg.schedule, s, j);
      UPlaneSection section;
      section.ue = turn.ue;
      section.harq = turn.harq;
      section.mcs = cfg.schedule.dl_mcs;
      section.tb_bytes = cfg.schedule.dl_tb_bytes;
      batch.on_dl_section(s, section);
    }
  }
  EXPECT_EQ(batch.stats().dl_sections, 200);
  EXPECT_EQ(batch.stats().dl_tbs_failed, 0);
  EXPECT_EQ(batch.stats().dl_app_bytes,
            200 * std::int64_t(cfg.schedule.dl_tb_bytes));
}

// ---- Churn ----

TEST(UeBatch, DiurnalChurnMovesLanesAndKeepsBookkeepingConsistent) {
  auto cfg = small_config(2000);
  cfg.churn_amplitude = 0.2;
  cfg.churn_period_slots = 400;
  UeBatch batch(cfg);
  for (std::int64_t s = 0; s < 400; ++s) {
    batch.on_dl_control(s);
    batch.advance_tti(s);
  }
  EXPECT_GT(batch.stats().churn_detaches, 0);
  EXPECT_GT(batch.stats().churn_attaches, 0);
  // connected_count must equal the lane-level truth at all times.
  std::int64_t connected = 0;
  for (std::uint32_t lane = 0; lane < batch.population(); ++lane) {
    connected += batch.lane_connected(lane) ? 1 : 0;
  }
  EXPECT_EQ(connected, batch.connected_count());
  EXPECT_EQ(batch.stats().rlf_events, 0);  // churn is not RLF
}

TEST(UeBatch, EmptyBatchIsInert) {
  UeBatch batch(small_config(0));
  batch.on_dl_control(5);
  batch.advance_tti(5);
  EXPECT_TRUE(batch.pull_uplink(5).empty());
  EXPECT_TRUE(batch.pull_uci().empty());
  EXPECT_EQ(batch.connected_count(), 0);
}

}  // namespace
}  // namespace slingshot
