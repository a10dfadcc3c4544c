// Massive-UE mode: one struct-of-arrays batch per cell, advanced by a
// single advance_tti() call per TTI.
//
// The individually-modeled UserEquipment carries a 5 ms supervision
// every() timer, per-UE std::map grant/HARQ state, and per-datagram
// callbacks — at 10^5+ UEs the timer ticks alone dominate the event
// loop. UeBatch restructures the per-UE hot state into contiguous SoA
// lanes:
//
//   snr_db[]             AR(1)-fading SNR with a triangular innovation
//                        drawn from lcg[], stepped by the runtime-
//                        dispatched simd::ue_lane_step kernel
//   credits[] / rate[]   app-traffic credit counters (bytes), accrued
//                        (credits += rate) in the same pass
//   rlf_deadline[]       i64 lanes swept by simd::deadline_scan —
//                        instead of a per-UE supervision timer, the
//                        batch runs ONE vectorized sweep per TTI, and
//                        only when the cell's control plane is actually
//                        stale (a scalar guard makes the steady-state
//                        cost zero)
//   reattach_deadline[]  i64 lanes for the ~6.2 s core re-attach
//   harq_bits[]          per-lane DL HARQ NACK bitmap (8 processes)
//   app[] / lcg[]        traffic-app class + per-lane RNG state
//
// The batch is deliberately simulator-free: it schedules no events and
// draws from no sim RNG stream (it owns a splitmix64-seeded per-lane
// LCG), so attaching a batch to a cell cannot perturb any tracer UE's
// RNG stream or event interleaving — the property the tracer
// equivalence test (tests/testbed/test_bulk_equivalence.cc) pins.
//
// Air interface: the batch rides the configured-grant bulk schedule
// (src/l2/bulk_schedule.h). Uplink turns produce real encode_tb
// sections (clean IQ → the PHY's real LDPC decode passes CRC), so the
// PHY-side cost stays a constant ul_grants_per_slot decodes per UL slot
// regardless of population. Downlink bulk sections arrive as zero-IQ
// markers; the batch models the decode with an SNR-threshold +
// deterministic-hash error model and a HARQ-combining bonus (a lane
// that failed a process decodes the next transmission on it), which is
// the SoA analogue of soft-combining without storing LLR vectors.
//
// Fidelity contract vs UserEquipment (asserted by tests/ue conformance
// tests): RLF declared at the first TTI where the control-plane gap
// exceeds rlf_timeout_slots — slot-granular, where UserEquipment
// samples on a 5 ms supervision period, so batch RLF lands within one
// supervision period of the reference; reattach completes exactly
// reattach_delay_slots after the RLF declaration.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/channel.h"
#include "common/types.h"
#include "fronthaul/oran.h"
#include "l2/bulk_schedule.h"

namespace slingshot {

// Batched traffic-app classes (assigned per lane from the configured
// mix): bursty web browsing, constant-bit-rate voice, and full-buffer.
enum class BulkApp : std::uint8_t { kFullBuffer = 0, kWeb = 1, kVoice = 2 };

struct UeBatchConfig {
  BulkSchedule schedule;            // cell id, population, per-slot quotas
  std::uint64_t seed = 1;           // batch-private; never the sim's RNG
  BatchFadingParams fading{};

  // Radio-link supervision (slot-granular analogues of UeConfig's
  // timers; defaults match 50 ms / 6.2 s at µ=1's 500 µs slots).
  std::int64_t rlf_timeout_slots = 100;
  std::int64_t reattach_delay_slots = 12'400;
  // A connected batch whose implicit grants stop being serviced (no
  // bulk DL section for this long while control is still alive)
  // re-establishes, mirroring UeConfig::grant_starvation_timeout. This
  // is a cell-level scalar — a per-lane starvation deadline is
  // meaningless when a lane's turn interval is population/quota slots.
  // 0 disables.
  std::int64_t grant_starvation_slots = 0;

  // Traffic mix: fractions of web and voice lanes; the remainder runs
  // full-buffer. Rates are mean bytes per TTI.
  double web_fraction = 0.4;
  double voice_fraction = 0.3;
  float web_rate_bytes_per_slot = 3.0F;    // ~48 kb/s at 500 µs slots
  float voice_rate_bytes_per_slot = 0.76F; // AMR 12.2 kb/s CBR
  // Web burstiness: lanes drain their backlog only inside burst windows
  // (hash-Bernoulli per lane per window), a keepalive trickle otherwise.
  std::int64_t web_burst_window_slots = 64;
  double web_burst_probability = 0.25;

  // Diurnal churn: a triangle wave detaches up to churn_amplitude of
  // the population at the peak, moving at most max(1, N/1000) lanes per
  // TTI so churn cost stays O(moved), not O(N). 0 disables.
  double churn_amplitude = 0.0;
  std::int64_t churn_period_slots = 20'000;  // 10 s at µ=1

  // Batch-internal DL decode model.
  double dl_base_error_rate = 0.02;
  double dl_snr_margin_db = 0.0;
};

struct UeBatchStats {
  std::int64_t rlf_events = 0;
  std::int64_t reattach_events = 0;
  std::int64_t starvation_events = 0;
  std::int64_t churn_detaches = 0;
  std::int64_t churn_attaches = 0;
  std::int64_t ul_sections = 0;
  std::int64_t ul_app_bytes = 0;   // credit bytes drained into UL turns
  std::int64_t dl_sections = 0;
  std::int64_t dl_tbs_ok = 0;
  std::int64_t dl_tbs_failed = 0;
  std::int64_t dl_harq_combines = 0;
  std::int64_t dl_app_bytes = 0;
  std::int64_t ctrl_slots_seen = 0;
  // Largest number of whole slots with no DL control between two
  // control arrivals — the failover-gap measurement (2 TTIs under
  // Slingshot, §8.2).
  std::int64_t max_ctrl_gap_slots = 0;
  std::int64_t deadline_scans = 0;  // SIMD sweeps actually executed
  std::int64_t advance_calls = 0;
};

class UeBatch {
 public:
  explicit UeBatch(UeBatchConfig config);

  // ---- Over-the-air interface (called by the RU) ----
  // Control-plane liveness: any DL C-plane packet for `slot` feeds the
  // whole batch's radio-link supervision (broadcast channel).
  void on_dl_control(std::int64_t slot);
  // A bulk DL U-plane marker section; the batch models the decode.
  void on_dl_section(std::int64_t slot, const UPlaneSection& section);
  // One per-TTI advance for the whole population: fading step, credit
  // accrual, guarded RLF/reattach deadline sweeps, churn step.
  void advance_tti(std::int64_t slot);
  // Uplink turns for `slot` per the bulk schedule (clean IQ; the PHY
  // decodes for real). Empty when the schedule has no live lanes due.
  [[nodiscard]] std::vector<UPlaneSection> pull_uplink(std::int64_t slot);
  // Pending HARQ feedback for the modeled DL decodes.
  [[nodiscard]] std::vector<UciFeedback> pull_uci();

  // ---- Introspection ----
  [[nodiscard]] const UeBatchStats& stats() const { return stats_; }
  [[nodiscard]] const UeBatchConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t population() const {
    return config_.schedule.population;
  }
  [[nodiscard]] std::int64_t connected_count() const {
    return connected_count_;
  }
  [[nodiscard]] std::int64_t reattaching_count() const {
    return reattaching_count_;
  }
  [[nodiscard]] std::int64_t last_ctrl_slot() const {
    return cell_last_ctrl_slot_;
  }
  [[nodiscard]] float lane_snr_db(std::uint32_t lane) const {
    return snr_db_[lane];
  }
  [[nodiscard]] float lane_credits(std::uint32_t lane) const {
    return credits_[lane];
  }
  [[nodiscard]] std::uint32_t lane_lcg(std::uint32_t lane) const {
    return lcg_[lane];
  }
  [[nodiscard]] bool lane_connected(std::uint32_t lane) const {
    return rlf_deadline_[lane] >= 0;
  }
  [[nodiscard]] BulkApp lane_app(std::uint32_t lane) const {
    return BulkApp(app_[lane]);
  }
  // Total SoA bytes held for the population (capacity-accurate), the
  // numerator of the bytes-per-UE flatness check in bench/abl_ue_sweep.
  [[nodiscard]] std::size_t lane_bytes() const;
  [[nodiscard]] double bytes_per_ue() const {
    return population() == 0 ? 0.0
                             : double(lane_bytes()) / double(population());
  }

 private:
  void declare_rlf(std::uint32_t lane, std::int64_t slot);
  void complete_reattach(std::uint32_t lane, std::int64_t slot);
  [[nodiscard]] std::uint32_t drain_credits(std::uint32_t lane,
                                            std::int64_t slot);
  [[nodiscard]] double hash01(std::uint64_t a, std::uint64_t b) const;

  UeBatchConfig config_;
  UeBatchStats stats_;

  // ---- SoA lanes (all sized exactly to the population) ----
  std::vector<float> snr_db_;
  std::vector<float> credits_;        // app bytes awaiting an UL turn
  std::vector<float> rate_;           // credit accrual per TTI
  std::vector<std::int64_t> rlf_deadline_;       // <0: not connected
  std::vector<std::int64_t> reattach_deadline_;  // <0: not reattaching
  std::vector<std::uint32_t> lcg_;    // per-lane RNG state
  std::vector<std::uint8_t> harq_bits_;  // DL HARQ NACK bitmap
  std::vector<std::uint8_t> app_;
  std::vector<std::uint32_t> hits_;   // deadline_scan output scratch

  std::int64_t connected_count_ = 0;
  std::int64_t reattaching_count_ = 0;
  std::int64_t churn_detached_count_ = 0;
  std::vector<std::uint32_t> churn_stack_;  // lanes parked by churn
  std::uint32_t churn_cursor_ = 0;

  std::int64_t cell_last_ctrl_slot_ = -1;
  std::int64_t cell_last_dl_service_slot_ = -1;

  std::vector<UciFeedback> pending_uci_;
  float innov_scale_ = 0.0F;  // sigma * sqrt(6) for the triangular draw
};

}  // namespace slingshot
