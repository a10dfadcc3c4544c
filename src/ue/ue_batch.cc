#include "ue/ue_batch.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "phy/mcs.h"
#include "phy/simd.h"
#include "phy/tb_codec.h"

namespace slingshot {
namespace {

// The batch never transmits an empty turn: a granted lane with no app
// backlog sends a padding/keepalive PDU, like a real PUSCH with padding
// BSR. Keeps every scheduled turn's section well-formed.
constexpr std::uint32_t kMinUlPayloadBytes = 16;

// A grant announced on the PDCCH stays usable this many slots — the
// batch keeps transmitting through a control gap no longer than the
// announce-to-target distance (fapi_advance + 2), mirroring how a real
// UE holds grants it already heard across a short fronthaul outage.
constexpr std::int64_t kGrantHoldSlots = 4;

}  // namespace

UeBatch::UeBatch(UeBatchConfig config) : config_(config) {
  const std::size_t n = config_.schedule.population;
  snr_db_.resize(n, config_.fading.mean_snr_db);
  credits_.resize(n, 0.0F);
  rate_.resize(n, 0.0F);
  // All lanes start connected, as freshly attached at slot 0.
  rlf_deadline_.resize(n, config_.rlf_timeout_slots);
  reattach_deadline_.resize(n, -1);
  lcg_.resize(n, 1U);
  harq_bits_.resize(n, 0);
  app_.resize(n, std::uint8_t(BulkApp::kFullBuffer));
  hits_.resize(n, 0);
  connected_count_ = std::int64_t(n);

  // Triangular approximation of the gaussian innovation: sqrt(6)*sigma*
  // (u1+u2-1) matches the reference stddev; the distribution shape is a
  // deliberate simplification (documented in DESIGN.md §5.7).
  innov_scale_ =
      config_.fading.innov_sigma_db * float(std::sqrt(6.0));

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = splitmix64(config_.seed ^ (i * 2654435761ULL));
    lcg_[i] = std::uint32_t(h) | 1U;  // LCG state may be anything; keep odd
    const double mix = double(h >> 11) * 0x1.0p-53;
    if (mix < config_.web_fraction) {
      app_[i] = std::uint8_t(BulkApp::kWeb);
      rate_[i] = config_.web_rate_bytes_per_slot;
    } else if (mix < config_.web_fraction + config_.voice_fraction) {
      app_[i] = std::uint8_t(BulkApp::kVoice);
      rate_[i] = config_.voice_rate_bytes_per_slot;
    } else {
      app_[i] = std::uint8_t(BulkApp::kFullBuffer);
      rate_[i] = 0.0F;  // full-buffer lanes always fill the TB
    }
  }
}

double UeBatch::hash01(std::uint64_t a, std::uint64_t b) const {
  const std::uint64_t h = splitmix64(
      config_.seed ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b + 0x632BE59BD9B4E019ULL));
  return double(h >> 11) * 0x1.0p-53;
}

void UeBatch::on_dl_control(std::int64_t slot) {
  if (slot <= cell_last_ctrl_slot_) {
    return;  // same slot's second C-plane packet (mid-slot sync), or late
  }
  if (cell_last_ctrl_slot_ >= 0) {
    const std::int64_t gap = slot - cell_last_ctrl_slot_ - 1;
    if (gap > stats_.max_ctrl_gap_slots) {
      stats_.max_ctrl_gap_slots = gap;
    }
  }
  cell_last_ctrl_slot_ = slot;
  ++stats_.ctrl_slots_seen;
}

void UeBatch::on_dl_section(std::int64_t slot, const UPlaneSection& section) {
  const auto& s = config_.schedule;
  if (s.population == 0) {
    return;
  }
  // Recover this section's lane from the shared schedule arithmetic.
  std::uint32_t lane = 0;
  bool matched = false;
  for (int j = 0; j < s.dl_pdus_per_slot; ++j) {
    const auto turn = bulk_dl_turn(s, slot, j);
    if (turn.ue == section.ue) {
      lane = turn.lane;
      matched = true;
      break;
    }
  }
  if (!matched) {
    return;  // not this slot's schedule (stale or misrouted)
  }
  ++stats_.dl_sections;
  cell_last_dl_service_slot_ = std::max(cell_last_dl_service_slot_, slot);
  if (rlf_deadline_[lane] < 0) {
    return;  // lane detached/reattaching: nobody is listening
  }

  // Modeled decode: SNR threshold + deterministic hash error floor,
  // with a HARQ-combining bonus — a lane that failed this process
  // decodes the retry, the SoA analogue of soft-combining.
  const std::uint8_t harq_mask = std::uint8_t(1U << (section.harq.value() % 8));
  const float threshold = float(mcs_entry(section.mcs).snr_threshold_db +
                                config_.dl_snr_margin_db);
  bool ok;
  if ((harq_bits_[lane] & harq_mask) != 0) {
    ok = true;
    ++stats_.dl_harq_combines;
  } else if (snr_db_[lane] < threshold) {
    ok = false;
  } else {
    ok = hash01(lane, std::uint64_t(slot)) >= config_.dl_base_error_rate;
  }
  if (ok) {
    harq_bits_[lane] = std::uint8_t(harq_bits_[lane] & ~harq_mask);
    ++stats_.dl_tbs_ok;
    stats_.dl_app_bytes += section.tb_bytes;
  } else {
    harq_bits_[lane] = std::uint8_t(harq_bits_[lane] | harq_mask);
    ++stats_.dl_tbs_failed;
  }
  pending_uci_.push_back(UciFeedback{section.ue, section.harq, ok});
}

void UeBatch::declare_rlf(std::uint32_t lane, std::int64_t slot) {
  rlf_deadline_[lane] = -1;
  reattach_deadline_[lane] = slot + config_.reattach_delay_slots;
  harq_bits_[lane] = 0;
  credits_[lane] = 0.0F;
  --connected_count_;
  ++reattaching_count_;
}

void UeBatch::complete_reattach(std::uint32_t lane, std::int64_t slot) {
  reattach_deadline_[lane] = -1;
  rlf_deadline_[lane] = slot + config_.rlf_timeout_slots;
  --reattaching_count_;
  ++connected_count_;
  ++stats_.reattach_events;
}

void UeBatch::advance_tti(std::int64_t slot) {
  ++stats_.advance_calls;
  const std::size_t n = snr_db_.size();
  if (n == 0) {
    return;
  }
  const auto& kernels = simd::kernels();

  // ---- Fading and credit accrual: one fused pass over every lane.
  kernels.ue_lane_step(snr_db_.data(), lcg_.data(), credits_.data(),
                       rate_.data(), n, config_.fading.mean_snr_db,
                       config_.fading.ar1_rho, innov_scale_);

  // ---- RLF sweep. Effective lane deadline is
  // max(attach_slot, cell_last_ctrl) + timeout; the scalar guard covers
  // the cell_last_ctrl term, so the stored attach-based deadlines only
  // need scanning once the whole cell's control plane is stale — the
  // steady-state cost of radio-link supervision is one compare per TTI.
  if (connected_count_ > 0 &&
      slot > cell_last_ctrl_slot_ + config_.rlf_timeout_slots) {
    ++stats_.deadline_scans;
    const std::size_t hits =
        kernels.deadline_scan(rlf_deadline_.data(), n, slot, hits_.data());
    for (std::size_t h = 0; h < hits; ++h) {
      declare_rlf(hits_[h], slot);
      ++stats_.rlf_events;
    }
  }

  // ---- Grant starvation (cell-level, see UeBatchConfig).
  if (config_.grant_starvation_slots > 0 && connected_count_ > 0 &&
      cell_last_dl_service_slot_ >= 0 &&
      slot > cell_last_dl_service_slot_ + config_.grant_starvation_slots &&
      slot <= cell_last_ctrl_slot_ + config_.rlf_timeout_slots) {
    for (std::size_t i = 0; i < n; ++i) {
      if (rlf_deadline_[i] >= 0) {
        declare_rlf(std::uint32_t(i), slot);
        ++stats_.starvation_events;
      }
    }
    cell_last_dl_service_slot_ = slot;  // one re-establishment per outage
  }

  // ---- Reattach completions.
  if (reattaching_count_ > 0) {
    ++stats_.deadline_scans;
    const std::size_t hits = kernels.deadline_scan(reattach_deadline_.data(),
                                                   n, slot, hits_.data());
    for (std::size_t h = 0; h < hits; ++h) {
      complete_reattach(hits_[h], slot);
    }
  }

  // ---- Diurnal churn: triangle-wave detach target, bounded moves/TTI.
  if (config_.churn_amplitude > 0.0 && config_.churn_period_slots > 0) {
    const std::int64_t phase = slot % config_.churn_period_slots;
    const std::int64_t half = config_.churn_period_slots / 2;
    const double tri = half == 0 ? 0.0
                       : phase < half
                           ? double(phase) / double(half)
                           : double(config_.churn_period_slots - phase) /
                                 double(half);
    const auto target = std::int64_t(config_.churn_amplitude * double(n) * tri);
    const auto max_moves = std::max<std::int64_t>(1, std::int64_t(n) / 1000);
    std::int64_t moves = 0;
    while (churn_detached_count_ < target && moves < max_moves &&
           connected_count_ > 0) {
      // Walk the cursor to the next connected lane and park it.
      for (std::size_t probe = 0; probe < n; ++probe) {
        const std::uint32_t lane = churn_cursor_;
        churn_cursor_ = (churn_cursor_ + 1) % std::uint32_t(n);
        if (rlf_deadline_[lane] >= 0) {
          rlf_deadline_[lane] = -1;
          harq_bits_[lane] = 0;
          credits_[lane] = 0.0F;
          --connected_count_;
          ++churn_detached_count_;
          churn_stack_.push_back(lane);
          ++stats_.churn_detaches;
          break;
        }
      }
      ++moves;
    }
    while (churn_detached_count_ > target && moves < max_moves &&
           !churn_stack_.empty()) {
      const std::uint32_t lane = churn_stack_.back();
      churn_stack_.pop_back();
      rlf_deadline_[lane] = slot + config_.rlf_timeout_slots;
      credits_[lane] = 0.0F;
      --churn_detached_count_;
      ++connected_count_;
      ++stats_.churn_attaches;
      ++moves;
    }
  }
}

std::uint32_t UeBatch::drain_credits(std::uint32_t lane, std::int64_t slot) {
  const auto& s = config_.schedule;
  switch (BulkApp(app_[lane])) {
    case BulkApp::kFullBuffer:
      return s.ul_tb_bytes;
    case BulkApp::kVoice: {
      const auto backlog = std::uint32_t(std::max(0.0F, credits_[lane]));
      const auto drained = std::min(backlog, s.ul_tb_bytes);
      credits_[lane] -= float(drained);
      return drained;
    }
    case BulkApp::kWeb: {
      const std::int64_t window =
          config_.web_burst_window_slots > 0
              ? slot / config_.web_burst_window_slots
              : slot;
      const bool in_burst = hash01(lane ^ 0x5EB0000ULL,
                                   std::uint64_t(window)) <
                            config_.web_burst_probability;
      const auto backlog = std::uint32_t(std::max(0.0F, credits_[lane]));
      // Outside a burst only a keepalive trickle leaves; the backlog
      // keeps building toward the next burst window.
      const auto cap = in_burst ? s.ul_tb_bytes
                                : std::min<std::uint32_t>(64, s.ul_tb_bytes);
      const auto drained = std::min(backlog, cap);
      credits_[lane] -= float(drained);
      return drained;
    }
  }
  return 0;
}

std::vector<UPlaneSection> UeBatch::pull_uplink(std::int64_t slot) {
  std::vector<UPlaneSection> sections;
  const auto& s = config_.schedule;
  if (s.population == 0 || connected_count_ == 0) {
    return sections;
  }
  // No control plane for longer than the grant-hold window means the
  // batch has no (implicit) grant to transmit against — during a
  // failover gap this is what the PHY observes as missing sections.
  if (cell_last_ctrl_slot_ < 0 ||
      slot - cell_last_ctrl_slot_ > kGrantHoldSlots) {
    return sections;
  }
  for (int j = 0; j < s.ul_grants_per_slot; ++j) {
    const auto turn = bulk_ul_turn(s, slot, j);
    if (rlf_deadline_[turn.lane] < 0) {
      continue;  // lane detached: the PHY sees a missing section
    }
    const std::uint32_t app_bytes = drain_credits(turn.lane, slot);
    stats_.ul_app_bytes += app_bytes;
    const std::uint32_t payload_bytes =
        std::max(app_bytes, kMinUlPayloadBytes);
    std::vector<std::uint8_t> payload(payload_bytes);
    for (std::uint32_t b = 0; b < payload_bytes; ++b) {
      payload[b] = std::uint8_t(turn.lane * 31U + b);
    }
    const auto mod = mcs_entry(s.ul_mcs).modulation;
    auto encoded = encode_tb(payload, mod);
    UPlaneSection section;
    section.ue = turn.ue;
    section.harq = turn.harq;
    section.new_data = true;
    section.mcs = s.ul_mcs;
    section.tb_bytes = std::uint32_t(payload.size());
    section.codeword_bits = encoded.codeword_bits;
    section.iq = std::move(encoded.iq);
    section.shadow_payload = std::move(payload);
    sections.push_back(std::move(section));
    ++stats_.ul_sections;
  }
  return sections;
}

std::vector<UciFeedback> UeBatch::pull_uci() {
  auto out = std::move(pending_uci_);
  pending_uci_.clear();
  return out;
}

std::size_t UeBatch::lane_bytes() const {
  return snr_db_.capacity() * sizeof(float) +
         credits_.capacity() * sizeof(float) +
         rate_.capacity() * sizeof(float) +
         rlf_deadline_.capacity() * sizeof(std::int64_t) +
         reattach_deadline_.capacity() * sizeof(std::int64_t) +
         lcg_.capacity() * sizeof(std::uint32_t) +
         harq_bits_.capacity() * sizeof(std::uint8_t) +
         app_.capacity() * sizeof(std::uint8_t) +
         hits_.capacity() * sizeof(std::uint32_t) +
         churn_stack_.capacity() * sizeof(std::uint32_t);
}

}  // namespace slingshot
