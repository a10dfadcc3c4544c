#include "core/real_orion.h"

#include "common/log.h"

namespace slingshot {

const char* episode_event_name(EpisodeEventKind kind) {
  switch (kind) {
    case EpisodeEventKind::kDetected:
      return "detected";
    case EpisodeEventKind::kFailoverInitiated:
      return "failover_initiated";
    case EpisodeEventKind::kSwapFinalized:
      return "swap_finalized";
    case EpisodeEventKind::kStandbyAdopted:
      return "standby_adopted";
  }
  return "?";
}

RealOrionRelay::RealOrionRelay(RealOrionConfig config, UdpEndpoint* endpoint,
                               ShmRing l2_to_orion, ShmRing orion_to_l2,
                               std::vector<ShmRing> orion_to_phy,
                               std::vector<ShmRing> phy_to_orion)
    : config_(std::move(config)),
      endpoint_(endpoint),
      l2_to_orion_(l2_to_orion),
      orion_to_l2_(orion_to_l2),
      orion_to_phy_(std::move(orion_to_phy)),
      phy_to_orion_(std::move(phy_to_orion)) {}

std::int64_t RealOrionRelay::wall_slot() const {
  const auto& p = config_.pacer;
  if (p.tti_ns <= 0) {
    return 0;
  }
  return (WallclockPacer::now_ns() - p.epoch_ns) / p.tti_ns;
}

std::size_t RealOrionRelay::phy_index_for_port(std::uint16_t port) const {
  for (std::size_t i = 0; i < config_.phy_ports.size(); ++i) {
    if (config_.phy_ports[i] == port) {
      return i;
    }
  }
  return config_.phy_ports.size();
}

void RealOrionRelay::send_fapi(std::uint16_t port, const FapiMessage& msg) {
  serialize_fapi_into(msg, wire_scratch_);
  endpoint_->send_to(port, wire_scratch_);
}

void RealOrionRelay::record(EpisodeEventKind kind, PhyId phy) {
  ledger_.push_back(EpisodeEvent{kind, config_.ru, phy, wall_slot(),
                                 WallclockPacer::now_ns()});
}

void RealOrionRelay::poll_once(int timeout_ms) {
  std::uint16_t from_port = 0;
  for (int n = endpoint_->recv(rx_scratch_, timeout_ms, &from_port); n > 0;
       n = endpoint_->recv(rx_scratch_, 0, &from_port)) {
    handle_datagram(from_port, rx_scratch_);
  }
  drain_rings();
  check_detector();
}

void RealOrionRelay::handle_datagram(std::uint16_t from_port,
                                     std::span<const std::uint8_t> bytes) {
  FapiMessage msg;
  const char* err = nullptr;
  if (!try_parse_fapi(bytes, msg, &err)) {
    ++stats_.parse_errors;
    SLOG_WARN("real-orion", "dropping corrupt datagram from port %u (%s)",
              unsigned(from_port), err == nullptr ? "?" : err);
    // Same contract as the simulated Orion: the L2 hears about
    // unparseable bytes instead of observing a silent gap.
    send_fapi(config_.l2_port,
              FapiMessage{config_.ru, 0,
                          ErrorIndication{kFapiMsgCorrupt,
                                          FapiMsgType::kErrorIndication}});
    return;
  }
  if (from_port == config_.l2_port) {
    handle_l2_request(std::move(msg));
    return;
  }
  const std::size_t phy = phy_index_for_port(from_port);
  if (phy < config_.phy_ports.size()) {
    handle_phy_indication(phy, std::move(msg));
  }
  // Unknown senders are dropped: the transport is closed-world.
}

void RealOrionRelay::handle_l2_request(FapiMessage&& msg) {
  const std::uint16_t active_port = config_.phy_ports[config_.active];
  const std::uint16_t standby_port = config_.phy_ports[config_.standby];
  switch (msg.type()) {
    case FapiMsgType::kDlTtiRequest: {
      send_fapi(active_port, msg);
      ++stats_.requests_forwarded;
      if (!failed_over_) {
        send_fapi(standby_port, make_null_dl_tti(msg.ru, msg.slot));
        ++stats_.nulls_sent;
      }
      break;
    }
    case FapiMsgType::kUlTtiRequest: {
      send_fapi(active_port, msg);
      ++stats_.requests_forwarded;
      // Every UL_TTI, null or not, gets an indication back.
      if (unanswered_since_ns_ < 0) {
        unanswered_since_ns_ = WallclockPacer::now_ns();
      }
      if (!failed_over_) {
        send_fapi(standby_port, make_null_ul_tti(msg.ru, msg.slot));
        ++stats_.nulls_sent;
      }
      break;
    }
    case FapiMsgType::kConfigRequest:
    case FapiMsgType::kStartRequest:
    case FapiMsgType::kStopRequest: {
      // Lifecycle fans out to both PHYs — the standby stays initialized
      // without an explicit replay in this fixed-pair mode (§6.3).
      send_fapi(active_port, msg);
      if (!failed_over_) {
        send_fapi(standby_port, msg);
      }
      ++stats_.requests_forwarded;
      break;
    }
    default: {
      send_fapi(active_port, msg);
      ++stats_.requests_forwarded;
      break;
    }
  }
}

void RealOrionRelay::handle_phy_indication(std::size_t phy_index,
                                           FapiMessage&& msg) {
  if (phy_index == config_.active) {
    heard_active();
    send_fapi(config_.l2_port, msg);
    ++stats_.indications_forwarded;
    return;
  }
  // Standby chatter (slot indications for its null feed) never reaches
  // the L2 — it must see exactly one PHY (§6.2).
  ++stats_.standby_filtered;
}

void RealOrionRelay::drain_rings() {
  // L2 -> active PHY: TX_DATA payload records move ring-to-ring without
  // a parse — Orion treats SHM payloads as opaque, as the paper's
  // middlebox never touches IQ bytes.
  std::vector<std::uint8_t> record;
  while (l2_to_orion_.pop(record)) {
    orion_to_phy_[config_.active].push(record);
    ++stats_.ring_records_relayed;
  }
  for (std::size_t i = 0; i < phy_to_orion_.size(); ++i) {
    while (phy_to_orion_[i].pop(record)) {
      if (i == config_.active) {
        heard_active();
        orion_to_l2_.push(record);
        ++stats_.ring_records_relayed;
      } else {
        ++stats_.standby_filtered;
      }
    }
  }
}

void RealOrionRelay::heard_active() {
  active_heard_ = true;
  last_active_heard_ns_ = WallclockPacer::now_ns();
  unanswered_since_ns_ = -1;
}

void RealOrionRelay::check_detector() {
  if (failed_over_ || !active_heard_ || unanswered_since_ns_ < 0) {
    return;
  }
  // Lifecycle chatter during the pre-epoch launch lead must not arm the
  // countdown: everyone is deliberately idle until slot 0, and that
  // idle stretch dwarfs any sane detect timeout. The detector runs only
  // once the active PHY has spoken inside the paced window.
  if (last_active_heard_ns_ < config_.pacer.epoch_ns) {
    return;
  }
  const std::int64_t now = WallclockPacer::now_ns();
  if (now > config_.detect_deadline_ns) {
    return;
  }
  const std::int64_t silent_ns = now - unanswered_since_ns_;
  if (silent_ns < config_.detect_timeout_ns) {
    return;
  }
  // Real socket silence exceeded the budget: the wall-clock analogue of
  // the paper's in-switch detection (§5).
  const PhyId dead = active_phy();
  record(EpisodeEventKind::kDetected, dead);
  record(EpisodeEventKind::kFailoverInitiated, dead);
  std::swap(config_.active, config_.standby);
  failed_over_ = true;
  active_heard_ = false;  // re-arm on the new primary's first word
  record(EpisodeEventKind::kSwapFinalized, active_phy());
  SLOG_WARN("real-orion",
            "failover ru=%u dead_phy=%u new_phy=%u after %ld ns of silence",
            unsigned(config_.ru.value()), unsigned(dead.value()),
            unsigned(active_phy().value()), long(silent_ns));
}

}  // namespace slingshot
