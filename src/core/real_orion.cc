#include "core/real_orion.h"

#include <algorithm>

#include "common/log.h"

namespace slingshot {

RealOrionRelay::RealOrionRelay(RealOrionConfig config, UdpEndpoint* endpoint,
                               ShmRing l2_to_orion, ShmRing orion_to_l2,
                               std::vector<ShmRing> orion_to_phy,
                               std::vector<ShmRing> phy_to_orion)
    : config_(std::move(config)),
      endpoint_(endpoint),
      l2_to_orion_(l2_to_orion),
      orion_to_l2_(orion_to_l2),
      orion_to_phy_(std::move(orion_to_phy)),
      phy_to_orion_(std::move(phy_to_orion)),
      core_(*this, "real-orion",
            {.slots = {.slot_duration = config_.pacer.tti_ns}}) {
  // One cell: PHY 1 is its primary, every other PHY a pool standby.
  for (std::size_t i = 1; i < config_.phy_ports.size(); ++i) {
    core_.add_pool_standby(PhyId{std::uint8_t(i + 1)});
  }
  core_.set_ru_primary(config_.ru, PhyId{1});
  core_.set_tap(&ledger_);
}

void RealOrionRelay::to_phy(PhyId phy, const FapiMessage& msg) {
  const std::size_t index = std::size_t(phy.value()) - 1;
  if (phy == PhyId{} || index >= config_.phy_ports.size()) {
    return;
  }
  serialize_fapi_into(msg, wire_scratch_);
  endpoint_->send_to(config_.phy_ports[index], wire_scratch_);
  if (msg.type() != FapiMsgType::kUlTtiRequest || phy != active_phy()) {
    return;
  }
  // Every UL_TTI gets an indication back: start (or extend) the count.
  watch(phy);
  latest_ul_slot_ = std::max(latest_ul_slot_, msg.slot);
  if (unanswered_since_ns_ < 0) {
    unanswered_since_ns_ = now();
    unanswered_slot_ = msg.slot;
  }
}

void RealOrionRelay::to_l2(FapiMessage&& msg) {
  serialize_fapi_into(msg, wire_scratch_);
  endpoint_->send_to(config_.l2_port, wire_scratch_);
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
  PhyId from;
  if (from_port != config_.l2_port) {
    const auto it = std::find(config_.phy_ports.begin(),
                              config_.phy_ports.end(), from_port);
    if (it == config_.phy_ports.end()) {
      return;  // unknown senders are dropped: the transport is closed-world
    }
    from = PhyId{std::uint8_t(it - config_.phy_ports.begin() + 1)};
  }
  FapiMessage msg;
  const char* error = nullptr;
  if (!try_parse_fapi(bytes, msg, &error)) {
    core_.on_parse_error(from, error);
  } else if (from == PhyId{}) {
    core_.on_l2_request(std::move(msg));
  } else {
    heard(from);
    core_.on_phy_indication(from, std::move(msg));
  }
}

void RealOrionRelay::drain_rings() {
  // L2 -> active PHY: TX_DATA payload records move ring-to-ring without
  // a parse — Orion treats SHM payloads as opaque, as the paper's
  // middlebox never touches IQ bytes.
  const PhyId active = active_phy();
  const std::size_t a = std::size_t(active.value()) - 1;
  while (l2_to_orion_.pop(record_scratch_)) {
    if (a < orion_to_phy_.size()) {
      orion_to_phy_[a].push(record_scratch_);
    }
  }
  for (std::size_t i = 0; i < phy_to_orion_.size(); ++i) {
    while (phy_to_orion_[i].pop(record_scratch_)) {
      if (i == a) {
        heard(active);
        orion_to_l2_.push(record_scratch_);
      }
    }
  }
}

void RealOrionRelay::watch(PhyId active) {
  if (active != watched_) {
    watched_ = active;
    armed_ = false;
    unanswered_since_ns_ = -1;
  }
}

void RealOrionRelay::heard(PhyId phy) {
  if (phy != active_phy()) {
    return;
  }
  watch(phy);
  // Lifecycle chatter during the pre-epoch launch lead must not arm the
  // detector: everyone is deliberately idle until slot 0, and that idle
  // stretch dwarfs any sane timeout.
  armed_ = armed_ || now() >= 0;
  unanswered_since_ns_ = -1;
}

void RealOrionRelay::check_detector() {
  const PhyId active = active_phy();
  watch(active);
  if (!armed_ || unanswered_since_ns_ < 0 ||
      WallclockPacer::now_ns() > config_.detect_deadline_ns) {
    return;
  }
  const std::int64_t silent_ns = now() - unanswered_since_ns_;
  const std::int64_t tti = config_.pacer.tti_ns;
  const std::int64_t progress_slots = (config_.detect_timeout_ns + tti - 1) / tti;
  if (silent_ns < config_.detect_timeout_ns ||
      latest_ul_slot_ - unanswered_slot_ < progress_slots) {
    return;
  }
  // The PHY stayed silent while the L2 moved on: the wall-clock
  // analogue of the paper's in-switch detection (§5). One notification
  // per silence; the detector re-arms on the next active PHY's word.
  SLOG_WARN("real-orion",
            "ru=%u phy=%u silent for %ld ns over %ld L2 slots: notifying",
            unsigned(config_.ru.value()), unsigned(active.value()),
            long(silent_ns), long(latest_ul_slot_ - unanswered_slot_));
  armed_ = false;
  unanswered_since_ns_ = -1;
  core_.on_failure_notification(active);
}

}  // namespace slingshot
