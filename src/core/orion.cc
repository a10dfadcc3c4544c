#include "core/orion.h"

#include <algorithm>

#include "common/log.h"
#include "common/pool.h"
#include "obs/obs.h"

namespace slingshot {

// ---------------------------------------------------------------------
// OrionPhySide
// ---------------------------------------------------------------------

OrionPhySide::OrionPhySide(Simulator& sim, std::string name, Nic& nic,
                           OrionCostModel costs)
    : sim_(sim),
      name_(std::move(name)),
      nic_(nic),
      costs_(costs),
      jitter_rng_(sim.rng().stream("orion.phy." + name_)) {
  nic_.set_rx_handler([this](Packet&& f) { handle_frame(std::move(f)); });
}

void OrionPhySide::handle_frame(Packet&& frame) {
  if (frame.eth.ethertype != EtherType::kFapiTransport || to_phy_ == nullptr) {
    return;
  }
  // Network -> SHM relay toward the local PHY, with forwarding cost.
  const auto delay = costs_.sample(frame.payload.size(), jitter_rng_);
  sim_.after(delay, [this, payload = std::move(frame.payload)]() mutable {
    if (to_phy_ == nullptr) {
      return;
    }
    FapiMessage msg;
    const char* error = nullptr;
    if (try_parse_fapi(payload, msg, &error)) {
      deliver_to_phy(std::move(msg));
    } else {
      // Corrupt datagram: surface it as an ERROR.indication toward the
      // L2 (the request itself is unrecoverable; the loss watchdog
      // plugs the slot hole with nulls so the PHY contract holds).
      ++parse_errors_;
      SLOG_WARN("orion", "%s dropped unparseable FAPI datagram: %s",
                name_.c_str(), error);
      on_fapi(FapiMessage{RuId{}, 0,
                          ErrorIndication{kFapiMsgCorrupt,
                                          FapiMsgType::kErrorIndication}});
    }
    BufferPools::instance().bytes.release(std::move(payload));
  });
}

void OrionPhySide::deliver_to_phy(FapiMessage&& msg) {
  // Track the request stream per RU for §6.1 loss compensation, and arm
  // the per-slot watchdog once real traffic starts.
  const auto type = msg.type();
  if (type == FapiMsgType::kDlTtiRequest ||
      type == FapiMsgType::kUlTtiRequest) {
    const bool is_dl = type == FapiMsgType::kDlTtiRequest;
    auto& track = loss_tracks_[msg.ru.value()];
    std::int64_t& last = is_dl ? track.last_dl : track.last_ul;
    // A request that leapfrogs the expected slot reveals a hole right
    // away (the lost datagram carried the slots in between): plug it
    // now rather than waiting for the watchdog. Only this stream's
    // holes — the other type may have arrived fine.
    if (null_on_loss_ && last >= 0 && msg.slot > last + 1) {
      int plugged = 0;
      for (std::int64_t s = last + 1; s < msg.slot && plugged < 8;
           ++s, ++plugged) {
        ++(is_dl ? nulls_injected_dl_ : nulls_injected_ul_);
        ++to_phy_count_;
        to_phy_->send(is_dl ? make_null_dl_tti(msg.ru, s)
                            : make_null_ul_tti(msg.ru, s));
      }
    }
    last = std::max(last, msg.slot);
    track.last_real = std::max(track.last_real, slots_.slot_at(sim_.now()));
    if (null_on_loss_ && !watchdog_.valid()) {
      const Nanos first =
          slots_.slot_start(slots_.next_slot_after(sim_.now()));
      watchdog_ = sim_.every(first, slots_.slot_duration,
                             [this] { on_slot_watchdog(); });
    }
  }
  ++to_phy_count_;
  to_phy_->send(std::move(msg));
}

void OrionPhySide::on_slot_watchdog() {
  if (!null_on_loss_ || to_phy_ == nullptr) {
    return;
  }
  // At the start of slot s, requests for s (sent by the L2 a couple of
  // slots ago) must already have arrived. If the stream has a hole —
  // a lost datagram — plug it with null requests so the PHY keeps its
  // every-slot contract.
  const auto current = slots_.slot_at(sim_.now());
  for (auto& [ru, track] : loss_tracks_) {
    // Plug at most a handful of consecutive slots, and only while real
    // requests keep arriving: this compensates for rare datagram loss,
    // not for a dead L2 (whose failure is detected by its own missing
    // per-TTI packet stream and handled elsewhere).
    if (current - track.last_real > 16) {
      continue;
    }
    const auto plug = [&](std::int64_t& last, bool dl) {
      if (last < 0) {
        return;
      }
      int plugged = 0;
      while (last < current && plugged < 8) {
        ++last;
        ++plugged;
        ++(dl ? nulls_injected_dl_ : nulls_injected_ul_);
        ++to_phy_count_;
        to_phy_->send(dl ? make_null_dl_tti(RuId{ru}, last)
                         : make_null_ul_tti(RuId{ru}, last));
      }
    };
    plug(track.last_dl, true);
    plug(track.last_ul, false);
  }
}

void OrionPhySide::on_fapi(FapiMessage&& msg) {
  // SHM -> network relay of PHY indications toward the L2-side Orion.
  if (l2_orion_mac_.bits() == 0) {
    return;
  }
  auto payload = BufferPools::instance().bytes.acquire();
  serialize_fapi_into(msg, payload);
  const auto delay = costs_.sample(payload.size(), jitter_rng_);
  sim_.after(delay, [this, p = std::move(payload)]() mutable {
    Packet frame;
    frame.eth.dst = l2_orion_mac_;
    frame.eth.ethertype = EtherType::kFapiTransport;
    frame.payload = std::move(p);
    ++to_l2_count_;
    nic_.send(std::move(frame));
  });
}

// ---------------------------------------------------------------------
// OrionL2Side: the core's simulator adapter
// ---------------------------------------------------------------------

OrionL2Side::OrionL2Side(Simulator& sim, std::string name, Nic& nic,
                         OrionL2Config config)
    : OrionCore(*this, name, config),
      sim_(sim),
      nic_(nic),
      costs_(config.costs),
      switch_cmd_mac_(config.switch_cmd_mac),
      jitter_rng_(sim.rng().stream("orion.l2." + name)) {
  nic_.set_rx_handler([this](Packet&& f) { handle_frame(std::move(f)); });
}

void OrionL2Side::to_phy(PhyId phy, const FapiMessage& msg) {
  const auto peer = phy_peers_.find(phy.value());
  if (peer == phy_peers_.end()) {
    return;
  }
  auto payload = BufferPools::instance().bytes.acquire();
  serialize_fapi_into(msg, payload);
  const auto delay = costs_.sample(payload.size(), jitter_rng_);
  const MacAddr dst = peer->second;
  sim_.after(delay, [this, dst, p = std::move(payload)]() mutable {
    Packet frame;
    frame.eth.dst = dst;
    frame.eth.ethertype = EtherType::kFapiTransport;
    frame.payload = std::move(p);
    nic_.send(std::move(frame));
  });
}

void OrionL2Side::to_l2(FapiMessage&& msg) {
  if (to_l2_ != nullptr) {
    to_l2_->send(std::move(msg));
  }
}

void OrionL2Side::to_switch(std::vector<std::uint8_t>&& cmd, Nanos delay) {
  Packet frame;
  frame.eth.dst = switch_cmd_mac_;
  frame.eth.ethertype = EtherType::kSlingshotCmd;
  frame.payload = std::move(cmd);
  if (delay > 0) {
    sim_.after(delay, [this, f = std::move(frame)]() mutable {
      nic_.send(std::move(f));
    });
  } else {
    nic_.send(std::move(frame));
  }
}

void OrionL2Side::handle_frame(Packet&& frame) {
  if (frame.eth.ethertype == EtherType::kFailureNotify) {
    if (!frame.payload.empty()) {
      on_failure_notification(PhyId{frame.payload[0]});
    }
    return;
  }
  if (frame.eth.ethertype != EtherType::kFapiTransport) {
    return;
  }
  // Identify the sending PHY by its Orion peer MAC.
  const auto peer = std::find_if(
      phy_peers_.begin(), phy_peers_.end(),
      [&](const auto& entry) { return entry.second == frame.eth.src; });
  if (peer == phy_peers_.end()) {
    return;
  }
  const PhyId from{peer->first};
  FapiMessage msg;
  const char* error = nullptr;
  if (!try_parse_fapi(frame.payload, msg, &error)) {
    on_parse_error(from, error);
  } else if (to_l2_ != nullptr) {
    on_phy_indication(from, std::move(msg));
  }
  BufferPools::instance().bytes.release(std::move(frame.payload));
}

}  // namespace slingshot
