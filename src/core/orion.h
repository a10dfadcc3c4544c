// Orion: Slingshot's software middlebox between the L2 and PHY (§6),
// as simulator components.
//
// Orion comes in two halves. The *PHY-side* Orion pairs with a PHY
// process over SHM and relays FAPI to/from the datacenter network using
// a lean stateless UDP-like transport (§6.1). The *L2-side* Orion pairs
// with the L2 and makes every decision: hot standby via null FAPI, init
// interception and replay, migration and failover at a slot boundary,
// and the Fig 7 drain. Those decisions live in the I/O-free OrionCore
// (core/orion_core.h); OrionL2Side below is only its simulator adapter,
// and real mode drives the same core through RealOrionRelay.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/fh_mbox.h"
#include "core/orion_core.h"
#include "fapi/channel.h"
#include "net/nic.h"
#include "sim/simulator.h"

namespace slingshot {

// ---------------------------------------------------------------------
// PHY-side Orion: SHM <-> network relay.
// ---------------------------------------------------------------------
class OrionPhySide final : public FapiSink {
 public:
  OrionPhySide(Simulator& sim, std::string name, Nic& nic,
               OrionCostModel costs = {});

  // SHM pipe toward the local PHY (requests travel through it).
  void connect_phy(ShmFapiPipe* to_phy) { to_phy_ = to_phy; }
  // Where PHY indications are sent on the network (the L2-side Orion).
  void set_l2_orion_mac(MacAddr mac) { l2_orion_mac_ = mac; }

  // §6.1 loss compensation: Orion's transport is stateless and
  // unacknowledged, so when a rare datacenter packet loss swallows a
  // slot's TTI requests, this side injects null requests for the slot —
  // keeping the FAPI every-slot contract intact so the PHY does not
  // crash. On by default.
  void enable_loss_compensation(bool enabled) { null_on_loss_ = enabled; }

  // Slot timing used by the loss-compensation watchdog; must match the
  // deployment's numerology.
  void set_slot_config(SlotConfig slots) { slots_ = slots; }

  // FapiSink: indications arriving from the local PHY over SHM.
  void on_fapi(FapiMessage&& msg) override;

  [[nodiscard]] MacAddr mac() const { return nic_.mac(); }
  [[nodiscard]] std::uint64_t relayed_to_phy() const { return to_phy_count_; }
  [[nodiscard]] std::uint64_t relayed_to_l2() const { return to_l2_count_; }
  // §6.1 loss-compensation nulls, split per request stream (a hole can
  // exist in the DL stream while the UL stream is intact, and vice
  // versa). nulls_injected() stays the aggregate of both.
  [[nodiscard]] std::uint64_t nulls_injected_dl() const {
    return nulls_injected_dl_;
  }
  [[nodiscard]] std::uint64_t nulls_injected_ul() const {
    return nulls_injected_ul_;
  }
  [[nodiscard]] std::uint64_t nulls_injected() const {
    return nulls_injected_dl_ + nulls_injected_ul_;
  }
  // Datagrams that failed try_parse_fapi (each also raised an
  // ERROR.indication toward the L2 and bumped the process-wide
  // fapi.parse_errors counter).
  [[nodiscard]] std::uint64_t parse_errors() const { return parse_errors_; }

 private:
  void handle_frame(Packet&& frame);
  void deliver_to_phy(FapiMessage&& msg);
  void on_slot_watchdog();

  Simulator& sim_;
  std::string name_;
  Nic& nic_;
  OrionCostModel costs_;
  RngStream jitter_rng_;
  ShmFapiPipe* to_phy_ = nullptr;
  MacAddr l2_orion_mac_;
  std::uint64_t to_phy_count_ = 0;
  std::uint64_t to_l2_count_ = 0;

  // Loss compensation (§6.1). DL and UL request streams are tracked
  // separately: a lost datagram carries exactly one message, so a hole
  // can exist in one stream while the other is intact.
  struct RuLossTrack {
    std::int64_t last_dl = -1;    // highest DL_TTI slot seen
    std::int64_t last_ul = -1;    // highest UL_TTI slot seen
    std::int64_t last_real = -1;  // wall slot a real request last arrived
  };
  bool null_on_loss_ = true;
  SlotConfig slots_{};
  EventHandle watchdog_;
  std::map<std::uint8_t, RuLossTrack> loss_tracks_;
  std::uint64_t nulls_injected_dl_ = 0;
  std::uint64_t nulls_injected_ul_ = 0;
  std::uint64_t parse_errors_ = 0;
};

// ---------------------------------------------------------------------
// L2-side Orion, simulator adapter: Nic rx, FAPI framing, the PhyId ->
// peer MAC map and the forwarding-cost model around one OrionCore,
// whose decisions and public API it inherits unchanged.
// ---------------------------------------------------------------------
class OrionL2Side final : private OrionPort,
                          public OrionCore,
                          public FapiSink {
 public:
  OrionL2Side(Simulator& sim, std::string name, Nic& nic,
              OrionL2Config config);
  // The core and the NIC's rx handler hold this adapter: no copies.
  OrionL2Side(const OrionL2Side&) = delete;
  OrionL2Side& operator=(const OrionL2Side&) = delete;

  // ---- Wiring ----
  // SHM pipe toward the local L2 (indications travel through it).
  void connect_l2(ShmFapiPipe* to_l2) { to_l2_ = to_l2; }
  // Register a PHY-side Orion peer.
  void add_phy_peer(PhyId phy, MacAddr orion_mac) {
    phy_peers_[phy.value()] = orion_mac;
  }
  // The core's pool registration (and revive path), registering the
  // peer's MAC first.
  void add_pool_standby(PhyId phy, MacAddr orion_mac) {
    add_phy_peer(phy, orion_mac);
    OrionCore::add_pool_standby(phy);
  }

  // FapiSink: requests arriving from the local L2 over SHM.
  void on_fapi(FapiMessage&& msg) override { on_l2_request(std::move(msg)); }

  [[nodiscard]] MacAddr mac() const { return nic_.mac(); }

 private:
  // OrionPort
  [[nodiscard]] Nanos now() const override { return sim_.now(); }
  [[nodiscard]] obs::Observability* obs() const override {
    return sim_.obs();
  }
  void to_phy(PhyId phy, const FapiMessage& msg) override;
  void to_l2(FapiMessage&& msg) override;
  void to_switch(std::vector<std::uint8_t>&& cmd, Nanos delay) override;

  void handle_frame(Packet&& frame);

  Simulator& sim_;
  Nic& nic_;
  OrionCostModel costs_;
  MacAddr switch_cmd_mac_;
  RngStream jitter_rng_;
  ShmFapiPipe* to_l2_ = nullptr;
  std::map<std::uint8_t, MacAddr> phy_peers_;
};

}  // namespace slingshot
