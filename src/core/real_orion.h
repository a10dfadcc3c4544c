// Real-deployment Orion relay (§6.1): OrionCore's adapter for actual
// sockets and shared memory. It makes no decision of its own: it parses
// the FAPI wire format (fapi/wire.h, one message per datagram), hands
// L2 requests, tagged PHY indications and its detector's failure
// notifications to the core, and sends whatever the core emits. PHY 1
// is the cell's primary and every other PHY joins the core's standby
// pool; the shared EpisodeLedger records the episodes, so a real run
// and a simulator run of the same kill plan conform by construction.
// IQ-heavy TX_DATA/RX_DATA ride SHM rings to and from the core's
// current active PHY, unparsed.
//
// Failure detection is progress-relative socket silence, the stand-in
// for the in-switch detector: the active PHY is dead only once a UL_TTI
// forwarded to it has gone unanswered (socket and ring) for
// detect_timeout_ns of wall time *and* the L2 has since forwarded
// UL_TTIs for ceil(detect_timeout_ns / tti_ns) later slots. A stall of
// the whole process, L2 included, makes no slot progress and so cannot
// read as one PHY's death.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/orion_core.h"
#include "transport/shm_ring.h"
#include "transport/udp_endpoint.h"
#include "transport/wallclock_pacer.h"

namespace slingshot {

struct RealOrionConfig {
  RuId ru;
  std::uint16_t l2_port = 0;
  // phy_ports[i] pairs with PhyId{i + 1}, matching the simulator
  // testbed's numbering so ledgers align across modes.
  std::vector<std::uint16_t> phy_ports;
  std::int64_t detect_timeout_ns = 2'000'000;
  // Wall instant past which the detector disarms. A finite run ends
  // with *everyone* going quiet; without this the trailing silence
  // would read as a PHY death. The launcher sets it a few slots before
  // the L2 stops pacing.
  std::int64_t detect_deadline_ns =
      std::numeric_limits<std::int64_t>::max();
  WallclockPacer::Config pacer;  // the core's clock and slot length
};

class RealOrionRelay final : private OrionPort {
 public:
  // `endpoint` is the relay's pre-opened socket (owned by the caller,
  // must outlive the relay). Ring handles are plain values into
  // launcher-created shared mappings.
  RealOrionRelay(RealOrionConfig config, UdpEndpoint* endpoint,
                 ShmRing l2_to_orion, ShmRing orion_to_l2,
                 std::vector<ShmRing> orion_to_phy,
                 std::vector<ShmRing> phy_to_orion);
  // The core holds this relay as its port: no copies.
  RealOrionRelay(const RealOrionRelay&) = delete;
  RealOrionRelay& operator=(const RealOrionRelay&) = delete;

  // One scheduling quantum: receive every queued datagram (waiting up
  // to timeout_ms for the first), drain every ring, then run the
  // silence detector, so an answer queued behind other datagrams is
  // seen before silence is judged. The role loop calls this until the
  // run ends.
  void poll_once(int timeout_ms);

  [[nodiscard]] PhyId active_phy() const {
    return core_.active_phy(config_.ru);
  }
  [[nodiscard]] const OrionCore& core() const { return core_; }
  [[nodiscard]] const std::vector<EpisodeEvent>& ledger() const {
    return ledger_.events();
  }

 private:
  // OrionPort: wall ns since the pacing epoch; no switch in real mode.
  [[nodiscard]] Nanos now() const override {
    return WallclockPacer::now_ns() - config_.pacer.epoch_ns;
  }
  void to_phy(PhyId phy, const FapiMessage& msg) override;
  void to_l2(FapiMessage&& msg) override;
  void to_switch(std::vector<std::uint8_t>&& /*cmd*/,
                 Nanos /*delay*/) override {}

  void handle_datagram(std::uint16_t from_port,
                       std::span<const std::uint8_t> bytes);
  void drain_rings();
  // Detector bookkeeping, all relative to the core's active PHY.
  void watch(PhyId active);
  void heard(PhyId phy);
  void check_detector();

  RealOrionConfig config_;
  UdpEndpoint* endpoint_;
  ShmRing l2_to_orion_;
  ShmRing orion_to_l2_;
  std::vector<ShmRing> orion_to_phy_;
  std::vector<ShmRing> phy_to_orion_;
  OrionCore core_;
  EpisodeLedger ledger_{core_};

  // Detector state for `watched_` (the active PHY): armed once it has
  // spoken inside the paced window; silence is measured from the oldest
  // UL_TTI forwarded to it since it last spoke (-1: none outstanding),
  // and L2 progress from that UL_TTI's slot to the latest one forwarded.
  PhyId watched_;
  bool armed_ = false;
  std::int64_t unanswered_since_ns_ = -1;
  std::int64_t unanswered_slot_ = -1;
  std::int64_t latest_ul_slot_ = -1;
  std::vector<std::uint8_t> rx_scratch_;
  std::vector<std::uint8_t> wire_scratch_;
  std::vector<std::uint8_t> record_scratch_;
};

}  // namespace slingshot
