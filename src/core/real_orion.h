// Real-deployment Orion relay: the paper's L2<->PHY middlebox (§6.1)
// running against actual sockets and shared memory instead of the
// simulator's Nic/Link fabric.
//
// One RealOrionRelay serves one RU with a fixed primary/standby PHY
// pair. It speaks the same little-endian FAPI wire format as the
// simulator's Orion (fapi/wire.h — one datagram carries exactly one
// serialized FapiMessage), so the two modes are byte-compatible:
//
//   - L2 requests arrive on the relay's UDP endpoint; DL_TTI/UL_TTI are
//     forwarded verbatim to the active PHY while the standby receives
//     null requests for the same slot (§6.2 hot standby). Lifecycle
//     messages (CONFIG/START/STOP) fan out to both, which doubles as
//     the degenerate init replay of §6.3 for this fixed-pair mode.
//   - IQ-heavy TX_DATA rides the L2->Orion SHM ring and is re-pushed
//     onto the active PHY's ring; RX_DATA comes back the same way.
//   - Indications from the active PHY are forwarded up to L2; standby
//     indications (slot indications for nulls) are absorbed.
//
// Failure detection is *wall-clock socket silence*: once the active PHY
// has spoken, leaving a forwarded UL_TTI unanswered (no word on socket
// or ring) for longer than `detect_timeout_ns` declares it dead — the
// real-mode stand-in for the paper's in-switch detector. Silence counts
// only while the L2 keeps asking, so a stall of the whole process (L2
// included) cannot read as one PHY's death. The relay
// then swaps the pair and records an episode ledger (kDetected →
// kFailoverInitiated → kSwapFinalized) whose (kind, ru, phy) sequence
// must match the simulator's ledger for the same scripted fault plan;
// tests/testbed/test_real_testbed.cc enforces that conformance.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"
#include "fapi/fapi.h"
#include "transport/shm_ring.h"
#include "transport/udp_endpoint.h"
#include "transport/wallclock_pacer.h"

namespace slingshot {

enum class EpisodeEventKind : std::uint8_t {
  kDetected = 0,           // active PHY declared dead
  kFailoverInitiated = 1,  // migration toward the standby decided
  kSwapFinalized = 2,      // FAPI routing now targets the new primary
  kStandbyAdopted = 3,     // replacement standby wired in (§6.3)
};

[[nodiscard]] const char* episode_event_name(EpisodeEventKind kind);

struct EpisodeEvent {
  EpisodeEventKind kind = EpisodeEventKind::kDetected;
  RuId ru;
  PhyId phy;              // the PHY the event concerns
  std::int64_t slot = 0;  // wall slot the event happened in
  std::int64_t wall_ns = 0;
};

struct RealOrionConfig {
  RuId ru;
  std::uint16_t l2_port = 0;
  // phy_ports[i] pairs with PhyId{i + 1}, matching the simulator
  // testbed's kPhyA/kPhyB numbering so ledgers align across modes.
  std::vector<std::uint16_t> phy_ports;
  std::size_t active = 0;   // index into phy_ports
  std::size_t standby = 1;  // index into phy_ports
  std::int64_t detect_timeout_ns = 2'000'000;
  // Wall instant past which the detector disarms. A finite run ends
  // with *everyone* going quiet; without this the trailing silence
  // would read as a PHY death. The launcher sets it a few slots before
  // the L2 stops pacing.
  std::int64_t detect_deadline_ns =
      std::numeric_limits<std::int64_t>::max();
  WallclockPacer::Config pacer;  // for wall->slot conversion only
};

struct RealOrionStats {
  std::uint64_t requests_forwarded = 0;   // real DL/UL_TTI to active
  std::uint64_t nulls_sent = 0;           // null TTIs to the standby
  std::uint64_t indications_forwarded = 0;
  std::uint64_t standby_filtered = 0;     // standby indications absorbed
  std::uint64_t ring_records_relayed = 0;
  std::uint64_t parse_errors = 0;
};

class RealOrionRelay {
 public:
  // `endpoint` is the relay's pre-opened socket (owned by the caller,
  // must outlive the relay). Ring handles are plain values into
  // launcher-created shared mappings.
  RealOrionRelay(RealOrionConfig config, UdpEndpoint* endpoint,
                 ShmRing l2_to_orion, ShmRing orion_to_l2,
                 std::vector<ShmRing> orion_to_phy,
                 std::vector<ShmRing> phy_to_orion);

  // One scheduling quantum: receive every queued datagram (waiting up
  // to timeout_ms for the first), drain every ring, then run the
  // silence detector, so an answer queued behind other datagrams is
  // seen before silence is judged. The role loop calls this until the
  // run ends.
  void poll_once(int timeout_ms);

  [[nodiscard]] PhyId active_phy() const {
    return PhyId{std::uint8_t(config_.active + 1)};
  }
  [[nodiscard]] const std::vector<EpisodeEvent>& ledger() const {
    return ledger_;
  }
  [[nodiscard]] const RealOrionStats& stats() const { return stats_; }

 private:
  void handle_datagram(std::uint16_t from_port,
                       std::span<const std::uint8_t> bytes);
  void handle_l2_request(FapiMessage&& msg);
  void handle_phy_indication(std::size_t phy_index, FapiMessage&& msg);
  void drain_rings();
  void check_detector();
  void heard_active();
  void send_fapi(std::uint16_t port, const FapiMessage& msg);
  [[nodiscard]] std::size_t phy_index_for_port(std::uint16_t port) const;
  void record(EpisodeEventKind kind, PhyId phy);
  [[nodiscard]] std::int64_t wall_slot() const;

  RealOrionConfig config_;
  UdpEndpoint* endpoint_;
  ShmRing l2_to_orion_;
  ShmRing orion_to_l2_;
  std::vector<ShmRing> orion_to_phy_;
  std::vector<ShmRing> phy_to_orion_;

  RealOrionStats stats_;
  std::vector<EpisodeEvent> ledger_;
  // Detector state: the active PHY is armed once it has produced any
  // traffic, and silence is measured from the oldest UL_TTI forwarded to
  // it since it last spoke (-1: none outstanding).
  bool active_heard_ = false;
  std::int64_t last_active_heard_ns_ = 0;
  std::int64_t unanswered_since_ns_ = -1;
  bool failed_over_ = false;  // fixed pair: at most one failover
  std::vector<std::uint8_t> rx_scratch_;
  std::vector<std::uint8_t> wire_scratch_;
};

}  // namespace slingshot
