// Real-process deployment testbed: Orion, each PHY, and the L2 run as
// separate OS processes exchanging the existing FAPI wire format over
// real UDP sockets plus shared-memory rings for the IQ-heavy path, all
// paced by CLOCK_MONOTONIC TTIs instead of the simulator clock. This is
// the repo's answer to the paper's §8 hardware testbed: same protocol
// machinery (fapi/wire.h datagrams, null-FAPI hot standby, episode
// ledger), real kill -9 fault injection, wall-clock detection and
// restoration gaps.
//
// Two modes:
//   * fork mode (default) — the launcher opens every socket and maps
//     every ring *before* fork(), so children inherit the wiring with
//     no rendezvous; roles report results through key=value files in a
//     temp directory; each kill is a literal SIGKILL of that PHY's pid
//     at the scripted wall slot.
//   * inproc mode (--inproc; CI-safe) — the same role loops run as
//     threads of one process; a kill becomes a freeze flag the PHY
//     role observes, which produces the identical external symptom
//     (its socket goes silent, datagrams queue unread).
//
// Conformance by construction: the relay is an adapter around the same
// OrionCore the simulator runs, wired in the same shape (one cell, PHY 1
// primary, the other num_phys - 1 PHYs in its standby pool), and both
// record their episodes through the same EpisodeLedger tap. For one
// kill plan, run_sim_fault_plan() replays it through the simulator
// testbed and ledgers_conform() checks that the two ledgers tell the
// same story. That is what licenses using the simulator's failover
// numbers as predictions for the real mode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/real_orion.h"

namespace slingshot {

// One scripted PHY kill. A kill plan is shared between real and sim
// conformance runs so the two ledgers describe the same experiment.
struct PhyKill {
  std::int64_t slot = 0;  // L2-paced slot of the kill
  std::size_t phy = 0;    // PHY index: PhyId{phy + 1}
};
using PhyKillPlan = std::vector<PhyKill>;  // in slot order; empty = no fault

struct RealTestbedConfig {
  bool inproc = false;            // threads instead of processes
  std::int64_t tti_ns = 500'000;  // µ=1 slot, matching SlotConfig
  std::int64_t run_slots = 400;
  PhyKillPlan kills;
  std::int64_t detect_timeout_ns = 2'000'000;  // 4 slots of silence
  std::size_t num_phys = 2;  // PHY 1 primary, the rest its standby pool
  std::size_t ring_bytes = std::size_t{1} << 16;
};

struct RealRunResult {
  bool ok = false;        // all roles launched, ran, and reported
  bool restored = false;  // CRC flow re-established by run end
  std::int64_t kill_wall_ns = -1;  // CLOCK_MONOTONIC instant of kill 1
  // Wall slots since the epoch: the one kill 1 landed in, and the one
  // in which the L2 sent its final slot's requests (-1 when not run).
  // A kill that lands close to the L2's end leaves the detector no
  // silent slots to count; these tell that from a missed detection.
  std::int64_t kill_slot = -1;
  std::int64_t last_l2_slot = -1;
  // First kDetected wall time minus the first kill's instant (-1 when
  // no fault ran).
  std::int64_t detection_ns = -1;
  // Longest interruption of the L2's CRC-indication flow — the
  // user-visible outage the paper plots in §8.2 (-1 when no fault ran).
  std::int64_t outage_ns = -1;
  std::int64_t max_ind_gap_ns = 0;
  std::uint64_t l2_crcs = 0;
  std::uint64_t l2_rx_records = 0;  // RX_DATA records off the SHM ring
  std::uint64_t l2_error_inds = 0;
  std::uint64_t parse_errors = 0;   // the core's parse_errors
  std::uint64_t pacer_overruns = 0;
  std::int64_t last_crc_slot = -1;
  std::vector<EpisodeEvent> ledger;
  std::string error;  // non-empty iff a launch/collection step failed
};

class RealTestbed {
 public:
  explicit RealTestbed(RealTestbedConfig config) : config_(config) {}

  // Blocking: spawn the roles, execute the fault plan, reap everyone,
  // and assemble the measurements. Safe to call once per instance.
  RealRunResult run();

 private:
  RealTestbedConfig config_;
};

// Run the same kill plan through a simulator testbed of the same shape
// (one cell, num_phys PHYs) and return its EpisodeLedger (sim times are
// virtual; only the (kind, ru, phy) sequence is meaningful for
// conformance).
[[nodiscard]] std::vector<EpisodeEvent> run_sim_fault_plan(
    const PhyKillPlan& plan, std::size_t num_phys = 2);

// True when the two ledgers describe the same episode sequence:
// identical (kind, ru, phy) triples in identical order.
[[nodiscard]] bool ledgers_conform(const std::vector<EpisodeEvent>& lhs,
                                   const std::vector<EpisodeEvent>& rhs);

}  // namespace slingshot
