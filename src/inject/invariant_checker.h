// Runtime invariant checking for the Slingshot testbed.
//
// The InvariantChecker taps the L2-side Orion, the in-switch fronthaul
// middlebox, and the SHM FAPI pipes feeding each PHY, and asserts the
// paper's correctness contracts every slot:
//
//  I1  Every live PHY receives at least one UL_TTI and one DL_TTI
//      request (real or null) per slot for each RU it is primary or
//      standby of (§6.2 — FlexRAN crashes otherwise; Slingshot's null
//      requests and §6.1 loss compensation exist to uphold exactly
//      this).
//  I2  At most one PHY's downlink reaches an RU in any TTI (§5.1 DL
//      source filter).
//  I3  Each migrate_on_slot command executes exactly once, at its
//      boundary TTI, and the middlebox's interpretation of the boundary
//      matches the Orion that issued it (TTI-boundary alignment, §5.1).
//  I4  Drained responses from the pre-migration primary are accepted
//      only for slots before the boundary, and only within a bounded
//      window after the swap (Fig 7 pipeline drain).
//  I5  One failover per failure episode: no duplicate failure
//      notifications or duplicate MigrationEvents for a PHY that is
//      already failed, and no notifications for unwatched PHYs.
//  I6  After a failover, no FAPI flows to the failed PHY until it is
//      revived into the pool as a standby (§6.3 init replay) or
//      rehabilitated.
//
// Violations are collected (with simulator timestamps), not thrown, so
// a single soak run reports every breach at once.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/fh_mbox.h"
#include "core/orion.h"
#include "testbed/testbed.h"

namespace slingshot {

struct InvariantViolation {
  Nanos at = 0;
  std::string what;
};

struct InvariantCheckerConfig {
  // A slot's FAPI request counts are finalized this many slots later,
  // covering the L2's send-ahead plus transport and compensation jitter.
  int fapi_grace_slots = 6;
  // Slots a (re)started PHY gets before I1 applies to it.
  int startup_ramp_slots = 8;
  // Max slots after a swap during which drained responses are legal.
  int drain_window_slots = 8;
  // Allowed skew (slots) between a migration's boundary and the TTI it
  // actually executes on. 0 unless the plan drops fronthaul packets.
  int boundary_skew_slots = 0;
  // Slots an orion-side migration may wait for its middlebox command.
  int cmd_grace_slots = 8;
  // FAPI tolerated after a failover before I6 fires: the failed PHY's
  // own Orion keeps plugging nulls until its dead-stream threshold (16
  // slots) trips, which is local, bounded, and by design — I6 is about
  // the L2 side *sustaining* the flow.
  int dead_fapi_grace_slots = 24;
  // Stop recording after this many violations (the count keeps rising).
  std::size_t max_recorded = 64;
};

class InvariantChecker final : public MboxTap, public OrionL2Tap {
 public:
  explicit InvariantChecker(Testbed& testbed, InvariantCheckerConfig config = {});
  ~InvariantChecker() override;

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  [[nodiscard]] bool ok() const { return violation_count_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const {
    return violation_count_;
  }
  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::string report() const;
  // Count of violations whose text contains `needle`.
  [[nodiscard]] std::size_t count_matching(const std::string& needle) const;

  // Loosen I3's execution-skew bound (fronthaul-loss fault plans).
  void allow_boundary_skew(int slots) { config_.boundary_skew_slots = slots; }
  // Slots checked so far (checker ran, not just constructed).
  [[nodiscard]] std::int64_t slots_checked() const { return slots_checked_; }

  // ---- MboxTap ----
  void on_command(const MigrateOnSlotCmd& cmd,
                  std::int64_t boundary_wrapped) override;
  void on_unwatch_command(PhyId phy) override;
  void on_migration_executed(RuId ru, PhyId dest, std::int64_t pkt_wrapped,
                             std::int64_t boundary_wrapped) override;
  void on_dl_packet(PhyId src, RuId ru, std::int64_t pkt_wrapped,
                    bool forwarded) override;
  void on_failure_notify(PhyId phy) override;
  void on_watch_changed(PhyId phy, bool watched) override;

  // ---- OrionL2Tap ----
  void on_indication(PhyId from, const FapiMessage& msg, bool forwarded,
                     bool drained, std::int64_t drain_boundary) override;
  void on_migration(const MigrationEvent& event) override;
  void on_swap_finalized(RuId ru, std::int64_t slot, PhyId new_primary,
                         std::int64_t boundary_slot) override;
  void on_adopt(RuId ru, PhyId phy) override;
  void on_rehabilitate(RuId ru, PhyId phy) override;

 private:
  struct TtiCounts {
    int dl = 0;
    int ul = 0;
  };
  // Orion-side record of an issued migration, awaiting its middlebox
  // command and execution.
  struct PendingMigration {
    RuId ru;
    PhyId dest;
    std::int64_t boundary_slot = 0;
    std::int64_t issued_slot = 0;
    bool command_seen = false;
    bool executed = false;
    bool missing_cmd_reported = false;
    bool missing_exec_reported = false;
  };
  struct PhyTrack {
    bool ever_seen = false;
    bool alive = true;
    std::int64_t alive_since_slot = 0;  // last death->life transition
    std::int64_t dead_since_slot = -1;
    bool failed_episode_open = false;   // failover consumed it, no adopt yet
    std::int64_t episode_swap_slot = -1;
    std::int64_t last_i6_report_slot = -1;  // rate-limit I6 to one per slot
  };

  void on_fapi_to_phy(PhyId phy, const FapiMessage& msg);
  void on_slot_tick();
  void finalize_slot(std::int64_t slot);
  void violation(const std::string& what);
  [[nodiscard]] std::int64_t now_slot() const;
  [[nodiscard]] std::int64_t wrap_window() const;
  PhyTrack& track(PhyId phy) { return phys_[phy.value()]; }

  Testbed& tb_;
  InvariantCheckerConfig config_;
  SlotConfig slots_;
  EventHandle tick_;

  // I1: per-slot FAPI request counts per (phy, ru).
  std::map<std::int64_t, std::map<std::pair<std::uint8_t, std::uint8_t>,
                                  TtiCounts>>
      tti_counts_;
  // First slot each (phy, ru) request stream was observed at.
  std::map<std::pair<std::uint8_t, std::uint8_t>, std::int64_t> first_seen_;
  // Slot since which Orion has assigned each stream's PHY to its RU as
  // primary or standby; -1 while unassigned.
  std::map<std::pair<std::uint8_t, std::uint8_t>, std::int64_t> role_since_;
  std::int64_t finalized_through_ = -1;
  std::int64_t slots_checked_ = 0;

  // I2: forwarded DL source per (ru, unwrapped slot).
  std::map<std::pair<std::uint8_t, std::int64_t>, std::uint8_t> dl_sources_;

  // I3: migrations in flight.
  std::vector<PendingMigration> migrations_;

  // I4: last swap slot per RU.
  std::map<std::uint8_t, std::int64_t> last_swap_slot_;

  // I5/I6: per-PHY liveness + episode state, watch state.
  std::map<std::uint8_t, PhyTrack> phys_;
  std::set<std::uint8_t> watched_;
  std::set<std::uint8_t> watch_known_;  // phys whose watch state we've seen
  std::map<std::uint8_t, std::uint8_t> pending_failover_from_;  // ru -> phy

  std::vector<InvariantViolation> violations_;
  std::uint64_t violation_count_ = 0;
};

}  // namespace slingshot
