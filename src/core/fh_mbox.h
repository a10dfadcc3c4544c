// Slingshot's in-switch fronthaul middlebox (§5) + realtime PHY failure
// detector (§5.2), expressed as a dataplane program over the
// programmable-switch primitives (match-action tables, registers,
// packet generator) — structurally the paper's P4 implementation (§7).
//
// Data structures (Fig 5):
//  * ID directory        — match-action table: RU MAC -> RU id, and
//                          PHY MAC -> PHY id (control-plane populated at
//                          installation time).
//  * Address directory   — match-action table: PHY id -> PHY MAC and
//                          RU id -> RU MAC.
//  * RU-to-PHY mapping   — data-plane register array indexed by RU id
//                          (match-action tables can't be updated at
//                          line rate; registers can).
//  * Migration request store — register array of pending
//                          migrate_on_slot commands per RU.
//  * Failure counters    — per-PHY registers driven by the switch
//                          packet generator (n ticks per timeout T).
//
// Per-packet logic:
//  * Uplink fronthaul (RU -> virtual PHY address): resolve the RU id,
//    execute any matured migration request at the TTI boundary, then
//    rewrite the destination to the *current* primary PHY's MAC.
//  * Downlink fronthaul (PHY -> RU): reset the source PHY's failure
//    counter (natural heartbeat), execute matured migration requests,
//    and forward only if the source is the RU's active PHY — blocking
//    the hot standby's control plane from reaching the RU.
//  * migrate_on_slot command packets from Orion are absorbed into the
//    migration request store entirely in the data plane (no
//    millisecond-scale control-plane rule update on the critical path).
//  * Generator packets increment every tracked PHY's counter; a counter
//    reaching n re-formats the packet into a failure notification sent
//    to that PHY's L2-side Orion.
//
// The counters are evaluated lazily. Each watch keeps the generator tick
// of its last reset, so its counter reads ticks_through(now) − reset.
// The middlebox asks the switch for one generator packet, at the
// earliest tick where an armed counter can reach n; that packet
// re-checks every tracked PHY and asks for the next one. Detection
// instants, notification order and counts are those of a per-tick loop
// (DESIGN §5.2 gives the equivalence argument).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.h"
#include "fronthaul/oran.h"
#include "switchsim/pswitch.h"
#include "switchsim/tables.h"

namespace slingshot {

// Command opcodes carried in the first byte of kSlingshotCmd payloads.
inline constexpr std::uint8_t kCmdOpMigrateOnSlot = 0;
inline constexpr std::uint8_t kCmdOpUnwatchPhy = 1;
inline constexpr std::uint8_t kCmdOpWatchPhy = 2;

// migrate_on_slot command payload (EtherType kSlingshotCmd, opcode 0).
struct MigrateOnSlotCmd {
  RuId ru;
  PhyId dest_phy;
  SlotPoint slot;  // first slot served by dest_phy
};
[[nodiscard]] std::vector<std::uint8_t> serialize_migrate_cmd(
    const MigrateOnSlotCmd& cmd);
[[nodiscard]] MigrateOnSlotCmd parse_migrate_cmd(
    std::span<const std::uint8_t> bytes);

// unwatch_phy command payload (EtherType kSlingshotCmd, opcode 1):
// Orion disarms the in-switch failure detector for a PHY it has already
// failed away from, so stray heartbeats cannot re-trigger detection.
struct UnwatchPhyCmd {
  PhyId phy;
};
[[nodiscard]] std::vector<std::uint8_t> serialize_unwatch_cmd(
    const UnwatchPhyCmd& cmd);

// watch_phy command payload (EtherType kSlingshotCmd, opcode 2): Orion
// (re-)enrolls a PHY in the in-switch failure detector — sent when a
// failover promotes a standby that was previously unwatched. The
// notification target is the command packet's source MAC.
struct WatchPhyCmd {
  PhyId phy;
};
[[nodiscard]] std::vector<std::uint8_t> serialize_watch_cmd(
    const WatchPhyCmd& cmd);

// Failure notification payload (EtherType kFailureNotify).
struct FailureNotification {
  PhyId phy;
};

struct FhMboxConfig {
  // Failure detector: timeout T split into n generator ticks (§5.2.2).
  Nanos detector_timeout = 450'000;  // 450 µs, chosen from the measured
                                     // 393 µs max inter-packet gap
  int detector_ticks = 50;           // n = 50 -> 9 µs precision
  int max_ids = 256;                 // operator-assigned 8-bit id space
  // Deployment numerology. Boundary comparisons and the wrapped slot
  // number space are derived from this; it must match the Orions'.
  SlotConfig slots{};
};

struct FhMboxStats {
  std::uint64_t ul_forwarded = 0;
  std::uint64_t dl_forwarded = 0;
  std::uint64_t dl_blocked = 0;        // standby/stale-PHY DL packets
  std::uint64_t migrations_executed = 0;
  std::uint64_t commands_received = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t unknown_dropped = 0;
};

// Estimated switch ASIC resource usage for a given deployment size —
// reproduces the paper's §8.6 resource table (calibrated at 256 RUs /
// 256 PHYs).
struct SwitchResourceEstimate {
  double crossbar_pct = 0.0;
  double alu_pct = 0.0;
  double gateway_pct = 0.0;
  double sram_pct = 0.0;
  double hash_bits_pct = 0.0;
};
[[nodiscard]] SwitchResourceEstimate estimate_switch_resources(int num_rus,
                                                               int num_phys);

// Observation tap for the middlebox dataplane (src/inject's
// InvariantChecker attaches here). Pure observer: sees decisions after
// they are made, cannot alter them.
class MboxTap {
 public:
  virtual ~MboxTap() = default;
  // A migrate_on_slot command was absorbed; `boundary_wrapped` is the
  // wrapped slot index the middlebox will trigger on.
  virtual void on_command(const MigrateOnSlotCmd& /*cmd*/,
                          std::int64_t /*boundary_wrapped*/) {}
  virtual void on_unwatch_command(PhyId /*phy*/) {}
  // A matured migration executed on the packet with slot `pkt_wrapped`.
  virtual void on_migration_executed(RuId /*ru*/, PhyId /*dest*/,
                                     std::int64_t /*pkt_wrapped*/,
                                     std::int64_t /*boundary_wrapped*/) {}
  // A downlink fronthaul packet from `src` for `ru` was forwarded or
  // blocked by the DL source filter.
  virtual void on_dl_packet(PhyId /*src*/, RuId /*ru*/,
                            std::int64_t /*pkt_wrapped*/, bool /*forwarded*/) {}
  virtual void on_failure_notify(PhyId /*phy*/) {}
  // Control-plane watch state changed (watch_phy / unwatch_phy).
  virtual void on_watch_changed(PhyId /*phy*/, bool /*watched*/) {}
};

class FronthaulMiddlebox final : public DataplaneProgram {
 public:
  FronthaulMiddlebox(Simulator& sim, FhMboxConfig config);

  // ---- Installation-time configuration (operator-assigned IDs) ----
  void register_ru(RuId id, MacAddr mac);
  void register_phy(PhyId id, MacAddr mac);
  void bind_ru_to_phy(RuId ru, PhyId phy);  // initial mapping
  // Failure detection: watch `phy`; notifications go to `orion_mac`.
  // A direct call counts as running ahead of a generator tick at the
  // same instant, as an event scheduled at least one tick period
  // earlier does (the testbed's watch grace timer). The watch_phy and
  // unwatch_phy command packets run in the pipeline, after that tick.
  void watch_phy(PhyId phy, MacAddr orion_mac);
  void unwatch_phy(PhyId phy);

  // ABLATION: disable the downlink source filter (the check that only
  // the RU's active PHY may reach it). The naive no-filter design lets
  // the hot standby's control plane hit the RU in every slot.
  void set_dl_source_filter(bool enabled) { dl_filter_ = enabled; }

  // Attach an observation tap (invariant checking); nullptr detaches.
  void set_tap(MboxTap* tap) { tap_ = tap; }

  [[nodiscard]] bool phy_watched(PhyId phy) const {
    return std::find(tracked_phys_.begin(), tracked_phys_.end(),
                     phy.value()) != tracked_phys_.end();
  }

  // ---- DataplaneProgram ----
  void on_install(ProgrammableSwitch& sw) override { switch_ = &sw; }
  PipelineVerdict process(Packet& packet, int ingress_port,
                          PipelineContext& ctx) override;
  void on_generator_packet(Packet& packet, PipelineContext& ctx) override;

  // Armed-PHY generator ticks so far: one per tracked, armed PHY per
  // tick, what a per-tick loop would have walked (trace.detector_ticks).
  [[nodiscard]] std::uint64_t armed_ticks();

  // Generator period implied by the config (switch owner starts it).
  [[nodiscard]] Nanos generator_period() const {
    return config_.detector_timeout / config_.detector_ticks;
  }

  [[nodiscard]] PhyId active_phy(RuId ru) const {
    return PhyId{ru_to_phy_.read(ru.value())};
  }
  [[nodiscard]] const FhMboxStats& stats() const { return stats_; }

 private:
  struct MigrationEntry {
    bool valid = false;
    std::uint8_t dest_phy = 0;
    std::int64_t wrapped_slot = 0;  // within the 20480-slot wrap window
  };
  struct WatchEntry {
    bool armed = false;
    MacAddr notify_mac;
  };
  // Where in the generator's tick order a detector call runs.
  enum class TickOrder : std::uint8_t {
    kBeforeTick,  // direct control-plane call
    kAfterTick,   // pipeline (a frame or a command packet)
  };

  // Has this packet's slot reached the migration boundary (wrap-aware)?
  [[nodiscard]] bool slot_reached(std::int64_t pkt_wrapped,
                                  std::int64_t boundary_wrapped) const;
  void maybe_execute_migration(RuId ru, std::int64_t pkt_wrapped);
  // Ticks that have run by now, for a call in `order`.
  [[nodiscard]] std::uint64_t ticks_now(TickOrder order);
  void watch(PhyId phy, MacAddr orion_mac, TickOrder order);
  void unwatch(PhyId phy, TickOrder order);
  // Reset `phy`'s counter at tick `tick`, folding the ticks of an armed
  // interval that ends there into folded_ticks_.
  void reset_counter(std::uint8_t phy, std::uint64_t tick);
  // Make sure a generator packet is due no later than tick `tick`.
  void request_deadline(std::uint64_t tick);

  Simulator& sim_;
  FhMboxConfig config_;
  SlotConfig slots_;
  // Wrapped slot-number space (kFrames x slots_per_frame), numerology-
  // derived: 20480 at the default µ=1, 40960 at µ=2.
  std::int64_t wrap_window_;
  // Match-action tables (control-plane populated, data-plane read).
  MatchActionTable<MacAddr, std::uint8_t> ru_id_directory_;
  MatchActionTable<MacAddr, std::uint8_t> phy_id_directory_;
  MatchActionTable<std::uint8_t, MacAddr> phy_addr_directory_;
  MatchActionTable<std::uint8_t, MacAddr> ru_addr_directory_;
  // Data-plane registers.
  RegisterArray<std::uint8_t> ru_to_phy_;
  RegisterArray<MigrationEntry> migration_store_;
  // Failure counters, kept as the generator tick of each counter's
  // last reset: a counter reads ticks_through(now) − reset.
  RegisterArray<std::uint64_t> counter_reset_tick_;
  std::vector<WatchEntry> watches_;
  std::vector<std::uint8_t> tracked_phys_;  // ids with an active watch
  ProgrammableSwitch* switch_ = nullptr;    // whose generator we count
  std::uint64_t deadline_tick_ = 0;         // 0: no generator packet due
  std::uint64_t folded_ticks_ = 0;          // of closed armed intervals
  bool dl_filter_ = true;
  MboxTap* tap_ = nullptr;
  FhMboxStats stats_;
};

}  // namespace slingshot
