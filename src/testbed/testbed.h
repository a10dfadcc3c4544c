// The full vRAN testbed, mirroring the paper's §8 setup: N radio units
// with attached UEs, M PHY servers, a separate L2 server, an
// application server behind the core, and a programmable edge switch
// connecting everything — with Slingshot's fronthaul middlebox and
// Orion deployed (or not, for the baselines).
//
// Modes:
//  * kSlingshot        — fully decoupled (L2 and PHYs on different
//                        servers), Orion + in-switch middlebox active.
//  * kCoupledNoOrion   — L2 talks SHM directly to the primary PHY; no
//                        middlebox intelligence needed (the "without
//                        Orion" comparison of §8.7).
//  * kBaselineFailover — two independent full vRAN stacks (L2+PHY);
//                        on primary-PHY failure the fronthaul is
//                        re-routed to the backup stack, but the UE must
//                        re-attach from scratch (§8.1's 6.2 s outage).
//
// Scale: every testbed is N cells × M PHYs. The first N PHYs are the
// cells' dedicated primaries and the remainder form Orion's *shared
// standby pool* (the paper's deployment note: secondaries need no
// dedicated servers). The single-cell shorthand (num_ues,
// ue_mean_snr_db, bulk_ues) is one cell backed by standby_pool_size
// standbys — by default PHY-A primary, PHY-B standby, the pair the
// golden traces pin (tests/testbed/test_golden_trace.cc).
#pragma once

#include <memory>
#include <vector>

#include "baseline/precopy.h"
#include "channel/channel.h"
#include "common/log.h"
#include "core/fh_mbox.h"
#include "core/orion.h"
#include "fapi/channel.h"
#include "l2/l2.h"
#include "net/cross_traffic.h"
#include "net/frer.h"
#include "net/nic.h"
#include "net/timesync.h"
#include "phy/phy.h"
#include "ru/ru.h"
#include "sim/simulator.h"
#include "switchsim/pswitch.h"
#include "transport/gateway.h"
#include "transport/pipe.h"
#include "ue/ue.h"
#include "ue/ue_batch.h"

namespace slingshot {

namespace obs {
class Observability;
struct ObservabilityConfig;
}  // namespace obs

enum class TestbedMode { kSlingshot, kCoupledNoOrion, kBaselineFailover };

// Per-cell spec for multi-cell scale-out configurations.
struct CellSpec {
  int num_ues = 1;
  std::vector<double> ue_mean_snr_db;  // per-UE; default 20 dB
  // Massive-UE mode: additional batched UEs served by one SoA UeBatch
  // (src/ue/ue_batch.h) alongside the individually-modeled tracer UEs
  // above. 0 = no batch.
  int bulk_ues = 0;
};

// Realistic-fabric layer (tentpole of the fronthaul-fabric PR). Every
// default is inert: with this struct untouched the testbed's event
// sequence is bit-identical to the ideal fabric (pinned by the golden
// traces). Link-level knobs (finite queues, tx-time model, bandwidth)
// live in TestbedConfig::link.
struct FabricConfig {
  // Background cross-traffic: long-run offered load (fraction of link
  // rate) injected on every PHY server's egress link. 0 = off.
  double cross_traffic_load = 0.0;
  std::uint32_t cross_frame_bytes = 1500;
  std::uint32_t cross_burst_frames = 64;
  // gPTP-style per-node clock error (switch tick train + NIC
  // timestamps). Default = perfectly synchronized.
  TimeSyncConfig sync{};
  // FRER-style redundant streams (802.1CB): replicate eCPRI over a
  // second, disjoint switch plane and eliminate duplicates in front of
  // each RU/PHY.
  bool frer = false;
  FrerEliminatorConfig frer_elim{};
  // Arm the in-switch failure detector in start(). FRER runs disable it
  // to measure pure replication (no failover) resilience.
  bool arm_detector = true;
};

struct TestbedConfig {
  std::uint64_t seed = 1;
  TestbedMode mode = TestbedMode::kSlingshot;
  // Single-cell shorthand, used when `cells` is empty.
  int num_ues = 1;
  std::vector<double> ue_mean_snr_db;  // per-UE; default 20 dB

  // ---- Cells (kSlingshot mode) ----
  // Cell c gets RuId{c+1}, UE ids 100*c+1.., and PHY index c
  // (PhyId{c+1}) as its dedicated primary. PHYs beyond the cell count
  // join Orion's shared standby pool. Empty: one cell from the
  // shorthand above.
  std::vector<CellSpec> cells;
  // Total PHY processes. 0 derives cells.size() + standby_pool_size;
  // an explicit value is clamped to at least cells.size() (a value of
  // exactly cells.size() means an empty pool: every cell unprotected).
  int num_phys = 0;
  // Shared hot standbys backing all primaries (used when num_phys==0).
  int standby_pool_size = 1;

  // Massive-UE mode, single-cell shorthand: batched UEs added to the
  // one cell (the `cells` form sets CellSpec::bulk_ues per cell instead).
  int bulk_ues = 0;
  // Template for every cell's batch: traffic mix, churn, DL error
  // model. Per-cell fields (schedule.cell, population, seed, fading,
  // supervision timeouts) are filled in by the testbed.
  UeBatchConfig bulk{};

  SlotConfig slots{};
  PhyConfig phy{};
  int secondary_ldpc_iters = 0;  // 0: same as primary (set >0 to model
                                 // an upgraded PHY build, §8.3)
  L2Config l2{};
  UeConfig ue{};
  FadingConfig fading{};
  FhMboxConfig mbox{};
  OrionCostModel orion_costs{};
  StandbyMode standby_mode = StandbyMode::kNullFapi;
  int failover_margin_slots = 2;
  Nanos orion_cmd_extra_delay = 0;   // ablation: control-plane remap
  bool dl_source_filter = true;      // ablation: naive no-filter design
  LinkConfig link{};
  FabricConfig fabric{};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  // Power on all components, start the carrier, attach UEs. After
  // start(), run the simulator for ~50 ms before measuring to let SNR
  // filters and MCS selection settle.
  void start();

  void run_until(Nanos t) { sim_.run_until(t); }
  void run_for(Nanos dt) { sim_.run_until(sim_.now() + dt); }

  // ---- Scenario controls ----
  // Fail-stop a PHY process (the SIGKILL of §8.2).
  void kill_phy(PhyId phy);
  // Legacy alias: fail-stop PHY-A (cell 0's primary).
  void kill_primary_phy() { kill_phy(kPhyA); }
  // Planned migration of the RU to the standby at the slot boundary
  // `lead` slots from now.
  void planned_migration(int lead_slots = 4);
  // Planned migration of a specific RU (multi-RU deployments).
  void planned_migration_of(RuId ru, int lead_slots = 4);
  // ABLATION: planned migration that (incorrectly) moves the fronthaul
  // at a different slot than the FAPI stream — violating the paper's
  // TTI-boundary alignment requirement (§5.1). `skew` of 0 is correct.
  void misaligned_migration(int lead_slots, int fronthaul_skew_slots);
  // ABLATION: migration that oracle-transfers the PHY's soft state
  // (HARQ buffers + SNR filters) instead of discarding it.
  void planned_migration_with_state_transfer(int lead_slots = 4);
  // Restart a dead PHY process and return it to the shared pool: Orion
  // replays the stored initialization sequence for *every* RU the PHY
  // backs (§6.3), re-arms its failure detector, and executes any
  // deferred failovers for unprotected cells.
  void revive_phy_as_standby(PhyId phy);
  // Legacy alias: revive whichever PHY is dead (first by index).
  void revive_dead_phy_as_standby();

  // ---- Component access ----
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }
  [[nodiscard]] int num_cells() const { return int(config_.cells.size()); }
  [[nodiscard]] int num_phys() const { return num_phys_; }
  [[nodiscard]] RuId ru_id(int cell) const {
    return RuId{std::uint8_t(cell + 1)};
  }
  [[nodiscard]] PhyId phy_id(int index) const {
    return PhyId{std::uint8_t(index + 1)};
  }
  // PHY by construction index (0 = A, 1 = B, ...).
  [[nodiscard]] PhyProcess& phy(int index) {
    return *phys_.at(std::size_t(index));
  }
  // PHY by logical id; nullptr if out of range.
  [[nodiscard]] PhyProcess* phy_by_id(PhyId id);
  [[nodiscard]] PhyProcess& phy_a() { return *phys_.at(0); }
  [[nodiscard]] PhyProcess& phy_b() { return *phys_.at(1); }
  [[nodiscard]] L2Process& l2() { return *l2_; }
  [[nodiscard]] L2Process& l2_backup() { return *l2b_; }
  [[nodiscard]] OrionL2Side& orion() { return *orion_l2_; }
  [[nodiscard]] FronthaulMiddlebox& mbox() { return *mbox_; }
  // RU by cell index.
  [[nodiscard]] RadioUnit& ru_at(int cell) {
    return *rus_.at(std::size_t(cell));
  }
  [[nodiscard]] RadioUnit& ru() { return *rus_.at(0); }
  // UE by global index (cells in order; within a cell, attach order).
  [[nodiscard]] UserEquipment& ue(int i) { return *ues_.at(std::size_t(i)); }
  // Cell index serving UE i.
  [[nodiscard]] int ue_cell(int i) const {
    return ue_cell_.at(std::size_t(i));
  }
  // Cell c's massive-UE batch; nullptr when the cell has none.
  [[nodiscard]] UeBatch* batch_at(int cell) {
    return batches_.at(std::size_t(cell)).get();
  }
  [[nodiscard]] ProgrammableSwitch& fabric() { return *switch_; }
  // FRER plane-B switch; null unless config.fabric.frer.
  [[nodiscard]] ProgrammableSwitch* fabric_b() { return switch_b_.get(); }

  // ---- Fabric link access (fault plans: cable pulls, lossy links) ----
  // Plane-A link between a station and the switch.
  [[nodiscard]] Link& ru_link(int cell) {
    return *ru_links_.at(std::size_t(cell));
  }
  [[nodiscard]] Link& phy_link(int index) {
    return *phy_links_.at(std::size_t(index));
  }
  // Plane-B counterparts; null unless config.fabric.frer.
  [[nodiscard]] Link* ru_link_b(int cell) {
    return cell < int(ru_links_b_.size()) ? ru_links_b_[std::size_t(cell)]
                                          : nullptr;
  }
  [[nodiscard]] Link* phy_link_b(int index) {
    return index < int(phy_links_b_.size()) ? phy_links_b_[std::size_t(index)]
                                            : nullptr;
  }

  // Aggregate FRER replication/elimination counters over every
  // protected station (all-zero when FRER is off).
  struct FrerTotals {
    std::uint64_t frames_replicated = 0;
    std::uint64_t bytes_replicated = 0;
    std::uint64_t passed = 0;
    std::uint64_t duplicates_eliminated = 0;
    std::uint64_t stale_discarded = 0;
    std::uint64_t rogue_discarded = 0;
    std::uint64_t recovery_resets = 0;
  };
  [[nodiscard]] FrerTotals frer_totals() const;
  [[nodiscard]] std::uint64_t cross_traffic_frames() const;
  [[nodiscard]] std::uint64_t cross_traffic_bytes() const;
  // Worst clock offset any fabric node has exhibited so far (0 with a
  // perfectly synchronized fabric).
  [[nodiscard]] Nanos sync_max_abs_offset_seen() const;

  // ---- Fault-injection and invariant-checker access (src/inject) ----
  // NIC handles for installing packet interceptors. Valid after
  // construction in every mode.
  [[nodiscard]] Nic& ru_nic() { return *ru_nics_.at(0); }
  [[nodiscard]] Nic& ru_nic_at(int cell) {
    return *ru_nics_.at(std::size_t(cell));
  }
  [[nodiscard]] Nic& phy_nic(int index) {
    return *phy_nics_.at(std::size_t(index));
  }
  [[nodiscard]] Nic& phy_a_nic() { return *phy_nics_.at(0); }
  [[nodiscard]] Nic& phy_b_nic() { return *phy_nics_.at(1); }
  [[nodiscard]] Nic& orion_a_nic() { return *orion_phy_nics_.at(0); }
  [[nodiscard]] Nic& orion_b_nic() { return *orion_phy_nics_.at(1); }
  [[nodiscard]] Nic& orion_l2_nic() { return *orion_l2_nic_; }
  // PHY-side Orions (kSlingshot mode only).
  [[nodiscard]] OrionPhySide& orion_phy(int index) {
    return *orion_phys_.at(std::size_t(index));
  }
  // FAPI pipes feeding the PHYs / the L2; null in modes without them.
  [[nodiscard]] ShmFapiPipe* pipe_to_phy(int index) {
    return index < int(to_phy_pipes_.size())
               ? to_phy_pipes_[std::size_t(index)].get()
               : nullptr;
  }
  [[nodiscard]] ShmFapiPipe* pipe_to_l2() { return mbx_to_l2_.get(); }

  // ---- Traffic endpoints ----
  // Server-side pipe (app server) and UE-side pipe for UE i.
  [[nodiscard]] DatagramPipe& server_pipe(int i);
  [[nodiscard]] DatagramPipe& ue_pipe(int i) {
    return *ue_pipes_.at(std::size_t(i));
  }

  // Time the L2-side Orion learned about the last failover (for §8.2
  // detection-latency measurements); 0 if none.
  [[nodiscard]] Nanos last_failover_notification() const;

  // ---- Observability (src/obs) ----
  // Tracer/registry configuration matching this testbed's numerology
  // (slot duration, UL pipeline depth). Build an obs::Observability from
  // this, then attach it.
  [[nodiscard]] obs::ObservabilityConfig obs_config() const;
  // Hook the bundle into the simulator anchor, bind switch counters, and
  // register gauge samplers over the component stats structs. The bundle
  // must outlive the run; the Testbed destructor freezes sampler gauges
  // so a longer-lived bundle never dereferences dead components.
  void attach_observability(obs::Observability& o);

  static constexpr RuId kRu{1};
  static constexpr PhyId kPhyA{1};
  static constexpr PhyId kPhyB{2};

 private:
  void build_fabric();
  void build_fabric_plane_b();
  void build_vran();
  void wire_slingshot();
  void wire_coupled();
  void wire_baseline();

  TestbedConfig config_;
  Simulator sim_;
  // Declared after sim_ so its destructor (which uninstalls the log time
  // source capturing sim_) runs before sim_ is torn down.
  ScopedLogTimeSource log_time_;
  obs::Observability* obs_ = nullptr;

  int num_phys_ = 2;

  // Fabric.
  std::unique_ptr<ProgrammableSwitch> switch_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<Link*> ru_links_;   // plane-A link per cell
  std::vector<Link*> phy_links_;  // plane-A link per PHY index
  // Realistic-fabric layer (empty/null at default FabricConfig).
  std::unique_ptr<ProgrammableSwitch> switch_b_;  // FRER plane B
  std::shared_ptr<FronthaulMiddlebox> mbox_b_;
  std::vector<std::unique_ptr<Link>> links_b_;
  std::vector<Link*> ru_links_b_;
  std::vector<Link*> phy_links_b_;
  std::vector<std::unique_ptr<FrerEliminator>> eliminators_;
  std::vector<std::unique_ptr<FrerReplicator>> replicators_;
  std::vector<std::unique_ptr<TimeSyncNode>> sync_nodes_;
  std::vector<std::unique_ptr<CrossTrafficInjector>> injectors_;
  std::vector<Nic*> ru_nics_;
  std::vector<Nic*> phy_nics_;
  std::vector<Nic*> orion_phy_nics_;
  Nic* orion_l2_nic_ = nullptr;
  Nic* app_nic_ = nullptr;
  Nic* l2_gw_nic_ = nullptr;
  Nic* l2b_gw_nic_ = nullptr;
  Nic* baseline_ctl_nic_ = nullptr;

  std::shared_ptr<FronthaulMiddlebox> mbox_;

  // vRAN processes.
  std::vector<std::unique_ptr<PhyProcess>> phys_;
  std::unique_ptr<L2Process> l2_;
  std::unique_ptr<L2Process> l2b_;  // baseline backup stack
  std::vector<std::unique_ptr<OrionPhySide>> orion_phys_;
  std::unique_ptr<OrionL2Side> orion_l2_;

  // FAPI pipes.
  std::unique_ptr<ShmFapiPipe> l2_to_mbx_;     // L2 -> Orion/PHY
  std::unique_ptr<ShmFapiPipe> mbx_to_l2_;     // Orion/PHY -> L2
  std::vector<std::unique_ptr<ShmFapiPipe>> to_phy_pipes_;   // Orion-p -> PHY-p
  std::vector<std::unique_ptr<ShmFapiPipe>> phy_out_pipes_;  // PHY-p -> Orion-p
  std::unique_ptr<ShmFapiPipe> l2b_to_phy_b_;  // baseline backup stack
  std::unique_ptr<ShmFapiPipe> phy_b_to_l2b_;

  // Radio side.
  std::vector<std::unique_ptr<RadioUnit>> rus_;
  std::vector<std::unique_ptr<UserEquipment>> ues_;
  // One optional batch per cell (parallel to rus_).
  std::vector<std::unique_ptr<UeBatch>> batches_;
  std::vector<int> ue_cell_;  // cell index per UE (parallel to ues_)
  std::vector<std::unique_ptr<FunctionPipe>> ue_pipes_;

  // User plane.
  std::unique_ptr<AppServer> app_server_;
  std::unique_ptr<L2UserGateway> l2_gw_;
  std::unique_ptr<L2UserGateway> l2b_gw_;

  // Baseline failover controller state.
  bool baseline_failed_over_ = false;
  Nanos baseline_notify_time_ = 0;
};

}  // namespace slingshot
