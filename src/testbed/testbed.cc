#include "testbed/testbed.h"

#include <algorithm>
#include <string>

#include "common/log.h"
#include "common/pool.h"
#include "obs/obs.h"

namespace slingshot {
namespace {

// Station MAC plan for the edge datacenter. PHY/Orion slots 0/1 keep the
// original A/B addresses; extra PHYs extend into ranges chosen so no
// extension collides with them (0x1A01 + p would hit the Orion range at
// p = 16).
constexpr std::uint64_t kRuMac = 0x0A01;
constexpr std::uint64_t kPhyAMac = 0x1A01;
constexpr std::uint64_t kPhyBMac = 0x1B01;
constexpr std::uint64_t kVirtualPhyMac = 0x1F00;  // RUs address this (§5.1)
constexpr std::uint64_t kOrionAMac = 0x2A01;
constexpr std::uint64_t kOrionBMac = 0x2B01;
constexpr std::uint64_t kOrionL2Mac = 0x2C01;
constexpr std::uint64_t kAppServerMac = 0x3A01;
constexpr std::uint64_t kL2GwMac = 0x3B01;
constexpr std::uint64_t kL2bGwMac = 0x3B02;
constexpr std::uint64_t kBaselineCtlMac = 0x3C01;

std::uint64_t ru_mac_for(int cell) { return kRuMac + std::uint64_t(cell); }

std::uint64_t phy_mac_for(int index) {
  if (index == 0) {
    return kPhyAMac;
  }
  if (index == 1) {
    return kPhyBMac;
  }
  return 0x4A01 + std::uint64_t(index);
}

std::uint64_t orion_mac_for(int index) {
  if (index == 0) {
    return kOrionAMac;
  }
  if (index == 1) {
    return kOrionBMac;
  }
  return 0x5A01 + std::uint64_t(index);
}

// Naming keeps the legacy "a"/"b" suffixes for slots 0/1 (component
// names feed name-derived RNG streams — see common/rng.h — so they are
// part of the golden-trace contract).
std::string unit_suffix(int index) {
  if (index == 0) {
    return "a";
  }
  if (index == 1) {
    return "b";
  }
  return std::to_string(index);
}

std::string ru_name_for(int cell) {
  return cell == 0 ? "ru" : "ru" + std::to_string(cell + 1);
}

// UE ids: cell c uses 100*c+1.. (cell 0: 1..).
std::uint16_t ue_base_id(int cell) { return std::uint16_t(100 * cell + 1); }

}  // namespace

Testbed::Testbed(TestbedConfig config) : config_(config), sim_(config.seed) {
  if (config_.ue.grant_starvation_timeout == 0) {
    config_.ue.grant_starvation_timeout = 300_ms;
  }
  // The single-cell shorthand (num_ues, ue_mean_snr_db, bulk_ues) is
  // one cell like any other: a dedicated primary plus the shared pool.
  if (config_.cells.empty()) {
    config_.cells.push_back(
        CellSpec{config_.num_ues, config_.ue_mean_snr_db, config_.bulk_ues});
  }
  const int n = num_cells();
  num_phys_ = config_.num_phys > 0
                  ? config_.num_phys
                  : n + std::max(0, config_.standby_pool_size);
  num_phys_ = std::max(num_phys_, n);

  log_time_.install([this] { return sim_.now(); });
  build_fabric();
  build_vran();
  switch (config_.mode) {
    case TestbedMode::kSlingshot:
      wire_slingshot();
      break;
    case TestbedMode::kCoupledNoOrion:
      wire_coupled();
      break;
    case TestbedMode::kBaselineFailover:
      wire_baseline();
      break;
  }
}

Testbed::~Testbed() {
  // A longer-lived Observability must not sample destroyed components:
  // finalize it now, which runs its flushes and collapses its gauge
  // callbacks to their final values. (log_time_'s own destructor
  // likewise uninstalls the sim-clock log time source.)
  if (obs_ != nullptr) {
    obs_->finalize();
    sim_.set_obs(nullptr);
  }
}

PhyProcess* Testbed::phy_by_id(PhyId id) {
  const int index = int(id.value()) - 1;
  if (index < 0 || index >= int(phys_.size())) {
    return nullptr;
  }
  return phys_[std::size_t(index)].get();
}

void Testbed::build_fabric() {
  const int num_cells = this->num_cells();
  // Port plan: 0..9 are the first cell's stations, extra RUs start at
  // 10, extra PHYs + their Orions follow.
  const int extra_base = 10 + std::max(0, num_cells - 1);
  const int ports_needed = extra_base + 2 * std::max(0, num_phys_ - 2);
  switch_ = std::make_unique<ProgrammableSwitch>(sim_,
                                                 std::max(12, ports_needed));
  auto add_station = [&](int port, std::uint64_t mac) -> Nic* {
    links_.push_back(std::make_unique<Link>(
        sim_, config_.link, sim_.rng().stream("link.loss", std::uint64_t(port))));
    nics_.push_back(std::make_unique<Nic>(sim_, MacAddr{mac}));
    nics_.back()->attach(*links_.back());
    switch_->attach_link(port, *links_.back());
    switch_->add_l2_route(MacAddr{mac}, port);
    return nics_.back().get();
  };
  // Fault plans pull specific cables, so remember which link serves
  // which RU/PHY station (links_ itself is ordered by port plan).
  auto last_link = [&]() { return links_.back().get(); };
  ru_nics_.push_back(add_station(0, ru_mac_for(0)));
  ru_links_.push_back(last_link());
  phy_nics_.push_back(add_station(1, phy_mac_for(0)));
  phy_links_.push_back(last_link());
  phy_nics_.push_back(add_station(2, phy_mac_for(1)));
  phy_links_.push_back(last_link());
  orion_phy_nics_.push_back(add_station(3, orion_mac_for(0)));
  orion_phy_nics_.push_back(add_station(4, orion_mac_for(1)));
  orion_l2_nic_ = add_station(5, kOrionL2Mac);
  app_nic_ = add_station(6, kAppServerMac);
  l2_gw_nic_ = add_station(7, kL2GwMac);
  l2b_gw_nic_ = add_station(8, kL2bGwMac);
  baseline_ctl_nic_ = add_station(9, kBaselineCtlMac);
  for (int c = 1; c < num_cells; ++c) {
    ru_nics_.push_back(add_station(10 + (c - 1), ru_mac_for(c)));
    ru_links_.push_back(last_link());
  }
  for (int p = 2; p < num_phys_; ++p) {
    phy_nics_.push_back(add_station(extra_base + 2 * (p - 2), phy_mac_for(p)));
    phy_links_.push_back(last_link());
    orion_phy_nics_.push_back(
        add_station(extra_base + 2 * (p - 2) + 1, orion_mac_for(p)));
  }

  // The middlebox must share the deployment's numerology or its boundary
  // math disagrees with the Orions'.
  auto mbox_cfg = config_.mbox;
  mbox_cfg.slots = config_.slots;
  mbox_ = std::make_shared<FronthaulMiddlebox>(sim_, mbox_cfg);
  mbox_->register_ru(ru_id(0), MacAddr{ru_mac_for(0)});
  for (int p = 0; p < num_phys_; ++p) {
    mbox_->register_phy(phy_id(p), MacAddr{phy_mac_for(p)});
  }
  mbox_->bind_ru_to_phy(ru_id(0), phy_id(0));
  for (int c = 1; c < num_cells; ++c) {
    mbox_->register_ru(ru_id(c), MacAddr{ru_mac_for(c)});
    mbox_->bind_ru_to_phy(ru_id(c), phy_id(c));
  }
  mbox_->set_dl_source_filter(config_.dl_source_filter);
  switch_->install_program(mbox_);

  if (config_.fabric.frer) {
    build_fabric_plane_b();
  }

  // gPTP-style clock-error model: node 0 is the switch (its drifting
  // oscillator stretches the packet generator's tick train — the
  // failure detector's only clock); RU/PHY hosts get their own nodes
  // for NIC timestamps. With the default config no node is created and
  // every clock is ideal.
  const auto& sync_cfg = config_.fabric.sync;
  if (sync_cfg.max_abs_offset > 0 || sync_cfg.drift_ppm != 0.0) {
    auto make_node = [&](std::uint64_t idx) -> TimeSyncNode* {
      sync_nodes_.push_back(std::make_unique<TimeSyncNode>(
          sync_cfg, sim_.rng().stream("tsync", idx)));
      return sync_nodes_.back().get();
    };
    TimeSyncNode* sw = make_node(0);
    switch_->set_tick_perturbation(
        [sw](Nanos period) { return sw->perturb_period(period); });
    std::uint64_t idx = 1;
    for (Nic* nic : ru_nics_) {
      TimeSyncNode* n = make_node(idx++);
      nic->set_clock([n](Nanos t) { return n->local_time(t); });
    }
    for (Nic* nic : phy_nics_) {
      TimeSyncNode* n = make_node(idx++);
      nic->set_clock([n](Nanos t) { return n->local_time(t); });
    }
  }

  // Background cross-traffic: one injector per PHY server egress (the
  // direction heartbeats share), aimed at a station whose rx side
  // ignores best-effort frames.
  if (config_.fabric.cross_traffic_load > 0.0) {
    CrossTrafficConfig cc;
    cc.load = config_.fabric.cross_traffic_load;
    cc.link_bandwidth_bps = config_.link.bandwidth_bps;
    cc.frame_bytes = config_.fabric.cross_frame_bytes;
    cc.mean_burst_frames = config_.fabric.cross_burst_frames;
    cc.sink = MacAddr{kBaselineCtlMac};
    for (std::size_t p = 0; p < phy_nics_.size(); ++p) {
      injectors_.push_back(std::make_unique<CrossTrafficInjector>(
          sim_, *phy_nics_[p], cc, sim_.rng().stream("xtraffic", p)));
    }
  }
}

void Testbed::build_fabric_plane_b() {
  const int num_cells = this->num_cells();
  switch_b_ = std::make_unique<ProgrammableSwitch>(sim_, switch_->num_ports());

  // Plane B runs its own middlebox instance for forwarding (UL
  // redirection to the bound PHY, DL source filtering) but never arms
  // watches or a generator: detection stays a plane-A concern.
  auto mbox_cfg = config_.mbox;
  mbox_cfg.slots = config_.slots;
  mbox_b_ = std::make_shared<FronthaulMiddlebox>(sim_, mbox_cfg);
  for (int p = 0; p < num_phys_; ++p) {
    mbox_b_->register_phy(phy_id(p), MacAddr{phy_mac_for(p)});
  }
  for (int c = 0; c < num_cells; ++c) {
    mbox_b_->register_ru(ru_id(c), MacAddr{ru_mac_for(c)});
    mbox_b_->bind_ru_to_phy(ru_id(c), phy_id(c));
  }
  mbox_b_->set_dl_source_filter(config_.dl_source_filter);
  switch_b_->install_program(mbox_b_);

  // Interpose a sequence-recovery point between both planes' links and
  // each protected station's NIC, then install the replication point as
  // the NIC's tx path. Orion/L2/app stations stay plane-A-only: FRER
  // protects the fronthaul streams, not the control plane.
  auto protect = [&](int port, std::uint64_t mac, Nic* nic,
                     Link* plane_a) -> Link* {
    links_b_.push_back(std::make_unique<Link>(
        sim_, config_.link,
        sim_.rng().stream("link.loss.b", std::uint64_t(port))));
    Link* plane_b = links_b_.back().get();
    switch_b_->attach_link(port, *plane_b);
    switch_b_->add_l2_route(MacAddr{mac}, port);
    eliminators_.push_back(std::make_unique<FrerEliminator>(
        sim_, config_.fabric.frer_elim, *nic));
    FrerEliminator* elim = eliminators_.back().get();
    plane_a->attach_a(elim);
    plane_b->attach_a(elim);
    replicators_.push_back(
        std::make_unique<FrerReplicator>(*nic, *plane_a, *plane_b));
    return plane_b;
  };
  const int extra_base = 10 + std::max(0, num_cells - 1);
  for (int c = 0; c < num_cells; ++c) {
    const int port = c == 0 ? 0 : 10 + (c - 1);
    ru_links_b_.push_back(protect(port, ru_mac_for(c),
                                  ru_nics_[std::size_t(c)],
                                  ru_links_[std::size_t(c)]));
  }
  for (int p = 0; p < num_phys_; ++p) {
    const int port = p == 0 ? 1 : p == 1 ? 2 : extra_base + 2 * (p - 2);
    phy_links_b_.push_back(protect(port, phy_mac_for(p),
                                   phy_nics_[std::size_t(p)],
                                   phy_links_[std::size_t(p)]));
  }
}

void Testbed::build_vran() {
  const int num_cells = this->num_cells();
  for (int p = 0; p < num_phys_; ++p) {
    PhyConfig phy_cfg = config_.phy;
    phy_cfg.slots = config_.slots;
    phy_cfg.obs_phy_id = phy_id(p).value();
    // secondary_ldpc_iters models an upgraded PHY build on the standby
    // side: the pool members.
    if (p >= num_cells && config_.secondary_ldpc_iters > 0) {
      phy_cfg.ldpc_max_iters = config_.secondary_ldpc_iters;
    }
    phys_.push_back(std::make_unique<PhyProcess>(
        sim_, "phy-" + unit_suffix(p), phy_cfg, *phy_nics_[std::size_t(p)]));
  }
  for (int c = 0; c < num_cells; ++c) {
    for (int p = 0; p < num_phys_; ++p) {
      phys_[std::size_t(p)]->add_ru_binding(ru_id(c), MacAddr{ru_mac_for(c)});
    }
  }

  L2Config l2_cfg = config_.l2;
  l2_cfg.slots = config_.slots;
  l2_ = std::make_unique<L2Process>(sim_, "l2", l2_cfg);

  for (int c = 0; c < num_cells; ++c) {
    RuConfig ru_cfg;
    ru_cfg.id = ru_id(c);
    ru_cfg.slots = config_.slots;
    ru_cfg.virtual_phy_mac = MacAddr{kVirtualPhyMac};
    rus_.push_back(std::make_unique<RadioUnit>(
        sim_, ru_name_for(c), ru_cfg, *ru_nics_[std::size_t(c)]));
  }

  for (int c = 0; c < num_cells; ++c) {
    const auto& cell = config_.cells[std::size_t(c)];
    for (int i = 0; i < cell.num_ues; ++i) {
      UeConfig ue_cfg = config_.ue;
      ue_cfg.id = UeId{std::uint16_t(ue_base_id(c) + i)};
      ue_cfg.slots = config_.slots;
      FadingConfig fading = config_.fading;
      if (i < int(cell.ue_mean_snr_db.size())) {
        fading.mean_snr_db = cell.ue_mean_snr_db[std::size_t(i)];
      }
      auto ue = std::make_unique<UserEquipment>(
          sim_, "ue-" + std::to_string(ue_cfg.id.value()), ue_cfg, fading,
          sim_.rng().stream("ue.chan", std::uint64_t(ue_cfg.id.value())));
      rus_[std::size_t(c)]->attach_ue(ue.get());
      ue_pipes_.push_back(make_ue_modem_pipe(*ue));
      ues_.push_back(std::move(ue));
      ue_cell_.push_back(c);
    }
  }

  // Massive-UE batches: one SoA pool per cell that asked for one. The
  // batch rides configured grants (no per-UE L2 context) and owns a
  // private RNG, so attaching it perturbs no tracer UE.
  for (int c = 0; c < num_cells; ++c) {
    const int bulk = config_.cells[std::size_t(c)].bulk_ues;
    if (bulk <= 0) {
      batches_.push_back(nullptr);
      continue;
    }
    UeBatchConfig bcfg = config_.bulk;
    bcfg.schedule.cell = std::uint8_t(c);
    bcfg.schedule.population = std::uint32_t(bulk);
    bcfg.seed = splitmix64(config_.seed ^ (0xB4170000ULL + std::uint64_t(c)));
    bcfg.fading = batch_fading_params(config_.fading);
    const auto slot_ns = config_.slots.slot_duration;
    bcfg.rlf_timeout_slots = config_.ue.rlf_timeout / slot_ns;
    bcfg.reattach_delay_slots = config_.ue.reattach_delay / slot_ns;
    bcfg.grant_starvation_slots = config_.ue.grant_starvation_timeout / slot_ns;
    auto batch = std::make_unique<UeBatch>(bcfg);
    rus_[std::size_t(c)]->attach_batch(batch.get());
    l2_->configure_bulk(ru_id(c), bcfg.schedule);
    batches_.push_back(std::move(batch));
  }

  app_server_ =
      std::make_unique<AppServer>(sim_, *app_nic_, MacAddr{kL2GwMac});
  l2_gw_ = std::make_unique<L2UserGateway>(*l2_gw_nic_, *l2_,
                                           MacAddr{kAppServerMac});
}

void Testbed::wire_slingshot() {
  const int num_cells = this->num_cells();
  for (int p = 0; p < num_phys_; ++p) {
    orion_phys_.push_back(std::make_unique<OrionPhySide>(
        sim_, "orion-" + unit_suffix(p), *orion_phy_nics_[std::size_t(p)],
        config_.orion_costs));
    // The loss-compensation watchdog ticks per TTI; give every side the
    // deployment numerology instead of the default.
    orion_phys_.back()->set_slot_config(config_.slots);
  }
  OrionL2Config ol2;
  ol2.slots = config_.slots;
  ol2.standby_mode = config_.standby_mode;
  ol2.failover_margin_slots = config_.failover_margin_slots;
  ol2.cmd_extra_delay = config_.orion_cmd_extra_delay;
  ol2.costs = config_.orion_costs;
  orion_l2_ = std::make_unique<OrionL2Side>(sim_, "orion-l2", *orion_l2_nic_,
                                            ol2);

  // L2 <-> L2-side Orion over SHM.
  l2_to_mbx_ = std::make_unique<ShmFapiPipe>(sim_);
  l2_to_mbx_->connect(orion_l2_.get());
  l2_->connect_fapi_out(l2_to_mbx_.get());
  mbx_to_l2_ = std::make_unique<ShmFapiPipe>(sim_);
  mbx_to_l2_->connect(l2_.get());
  orion_l2_->connect_l2(mbx_to_l2_.get());

  // PHY-side Orions <-> PHYs over SHM.
  for (int p = 0; p < num_phys_; ++p) {
    auto to_phy = std::make_unique<ShmFapiPipe>(sim_);
    to_phy->connect(phys_[std::size_t(p)].get());
    orion_phys_[std::size_t(p)]->connect_phy(to_phy.get());
    to_phy_pipes_.push_back(std::move(to_phy));
    auto phy_out = std::make_unique<ShmFapiPipe>(sim_);
    phy_out->connect(orion_phys_[std::size_t(p)].get());
    phys_[std::size_t(p)]->connect_fapi_out(phy_out.get());
    phy_out_pipes_.push_back(std::move(phy_out));
  }

  for (int p = 0; p < num_phys_; ++p) {
    orion_phys_[std::size_t(p)]->set_l2_orion_mac(MacAddr{kOrionL2Mac});
  }
  for (int p = 0; p < num_phys_; ++p) {
    orion_l2_->add_phy_peer(phy_id(p), MacAddr{orion_mac_for(p)});
  }
  // Pool members first, so every set_ru_primary finds a standby.
  for (int p = num_cells; p < num_phys_; ++p) {
    orion_l2_->add_pool_standby(phy_id(p), MacAddr{orion_mac_for(p)});
  }
  for (int c = 0; c < num_cells; ++c) {
    orion_l2_->set_ru_primary(ru_id(c), phy_id(c));
  }
}

void Testbed::wire_coupled() {
  // Tightly-coupled deployment: the L2 and PHY exchange FAPI directly
  // over SHM (§2.2); the standby PHY is left idle.
  l2_to_mbx_ = std::make_unique<ShmFapiPipe>(sim_);
  l2_to_mbx_->connect(phys_[0].get());
  l2_->connect_fapi_out(l2_to_mbx_.get());
  auto phy_out = std::make_unique<ShmFapiPipe>(sim_);
  phy_out->connect(l2_.get());
  phys_[0]->connect_fapi_out(phy_out.get());
  phy_out_pipes_.push_back(std::move(phy_out));
}

void Testbed::wire_baseline() {
  // Two independent full vRAN stacks (§8.1's baseline). Primary:
  // l2 + phy-a; hot backup: l2b + phy-b with identical configuration
  // but no UE contexts.
  l2_to_mbx_ = std::make_unique<ShmFapiPipe>(sim_);
  l2_to_mbx_->connect(phys_[0].get());
  l2_->connect_fapi_out(l2_to_mbx_.get());
  auto phy_out = std::make_unique<ShmFapiPipe>(sim_);
  phy_out->connect(l2_.get());
  phys_[0]->connect_fapi_out(phy_out.get());
  phy_out_pipes_.push_back(std::move(phy_out));

  L2Config l2b_cfg = config_.l2;
  l2b_cfg.slots = config_.slots;
  l2b_ = std::make_unique<L2Process>(sim_, "l2-backup", l2b_cfg);
  l2b_to_phy_b_ = std::make_unique<ShmFapiPipe>(sim_);
  l2b_to_phy_b_->connect(phys_[1].get());
  l2b_->connect_fapi_out(l2b_to_phy_b_.get());
  phy_b_to_l2b_ = std::make_unique<ShmFapiPipe>(sim_);
  phy_b_to_l2b_->connect(l2b_.get());
  phys_[1]->connect_fapi_out(phy_b_to_l2b_.get());

  l2b_gw_ = std::make_unique<L2UserGateway>(*l2b_gw_nic_, *l2b_,
                                            MacAddr{kAppServerMac});

  // A minimal failover controller: on the switch's failure
  // notification, re-route the fronthaul to the backup stack's PHY.
  // The UEs' RRC contexts do not exist there, so they must re-attach.
  baseline_ctl_nic_->set_rx_handler([this](Packet&& frame) {
    if (frame.eth.ethertype != EtherType::kFailureNotify ||
        baseline_failed_over_) {
      return;
    }
    baseline_failed_over_ = true;
    baseline_notify_time_ = sim_.now();
    SLOG_WARN("baseline", "re-routing fronthaul to backup vRAN");
    MigrateOnSlotCmd cmd;
    cmd.ru = kRu;
    cmd.dest_phy = kPhyB;
    cmd.slot = SlotPoint::from_index(config_.slots.slot_at(sim_.now()) + 2,
                                     config_.slots);
    Packet packet;
    packet.eth.dst = MacAddr::broadcast();
    packet.eth.ethertype = EtherType::kSlingshotCmd;
    packet.payload = serialize_migrate_cmd(cmd);
    baseline_ctl_nic_->send(std::move(packet));
    // The core network re-routes user traffic to the backup stack.
    app_server_->set_gateway_mac(MacAddr{kL2bGwMac});
  });
}

void Testbed::start() {
  for (auto& phy : phys_) {
    phy->power_on();
  }
  l2_->power_on();
  for (int c = 0; c < num_cells(); ++c) {
    l2_->start_carrier(CarrierConfig{ru_id(c)});
  }
  if (l2b_) {
    l2b_->power_on();
    l2b_->start_carrier(CarrierConfig{kRu});
  }
  for (auto& ru : rus_) {
    ru->power_on();
  }

  for (std::size_t i = 0; i < ues_.size(); ++i) {
    auto& ue = ues_[i];
    const RuId serving = ru_id(ue_cell_[i]);
    ue->power_on();
    l2_->add_ue(ue->id(), serving);
    UserEquipment* raw = ue.get();
    ue->set_on_reattached([this, raw, serving] {
      L2Process* active =
          (config_.mode == TestbedMode::kBaselineFailover &&
           baseline_failed_over_)
              ? l2b_.get()
              : l2_.get();
      active->add_ue(raw->id(), serving);
    });
    // Server-side pipes exist from the start (apps bind to them).
    (void)app_server_->pipe_for(ue->id());
  }

  // Failure detection: the packet generator emulates the timeout; arm
  // watches after a short grace period so the detector does not fire
  // before the PHYs' first heartbeats. Every *fed* PHY is watched —
  // assigned pool standbys included, so a dying standby is detected.
  // Idle pool members (not yet backing any cell) get no FAPI feed and
  // hence no heartbeats; arming their detector would fire a false
  // failure. Orion arms a member's watch when it assigns it.
  for (auto& injector : injectors_) {
    injector->start();
  }
  switch_->start_packet_generator(mbox_->generator_period());
  const MacAddr notify_mac = config_.mode == TestbedMode::kSlingshot
                                 ? MacAddr{kOrionL2Mac}
                                 : MacAddr{kBaselineCtlMac};
  if (config_.mode != TestbedMode::kCoupledNoOrion &&
      config_.fabric.arm_detector) {
    sim_.after(5_ms, [this, notify_mac] {
      for (int p = 0; p < num_phys_; ++p) {
        const PhyId id = phy_id(p);
        if (orion_l2_ != nullptr) {
          bool in_use = false;
          for (int c = 0; c < num_cells() && !in_use; ++c) {
            in_use = orion_l2_->active_phy(ru_id(c)) == id ||
                     orion_l2_->standby_phy(ru_id(c)) == id;
          }
          if (!in_use) {
            continue;
          }
        }
        mbox_->watch_phy(id, notify_mac);
      }
    });
  }
}

void Testbed::kill_phy(PhyId phy) {
  PhyProcess* p = phy_by_id(phy);
  if (p != nullptr) {
    p->kill();
  }
}

void Testbed::planned_migration(int lead_slots) {
  planned_migration_of(kRu, lead_slots);
}

void Testbed::planned_migration_of(RuId ru, int lead_slots) {
  if (orion_l2_ == nullptr) {
    return;
  }
  const auto boundary = config_.slots.slot_at(sim_.now()) + lead_slots;
  orion_l2_->migrate(ru, boundary);
}

void Testbed::misaligned_migration(int lead_slots, int fronthaul_skew_slots) {
  if (orion_l2_ == nullptr) {
    return;
  }
  const auto boundary = config_.slots.slot_at(sim_.now()) + lead_slots;
  orion_l2_->migrate(kRu, boundary);
  // Overwrite the fronthaul boundary with a skewed one, as a buggy or
  // non-TTI-aligned implementation would.
  MigrateOnSlotCmd cmd;
  cmd.ru = kRu;
  cmd.dest_phy = orion_l2_->standby_phy(kRu);
  cmd.slot = SlotPoint::from_index(boundary + fronthaul_skew_slots,
                                   config_.slots);
  Packet packet;
  packet.eth.dst = MacAddr::broadcast();
  packet.eth.ethertype = EtherType::kSlingshotCmd;
  packet.payload = serialize_migrate_cmd(cmd);
  baseline_ctl_nic_->send(std::move(packet));
}

void Testbed::planned_migration_with_state_transfer(int lead_slots) {
  if (orion_l2_ == nullptr) {
    return;
  }
  const auto boundary = config_.slots.slot_at(sim_.now()) + lead_slots;
  PhyProcess* from = phy_by_id(orion_l2_->active_phy(kRu));
  PhyProcess* to = phy_by_id(orion_l2_->standby_phy(kRu));
  if (from == nullptr || to == nullptr) {
    return;
  }
  orion_l2_->migrate(kRu, boundary);
  // Oracle: hand the destination the source's soft state at the
  // boundary instant.
  sim_.at(config_.slots.slot_start(boundary),
          [from, to] { to->transfer_soft_state_from(*from); });
}

void Testbed::revive_phy_as_standby(PhyId phy) {
  if (orion_l2_ == nullptr) {
    return;
  }
  PhyProcess* dead = phy_by_id(phy);
  if (dead == nullptr || dead->alive()) {
    return;
  }
  dead->restart();
  // The PHY rejoins the pool: Orion replays the init sequence of every
  // RU it backs and arms its failure detector once heartbeats flow.
  orion_l2_->add_pool_standby(phy,
                              MacAddr{orion_mac_for(int(phy.value()) - 1)});
}

void Testbed::revive_dead_phy_as_standby() {
  for (int p = 0; p < num_phys_; ++p) {
    if (!phys_[std::size_t(p)]->alive()) {
      revive_phy_as_standby(phy_id(p));
      return;
    }
  }
}

DatagramPipe& Testbed::server_pipe(int i) {
  return app_server_->pipe_for(ues_.at(std::size_t(i))->id());
}

Testbed::FrerTotals Testbed::frer_totals() const {
  FrerTotals t;
  for (const auto& r : replicators_) {
    t.frames_replicated += r->frames_replicated();
    t.bytes_replicated += r->bytes_replicated();
  }
  for (const auto& e : eliminators_) {
    const auto& s = e->stats();
    t.passed += s.passed;
    t.duplicates_eliminated += s.duplicates_eliminated;
    t.stale_discarded += s.stale_discarded;
    t.rogue_discarded += s.rogue_discarded;
    t.recovery_resets += s.recovery_resets;
  }
  return t;
}

std::uint64_t Testbed::cross_traffic_frames() const {
  std::uint64_t n = 0;
  for (const auto& injector : injectors_) {
    n += injector->frames_injected();
  }
  return n;
}

std::uint64_t Testbed::cross_traffic_bytes() const {
  std::uint64_t n = 0;
  for (const auto& injector : injectors_) {
    n += injector->bytes_injected();
  }
  return n;
}

Nanos Testbed::sync_max_abs_offset_seen() const {
  Nanos worst = 0;
  for (const auto& node : sync_nodes_) {
    worst = std::max(worst, node->max_abs_offset_seen());
  }
  return worst;
}

obs::ObservabilityConfig Testbed::obs_config() const {
  obs::ObservabilityConfig c;
  c.tracer.slot = config_.slots;
  // A slot's CRC indication is due one slot after the pipelined decode.
  c.tracer.deadline_slots = config_.phy.ul_pipeline_slots + 1;
  return c;
}

void Testbed::attach_observability(obs::Observability& o) {
  obs_ = &o;
  sim_.set_obs(&o);
  auto& reg = o.registry();
  switch_->bind_obs(reg.counter("switch.frames"));
  // The generator and the detector count their ticks lazily; copy the
  // totals in when the bundle is finalized.
  o.on_finalize([this, &o] {
    o.registry()
        .counter("switch.generator_packets")
        ->inc(switch_->generator_packets());
    o.tracer().detector_tick(mbox_->armed_ticks() +
                             (mbox_b_ ? mbox_b_->armed_ticks() : 0));
  });

  // Gauge samplers: pulled only at snapshot time, so the hot path pays
  // nothing. The Testbed destructor freezes them (see ~Testbed).
  reg.gauge("sim.executed_events")->bind([this] {
    return double(sim_.executed_events());
  });
  reg.gauge("sim.pending_events")->bind([this] {
    return double(sim_.pending_events());
  });
  const auto phy_gauges = [&reg](const std::string& prefix, PhyProcess* phy) {
    if (phy == nullptr) {
      return;
    }
    reg.gauge(prefix + ".slots_processed")->bind([phy] {
      return double(phy->stats().slots_processed);
    });
    reg.gauge(prefix + ".ul_crc_ok")->bind([phy] {
      return double(phy->stats().ul_crc_ok);
    });
    reg.gauge(prefix + ".ul_crc_fail")->bind([phy] {
      return double(phy->stats().ul_crc_fail);
    });
    reg.gauge(prefix + ".fapi_starved_slots")->bind([phy] {
      return double(phy->stats().fapi_starved_slots);
    });
    reg.gauge(prefix + ".null_slots")->bind([phy] {
      return double(phy->stats().null_slots);
    });
  };
  for (int p = 0; p < num_phys_; ++p) {
    phy_gauges("phy." + unit_suffix(p), phys_[std::size_t(p)].get());
  }
  for (int c = 0; c < num_cells(); ++c) {
    RadioUnit* ru = rus_[std::size_t(c)].get();
    const std::string prefix = ru_name_for(c);
    reg.gauge(prefix + ".dropped_ttis")->bind([ru] {
      return double(ru->stats().dropped_ttis);
    });
    reg.gauge(prefix + ".dl_cplane_rx")->bind([ru] {
      return double(ru->stats().dl_cplane_rx);
    });
    // Massive-UE batch gauges (only for cells that carry a pool).
    if (UeBatch* batch = batches_[std::size_t(c)].get(); batch != nullptr) {
      reg.gauge(prefix + ".bulk.population")->bind([batch] {
        return double(batch->population());
      });
      reg.gauge(prefix + ".bulk.connected")->bind([batch] {
        return double(batch->connected_count());
      });
      reg.gauge(prefix + ".bulk.reattaching")->bind([batch] {
        return double(batch->reattaching_count());
      });
      reg.gauge(prefix + ".bulk.bytes_per_ue")->bind([batch] {
        return batch->bytes_per_ue();
      });
      reg.gauge(prefix + ".bulk.rlf_events")->bind([batch] {
        return double(batch->stats().rlf_events);
      });
      reg.gauge(prefix + ".bulk.max_ctrl_gap_slots")->bind([batch] {
        return double(batch->stats().max_ctrl_gap_slots);
      });
    }
  }
  // Process-memory gauges (satellite: peak/current RSS + bytes parked
  // on this thread's buffer-pool freelists).
  reg.gauge("mem.peak_rss_bytes")->bind([] {
    return double(obs::sample_peak_rss_bytes());
  });
  reg.gauge("mem.current_rss_bytes")->bind([] {
    return double(obs::sample_current_rss_bytes());
  });
  reg.gauge("mem.pool_retained_bytes")->bind([] {
    // All live threads' freelists, not just the sampling thread's own
    // (worker/transport threads park buffers too; see pool.h).
    return double(BufferPools::global_retained_bytes());
  });
  reg.gauge("fapi.parse_errors")->bind([] {
    return double(fapi_parse_errors());
  });
  if (l2_ != nullptr) {
    reg.gauge("l2.ul_tbs_granted")->bind([this] {
      return double(l2_->stats().ul_tbs_granted);
    });
    reg.gauge("l2.ul_tbs_lost")->bind([this] {
      return double(l2_->stats().ul_tbs_lost);
    });
  }
  if (mbox_ != nullptr) {
    reg.gauge("mbox.failures_detected")->bind([this] {
      return double(mbox_->stats().failures_detected);
    });
    reg.gauge("mbox.migrations_executed")->bind([this] {
      return double(mbox_->stats().migrations_executed);
    });
    reg.gauge("mbox.dl_blocked")->bind([this] {
      return double(mbox_->stats().dl_blocked);
    });
  }
  // Split link-drop counters (no receiver / random loss / fault hook),
  // summed over every fabric link.
  reg.gauge("net.dropped_no_receiver")->bind([this] {
    std::uint64_t n = 0;
    for (const auto& link : links_) {
      n += link->dropped_no_receiver();
    }
    return double(n);
  });
  reg.gauge("net.dropped_loss")->bind([this] {
    std::uint64_t n = 0;
    for (const auto& link : links_) {
      n += link->dropped_loss();
    }
    return double(n);
  });
  reg.gauge("net.dropped_fault")->bind([this] {
    std::uint64_t n = 0;
    for (const auto& link : links_) {
      n += link->dropped_fault();
    }
    return double(n);
  });
  // Fabric-layer counters (tail drops on finite queues, cable pulls,
  // in-flight census) summed over both planes' links.
  reg.gauge("net.dropped_overflow")->bind([this] {
    std::uint64_t n = 0;
    for (const auto& link : links_) {
      n += link->dropped_overflow();
    }
    for (const auto& link : links_b_) {
      n += link->dropped_overflow();
    }
    return double(n);
  });
  reg.gauge("net.dropped_down")->bind([this] {
    std::uint64_t n = 0;
    for (const auto& link : links_) {
      n += link->dropped_down();
    }
    for (const auto& link : links_b_) {
      n += link->dropped_down();
    }
    return double(n);
  });
  reg.gauge("net.frames_in_flight")->bind([this] {
    std::uint64_t n = 0;
    for (const auto& link : links_) {
      n += link->frames_in_flight();
    }
    for (const auto& link : links_b_) {
      n += link->frames_in_flight();
    }
    return double(n);
  });
  reg.gauge("switch.unwired_emits")->bind([this] {
    return double(switch_->emits_to_unwired_port() +
                  (switch_b_ ? switch_b_->emits_to_unwired_port() : 0));
  });
  if (!injectors_.empty()) {
    reg.gauge("fabric.cross_frames_injected")->bind([this] {
      return double(cross_traffic_frames());
    });
  }
  if (!sync_nodes_.empty()) {
    reg.gauge("fabric.sync_max_abs_offset_ns")->bind([this] {
      return double(sync_max_abs_offset_seen());
    });
  }
  if (config_.fabric.frer) {
    reg.gauge("frer.passed")->bind([this] {
      return double(frer_totals().passed);
    });
    reg.gauge("frer.duplicates_eliminated")->bind([this] {
      return double(frer_totals().duplicates_eliminated);
    });
    reg.gauge("frer.stale_discarded")->bind([this] {
      return double(frer_totals().stale_discarded);
    });
    reg.gauge("frer.rogue_discarded")->bind([this] {
      return double(frer_totals().rogue_discarded);
    });
    reg.gauge("frer.recovery_resets")->bind([this] {
      return double(frer_totals().recovery_resets);
    });
    reg.gauge("frer.frames_replicated")->bind([this] {
      return double(frer_totals().frames_replicated);
    });
    reg.gauge("frer.bytes_replicated")->bind([this] {
      return double(frer_totals().bytes_replicated);
    });
  }
  if (orion_l2_ != nullptr) {
    reg.gauge("orion.failure_notifications")->bind([this] {
      return double(orion_l2_->stats().failure_notifications);
    });
    reg.gauge("orion.failovers_initiated")->bind([this] {
      return double(orion_l2_->stats().failovers_initiated);
    });
    reg.gauge("orion.duplicate_notifications_ignored")->bind([this] {
      return double(orion_l2_->stats().duplicate_notifications_ignored);
    });
    reg.gauge("orion.drained_responses_accepted")->bind([this] {
      return double(orion_l2_->stats().drained_responses_accepted);
    });
    reg.gauge("orion.drain_windows_expired")->bind([this] {
      return double(orion_l2_->stats().drain_windows_expired);
    });
    reg.gauge("orion.unprotected_notifications")->bind([this] {
      return double(orion_l2_->stats().unprotected_notifications);
    });
    reg.gauge("orion.standby_failures")->bind([this] {
      return double(orion_l2_->stats().standby_failures);
    });
    reg.gauge("orion.standbys_reassigned")->bind([this] {
      return double(orion_l2_->stats().standbys_reassigned);
    });
    reg.gauge("orion.pool_available")->bind([this] {
      return double(orion_l2_->pool_available());
    });
  }
  if (!orion_phys_.empty()) {
    reg.gauge("orion.a.nulls_injected_dl")->bind([this] {
      return double(orion_phys_[0]->nulls_injected_dl());
    });
    reg.gauge("orion.a.nulls_injected_ul")->bind([this] {
      return double(orion_phys_[0]->nulls_injected_ul());
    });
  }
}

Nanos Testbed::last_failover_notification() const {
  if (config_.mode == TestbedMode::kBaselineFailover) {
    return baseline_notify_time_;
  }
  if (orion_l2_ == nullptr) {
    return 0;
  }
  for (auto it = orion_l2_->migration_log().rbegin();
       it != orion_l2_->migration_log().rend(); ++it) {
    if (it->kind == MigrationEvent::Kind::kFailover) {
      return it->notification_at;
    }
  }
  return 0;
}

}  // namespace slingshot
