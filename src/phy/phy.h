// The PHY process — a software stand-in for a production PHY like Intel
// FlexRAN, faithful to the behaviours Slingshot depends on:
//
//  * Hard real-time slot cadence: a slot task runs every TTI; DL
//    fronthaul packets (control plane every slot, user plane when there
//    is DL data) are emitted with realistic intra-slot timing/jitter —
//    the packet stream the in-switch failure detector watches.
//  * The FAPI contract: the PHY must receive UL_TTI and DL_TTI requests
//    for every slot; after a configurable number of starved slots it
//    crashes (FlexRAN behaviour, §6.2). Null requests (zero PDUs) are
//    valid and generate no signal-processing work.
//  * Pipelined slot processing (§7, Fig 7): uplink data for slot N is
//    decoded and indicated ul_pipeline_slots later, so a draining
//    primary keeps producing results for pre-migration slots.
//  * Inter-TTI soft state only: per-UE SNR moving-average filters and
//    HARQ soft-combining buffers (§4.2) — all discardable.
//  * Fail-stop crash injection (kill()) for failover experiments.
//
// All uplink signal processing is real: channel estimation,
// equalization, soft demapping, HARQ combining, LDPC decoding, CRC.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "common/types.h"
#include "fapi/channel.h"
#include "fapi/fapi.h"
#include "fronthaul/oran.h"
#include "net/nic.h"
#include "phy/harq.h"
#include "phy/mcs.h"
#include "phy/tb_codec.h"
#include "sim/simulator.h"

namespace slingshot {

struct PhyConfig {
  SlotConfig slots{};
  int ldpc_max_iters = 8;        // the "FEC iterations" upgrade knob
  int ul_pipeline_slots = 2;     // UL slot N indicated at N+2 (Fig 7)
  int crash_after_missing_slots = 4;
  double default_snr_db = 5.0;   // SNR filter value before convergence
  double snr_filter_alpha = 0.25;

  // Intra-slot emission schedule for DL fronthaul packets. A healthy
  // FlexRAN-like PHY emits several DL packets per slot; the paper
  // measures a 393 µs max inter-packet gap across idle and busy slots.
  Nanos cplane_offset = 30'000;       // scheduling control, early in slot
  Nanos uplane_offset = 120'000;      // DL data symbols
  Nanos midslot_sync_offset = 260'000;  // SSB/CSI-RS-like always-on signal
  Nanos tx_jitter = 35'000;           // uniform jitter applied to each

  Nanos ul_indication_offset = 80'000;  // after decode-deadline boundary

  // O-RAN BFP compression applied to downlink U-plane IQ (0 = off).
  // 9-bit mantissas are the common deployment choice.
  std::uint8_t dl_bfp_mantissa_bits = 9;

  // Identity reported on the observability timeline (kPhyDown events);
  // 0 = unidentified (events suppressed). Deployment config, not PHY
  // behaviour — no effect on processing.
  std::uint8_t obs_phy_id = 0;
};

struct PhyStats {
  std::int64_t slots_processed = 0;
  std::int64_t work_slots = 0;   // slots with non-null FAPI work
  std::int64_t null_slots = 0;   // slots kept alive by null FAPI only
  std::int64_t ul_tbs_decoded = 0;
  std::int64_t ul_crc_ok = 0;
  std::int64_t ul_crc_fail = 0;
  std::int64_t ul_missing_sections = 0;  // granted but no signal arrived
  std::int64_t dl_tbs_encoded = 0;
  std::int64_t dl_bulk_sections = 0;  // zero-IQ bulk markers emitted
  std::int64_t harq_combines = 0;
  std::int64_t fapi_starved_slots = 0;
  std::int64_t late_fapi_dropped = 0;
  std::int64_t decode_iterations = 0;
  // Simulated compute-work units (codec operations); the basis for the
  // §8.5 secondary-PHY overhead measurement.
  double work_units = 0.0;
};

class PhyProcess final : public FapiSink {
 public:
  PhyProcess(Simulator& sim, std::string name, PhyConfig config, Nic& nic);

  // ---- Wiring ----
  // Where this PHY sends FAPI indications (PHY-side Orion or the L2).
  void connect_fapi_out(ShmFapiPipe* pipe) { fapi_out_ = pipe; }
  // Fronthaul MAC of the RU serving carrier `ru` (DL frames go there).
  void add_ru_binding(RuId ru, MacAddr ru_mac);

  // ---- Lifecycle ----
  void power_on();  // start the slot task at the next slot boundary
  void kill();      // fail-stop crash (SIGKILL model)
  // Fresh process start after a crash: all carrier and soft state is
  // gone; the process waits for CONFIG/START (which Orion replays from
  // its stored init messages, §6.3).
  void restart();
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // ---- Knobs ----
  void set_ldpc_max_iters(int iters) { config_.ldpc_max_iters = iters; }
  [[nodiscard]] int ldpc_max_iters() const { return config_.ldpc_max_iters; }

  // ---- FAPI in (requests from L2/Orion) ----
  void on_fapi(FapiMessage&& msg) override;

  [[nodiscard]] const PhyStats& stats() const { return stats_; }
  [[nodiscard]] const PhyConfig& config() const { return config_; }
  [[nodiscard]] MacAddr mac() const { return nic_.mac(); }

  // Current filtered SNR for a UE on a carrier (for tests/benches).
  [[nodiscard]] double filtered_snr_db(RuId ru, UeId ue) const;

  // ORACLE (ablation only): copy the inter-TTI soft state — HARQ soft
  // buffers and SNR filters — from another PHY. Slingshot deliberately
  // does NOT do this (§4); bench/abl_harq_state quantifies how little
  // it buys.
  void transfer_soft_state_from(const PhyProcess& other);

 private:
  struct CarrierState {
    CarrierConfig config;
    MacAddr ru_mac;
    bool configured = false;
    bool started = false;
    bool fapi_seen = false;
    int missing_streak = 0;
    std::map<std::int64_t, DlTtiRequest> dl_reqs;
    std::map<std::int64_t, UlTtiRequest> ul_reqs;
    std::map<std::int64_t, TxDataRequest> tx_data;
    std::vector<UlGrant> pending_grant_announcements;
    std::map<std::int64_t, std::vector<UPlaneSection>> ul_rx;
    HarqSoftBufferStore harq;
    std::unordered_map<std::uint16_t, Ewma> snr_filters;
  };

  void on_slot(std::int64_t slot);
  void process_carrier_slot(CarrierState& carrier, std::int64_t slot);
  void emit_downlink(CarrierState& carrier, std::int64_t slot,
                     const DlTtiRequest* dl_req, const TxDataRequest* tx);
  void decode_uplink(CarrierState& carrier, std::int64_t decode_slot);
  void handle_fronthaul_frame(Packet&& frame);
  void send_indication(FapiMessage&& msg);
  [[nodiscard]] Nanos jitter();

  Simulator& sim_;
  std::string name_;
  PhyConfig config_;
  Nic& nic_;
  ShmFapiPipe* fapi_out_ = nullptr;
  RngStream jitter_rng_;
  bool alive_ = false;
  EventHandle slot_task_;
  std::map<RuId, CarrierState> carriers_;
  PhyStats stats_;
  // Reused across every UL TB decode: zero per-decode heap traffic.
  TbDecodeWorkspace ws_;
};

}  // namespace slingshot
