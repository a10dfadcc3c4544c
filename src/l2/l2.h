// The L2 process: MAC scheduler, link adaptation, MAC-level HARQ
// management, and RLC-UM data plane — a software stand-in for a
// commercial L2 (CapGemini / Intel testmac in the paper's testbed).
//
// The L2 holds the *hard* per-UE state (contexts, queues, HARQ process
// bookkeeping) that survives PHY migration — which is precisely why
// Slingshot can discard the PHY's soft state (§4). Per the FAPI
// contract it issues UL_TTI and DL_TTI requests for every slot, a few
// slots ahead of over-the-air time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "fapi/channel.h"
#include "fapi/fapi.h"
#include "l2/bulk_schedule.h"
#include "l2/rlc.h"
#include "phy/mcs.h"
#include "sim/simulator.h"

namespace slingshot {

struct L2Config {
  SlotConfig slots{};
  int fapi_advance_slots = 2;   // requests for slot N sent at N - 2
  int max_harq_retx = 3;        // 1 initial + 3 retransmissions (5G HARQ)
  double default_snr_db = 5.0;  // before the first PHY SNR report
  double mcs_margin_db = 1.0;
  int num_prbs = 273;
  int max_dl_prbs_per_ue = 273;
  int max_ul_prbs_per_ue = 100;
  std::size_t mtu_bytes = 1400;  // scheduler never allocates below this
  std::size_t max_dl_queue_bytes = 3'000'000;  // per-UE buffer cap
  Nanos rlc_t_reordering = 30_ms;  // UL receive reordering window
};

// Outcome record for a completed uplink HARQ sequence (for Table 2's
// interrupted-HARQ accounting).
struct HarqSequenceRecord {
  UeId ue;
  std::int64_t start_slot = 0;
  std::int64_t end_slot = 0;
  int transmissions = 0;
  bool delivered = false;
};

// Aggregate outcome counters for a carrier's bulk (massive-UE) pool.
// The L2 keeps NO per-bulk-UE context — the pool rides configured
// grants recomputed from the pure bulk-schedule arithmetic, so L2-side
// cost is O(quota) per slot regardless of population.
struct BulkPoolStats {
  std::int64_t ul_pdus = 0;
  std::int64_t ul_crc_ok = 0;
  std::int64_t ul_crc_fail = 0;
  std::int64_t ul_bytes = 0;
  std::int64_t dl_pdus = 0;
  std::int64_t dl_acks = 0;
  std::int64_t dl_nacks = 0;
};

struct L2Stats {
  std::int64_t dl_tbs_scheduled = 0;
  std::int64_t dl_retx = 0;
  std::int64_t dl_tbs_lost = 0;   // exhausted HARQ
  std::int64_t ul_tbs_granted = 0;
  std::int64_t ul_retx = 0;
  std::int64_t ul_tbs_lost = 0;
  std::int64_t ul_sdus_delivered = 0;
  std::int64_t dl_sdus_dropped_overflow = 0;
  std::int64_t dl_rlc_requeues = 0;
};

class L2Process final : public FapiSink {
 public:
  L2Process(Simulator& sim, std::string name, L2Config config);

  // ---- Wiring ----
  // Where the L2 sends FAPI requests (L2-side Orion, or the PHY
  // directly in a coupled deployment).
  void connect_fapi_out(ShmFapiPipe* pipe) { fapi_out_ = pipe; }
  // Uplink SDUs exiting toward the core network / app server.
  void set_uplink_sink(std::function<void(UeId, std::vector<std::uint8_t>)> sink) {
    uplink_sink_ = std::move(sink);
  }

  // ---- Lifecycle ----
  // Configure and start a carrier, then begin the per-slot FAPI stream.
  void start_carrier(const CarrierConfig& carrier);
  void power_on();
  void kill();
  [[nodiscard]] bool alive() const { return alive_; }

  // ---- UE context management (the L2's hard state) ----
  void add_ue(UeId ue, RuId ru);
  void remove_ue(UeId ue);
  // Enable the configured-grant bulk pool on a carrier. Unlike add_ue
  // this creates no per-UE context; both sides recompute the same turn
  // schedule (src/l2/bulk_schedule.h).
  void configure_bulk(RuId ru, const BulkSchedule& schedule);
  [[nodiscard]] const BulkPoolStats& bulk_stats(std::uint8_t cell) const;
  [[nodiscard]] bool has_ue(UeId ue) const { return ues_.contains(ue.value()); }
  [[nodiscard]] double reported_snr_db(UeId ue) const;

  // ---- Data plane (core-network side) ----
  void send_downlink(UeId ue, std::vector<std::uint8_t> sdu);
  [[nodiscard]] std::size_t dl_queue_bytes(UeId ue) const;

  // ---- FAPI in (indications from the PHY) ----
  void on_fapi(FapiMessage&& msg) override;

  [[nodiscard]] const L2Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<HarqSequenceRecord>& harq_log() const {
    return harq_log_;
  }
  [[nodiscard]] const L2Config& config() const { return config_; }

 private:
  struct DlInflight {
    std::vector<std::uint8_t> payload;
    std::uint8_t mcs = 0;
    std::uint32_t tb_bytes = 0;
    int transmissions = 0;
    std::int64_t start_slot = 0;
    bool awaiting_ack = false;
  };
  struct UlInflight {
    std::uint8_t mcs = 0;
    std::uint32_t tb_bytes = 0;
    int transmissions = 0;
    std::int64_t start_slot = 0;
    bool active = false;
  };
  struct UeContext {
    UeId id;
    RuId ru;
    double snr_db;
    std::deque<RlcSdu> dl_queue;
    RlcTx dl_rlc_tx;
    std::unique_ptr<RlcRx> ul_rlc_rx;  // heap: owns a timer closure
    std::array<DlInflight, 8> dl_harq;
    std::array<UlInflight, 8> ul_harq;
    std::uint8_t next_dl_harq = 0;
    std::uint8_t next_ul_harq = 0;
    // HARQ processes needing retransmission scheduling.
    std::vector<std::uint8_t> pending_dl_retx;
    std::vector<std::uint8_t> pending_ul_retx;
  };

  void on_slot(std::int64_t now_slot);
  void schedule_downlink(RuId ru, std::int64_t target_slot,
                         std::vector<UlDci> ul_dci);
  // Decide UL grants on carrier `ru` for `target_slot` (k2 slots
  // ahead); the returned request is stashed until its UL_TTI send time,
  // and the DCI list is announced on the PDCCH of the current DL_TTI.
  [[nodiscard]] std::vector<UlDci> plan_uplink(RuId ru,
                                               std::int64_t target_slot);
  [[nodiscard]] int ue_count_on(RuId ru) const;
  void handle_crc(const FapiMessage& msg);
  void handle_rx_data(FapiMessage&& msg);
  void handle_uci(const FapiMessage& msg);
  void send_fapi(FapiMessage&& msg);
  [[nodiscard]] int active_ue_count_with_dl_data() const;
  void drop_or_requeue_dl(UeContext& ue, DlInflight& inflight);

  Simulator& sim_;
  std::string name_;
  L2Config config_;
  ShmFapiPipe* fapi_out_ = nullptr;
  std::function<void(UeId, std::vector<std::uint8_t>)> uplink_sink_;
  bool alive_ = false;
  EventHandle slot_task_;
  std::vector<CarrierConfig> carriers_;
  // Planned UL_TTI per (carrier, slot).
  std::map<std::pair<std::uint8_t, std::int64_t>, UlTtiRequest> planned_ul_;
  std::unordered_map<std::uint16_t, UeContext> ues_;
  // Bulk pools: schedule keyed by carrier RU, stats keyed by cell (the
  // only identity recoverable from a bulk wire id on indications).
  std::map<std::uint8_t, BulkSchedule> bulk_;
  std::map<std::uint8_t, BulkPoolStats> bulk_stats_;
  L2Stats stats_;
  std::vector<HarqSequenceRecord> harq_log_;
};

}  // namespace slingshot
