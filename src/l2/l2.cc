#include "l2/l2.h"

#include <algorithm>

#include "common/log.h"
#include "obs/obs.h"

namespace slingshot {
namespace {
// HARQ bookkeeping timeout: if the PHY never reports an outcome (e.g. it
// crashed mid-sequence), the process is reaped so scheduling can
// continue — the L2-level self-healing that lets traffic resume after a
// failover even before Orion finishes migrating.
constexpr std::int64_t kHarqStaleSlots = 40;  // 20 ms
}  // namespace

L2Process::L2Process(Simulator& sim, std::string name, L2Config config)
    : sim_(sim), name_(std::move(name)), config_(config) {}

void L2Process::start_carrier(const CarrierConfig& carrier) {
  carriers_.push_back(carrier);
  send_fapi(FapiMessage{carrier.ru, 0, ConfigRequest{carrier}});
  send_fapi(FapiMessage{carrier.ru, 0, StartRequest{carrier.ru}});
}

void L2Process::power_on() {
  if (alive_) {
    return;
  }
  alive_ = true;
  const Nanos first =
      config_.slots.slot_start(config_.slots.next_slot_after(sim_.now()));
  slot_task_ = sim_.every(first, config_.slots.slot_duration, [this] {
    on_slot(config_.slots.slot_at(sim_.now()));
  });
  SLOG_INFO("l2", "%s powered on", name_.c_str());
}

void L2Process::kill() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  slot_task_.cancel();
}

void L2Process::add_ue(UeId ue, RuId ru) {
  UeContext ctx;
  ctx.id = ue;
  ctx.ru = ru;
  ctx.snr_db = config_.default_snr_db;
  // Uplink RLC receive entity: in-order release toward the core.
  ctx.ul_rlc_rx = std::make_unique<RlcRx>(
      sim_, config_.rlc_t_reordering, [this, ue](std::vector<std::uint8_t> sdu) {
        ++stats_.ul_sdus_delivered;
        if (uplink_sink_) {
          uplink_sink_(ue, std::move(sdu));
        }
      });
  ues_.erase(ue.value());
  ues_.emplace(ue.value(), std::move(ctx));
}

void L2Process::remove_ue(UeId ue) { ues_.erase(ue.value()); }

void L2Process::configure_bulk(RuId ru, const BulkSchedule& schedule) {
  bulk_[ru.value()] = schedule;
  bulk_stats_[schedule.cell] = BulkPoolStats{};
}

const BulkPoolStats& L2Process::bulk_stats(std::uint8_t cell) const {
  static const BulkPoolStats kEmpty{};
  const auto it = bulk_stats_.find(cell);
  return it == bulk_stats_.end() ? kEmpty : it->second;
}

double L2Process::reported_snr_db(UeId ue) const {
  const auto it = ues_.find(ue.value());
  return it == ues_.end() ? config_.default_snr_db : it->second.snr_db;
}

void L2Process::send_downlink(UeId ue, std::vector<std::uint8_t> sdu) {
  const auto it = ues_.find(ue.value());
  if (it == ues_.end()) {
    return;  // unknown UE: the core's packet is dropped
  }
  auto& ctx = it->second;
  if (sdu.empty()) {
    return;  // zero-length SDUs are not representable in RLC framing
  }
  if (queued_bytes(ctx.dl_queue) + sdu.size() > config_.max_dl_queue_bytes) {
    ++stats_.dl_sdus_dropped_overflow;
    return;
  }
  ctx.dl_queue.push_back(RlcSdu{kRlcSnUnassigned, std::move(sdu)});
}

std::size_t L2Process::dl_queue_bytes(UeId ue) const {
  const auto it = ues_.find(ue.value());
  return it == ues_.end() ? 0 : queued_bytes(it->second.dl_queue);
}

void L2Process::on_slot(std::int64_t now_slot) {
  if (!alive_ || carriers_.empty()) {
    return;
  }
  const std::int64_t target = now_slot + config_.fapi_advance_slots;

  // Reap stale HARQ processes whose outcomes will never arrive.
  for (auto& [id, ue] : ues_) {
    for (std::uint8_t h = 0; h < 8; ++h) {
      auto& dl = ue.dl_harq[h];
      if (dl.awaiting_ack && now_slot - dl.start_slot > kHarqStaleSlots) {
        dl.awaiting_ack = false;
        drop_or_requeue_dl(ue, dl);
      }
      auto& ul = ue.ul_harq[h];
      if (ul.active && now_slot - ul.start_slot > kHarqStaleSlots) {
        ul.active = false;
        ++stats_.ul_tbs_lost;
        harq_log_.push_back(HarqSequenceRecord{ue.id, ul.start_slot, now_slot,
                                               ul.transmissions, false});
      }
    }
    std::erase_if(ue.pending_dl_retx, [&](std::uint8_t h) {
      return !ue.dl_harq[h].awaiting_ack;
    });
    std::erase_if(ue.pending_ul_retx,
                  [&](std::uint8_t h) { return !ue.ul_harq[h].active; });
  }

  for (const auto& carrier : carriers_) {
    const RuId ru = carrier.ru;
    // Span opens here: everything the L2 emits this TTI is for `target`.
    SLS_TRACE_STAGE(sim_, obs::SlotStage::kL2Request, ru.value(), target);
    // Plan UL grants k2 = advance + 2 slots out, so their DCI rides in
    // the DL_TTI that is announced over the air before the PUSCH slot.
    auto ul_dci = plan_uplink(ru, now_slot + config_.fapi_advance_slots + 2);
    schedule_downlink(ru, target, std::move(ul_dci));

    // Send the UL_TTI whose slot is due now (planned two on_slot calls
    // ago); null if nothing was planned.
    UlTtiRequest ul_req;
    const auto planned = planned_ul_.find({ru.value(), target});
    if (planned != planned_ul_.end()) {
      ul_req = std::move(planned->second);
      planned_ul_.erase(planned);
    }
    send_fapi(FapiMessage{ru, target, std::move(ul_req)});
  }
  // Drop any stale plans (e.g. for carriers stopped mid-flight).
  std::erase_if(planned_ul_, [target](const auto& kv) {
    return kv.first.second < target - 10;
  });
}

int L2Process::ue_count_on(RuId ru) const {
  int n = 0;
  for (const auto& [id, ue] : ues_) {
    n += ue.ru == ru ? 1 : 0;
  }
  return n;
}

int L2Process::active_ue_count_with_dl_data() const {
  int n = 0;
  for (const auto& [id, ue] : ues_) {
    if (!ue.dl_queue.empty() || !ue.pending_dl_retx.empty()) {
      ++n;
    }
  }
  return n;
}

void L2Process::schedule_downlink(RuId ru, std::int64_t target_slot,
                                  std::vector<UlDci> ul_dci) {
  DlTtiRequest dl_req;
  dl_req.ul_dci = std::move(ul_dci);
  TxDataRequest tx;

  if (config_.slots.is_downlink(target_slot)) {
    const int eligible = active_ue_count_with_dl_data();
    const int prbs_per_ue =
        eligible > 0
            ? std::min(config_.num_prbs / eligible, config_.max_dl_prbs_per_ue)
            : 0;
    for (auto& [id, ue] : ues_) {
      if (ue.ru != ru) {
        continue;  // this UE is served on a different carrier
      }
      // Retransmissions first: same HARQ process, same payload/MCS.
      if (!ue.pending_dl_retx.empty()) {
        const std::uint8_t h = ue.pending_dl_retx.front();
        ue.pending_dl_retx.erase(ue.pending_dl_retx.begin());
        auto& inflight = ue.dl_harq[h];
        if (inflight.awaiting_ack) {
          ++inflight.transmissions;
          ++stats_.dl_retx;
          dl_req.pdus.push_back(TtiPdu{ue.id, inflight.mcs, inflight.tb_bytes,
                                       HarqId{h}, /*new_data=*/false});
          tx.payloads.push_back(inflight.payload);
          continue;  // one TB per UE per slot
        }
      }
      if (ue.dl_queue.empty() || prbs_per_ue <= 0) {
        continue;
      }
      // New transmission on a free HARQ process.
      std::uint8_t h = ue.next_dl_harq;
      bool found = false;
      for (int probe = 0; probe < 8; ++probe) {
        if (!ue.dl_harq[h].awaiting_ack) {
          found = true;
          break;
        }
        h = std::uint8_t((h + 1) % 8);
      }
      if (!found) {
        continue;  // all processes in flight
      }
      ue.next_dl_harq = std::uint8_t((h + 1) % 8);
      const auto mcs = select_mcs(ue.snr_db, config_.mcs_margin_db);
      const auto tb_bytes = std::max<std::uint32_t>(
          tb_size_bytes(mcs, prbs_per_ue),
          std::uint32_t(config_.mtu_bytes + 2));
      auto payload = ue.dl_rlc_tx.pack(ue.dl_queue, tb_bytes);
      auto& inflight = ue.dl_harq[h];
      inflight.payload = payload;
      inflight.mcs = mcs;
      inflight.tb_bytes = tb_bytes;
      inflight.transmissions = 1;
      inflight.start_slot = target_slot;
      inflight.awaiting_ack = true;
      ++stats_.dl_tbs_scheduled;
      dl_req.pdus.push_back(
          TtiPdu{ue.id, mcs, tb_bytes, HarqId{h}, /*new_data=*/true});
      tx.payloads.push_back(std::move(payload));
    }
  }

  // Bulk DL pdus go at the END of the request with NO payloads: the
  // PHY's legacy U-plane loop is payload-indexed, so the trailing bulk
  // pdus never consume a tracer payload (and never perturb the tracer
  // jitter draw sequence); a separate bulk U-plane path radiates them
  // as zero-IQ marker sections.
  if (config_.slots.is_downlink(target_slot)) {
    const auto bulk = bulk_.find(ru.value());
    if (bulk != bulk_.end() && bulk->second.population > 0) {
      const std::size_t before = dl_req.pdus.size();
      append_bulk_dl(bulk->second, target_slot, dl_req.pdus);
      bulk_stats_[bulk->second.cell].dl_pdus +=
          std::int64_t(dl_req.pdus.size() - before);
    }
  }

  send_fapi(FapiMessage{ru, target_slot, std::move(dl_req)});
  if (!tx.payloads.empty()) {
    send_fapi(FapiMessage{ru, target_slot, std::move(tx)});
  }
}

std::vector<UlDci> L2Process::plan_uplink(RuId ru,
                                          std::int64_t target_slot) {
  std::vector<UlDci> dci;
  UlTtiRequest ul_req;

  const int carrier_ues = ue_count_on(ru);
  if (config_.slots.is_uplink(target_slot) && carrier_ues > 0) {
    const int prbs_per_ue = std::min(config_.num_prbs / carrier_ues,
                                     config_.max_ul_prbs_per_ue);
    for (auto& [id, ue] : ues_) {
      if (ue.ru != ru) {
        continue;
      }
      // Retransmission grants first.
      if (!ue.pending_ul_retx.empty()) {
        const std::uint8_t h = ue.pending_ul_retx.front();
        ue.pending_ul_retx.erase(ue.pending_ul_retx.begin());
        auto& inflight = ue.ul_harq[h];
        if (inflight.active) {
          ++inflight.transmissions;
          ++stats_.ul_retx;
          ul_req.pdus.push_back(TtiPdu{ue.id, inflight.mcs, inflight.tb_bytes,
                                       HarqId{h}, /*new_data=*/false});
          continue;
        }
      }
      // New grant on a free HARQ process (semi-persistent: every UL
      // slot, every connected UE).
      std::uint8_t h = ue.next_ul_harq;
      bool found = false;
      for (int probe = 0; probe < 8; ++probe) {
        if (!ue.ul_harq[h].active) {
          found = true;
          break;
        }
        h = std::uint8_t((h + 1) % 8);
      }
      if (!found) {
        continue;
      }
      ue.next_ul_harq = std::uint8_t((h + 1) % 8);
      const auto mcs = select_mcs(ue.snr_db, config_.mcs_margin_db);
      const auto tb_bytes = std::max<std::uint32_t>(
          tb_size_bytes(mcs, prbs_per_ue),
          std::uint32_t(config_.mtu_bytes + 2));
      auto& inflight = ue.ul_harq[h];
      inflight.mcs = mcs;
      inflight.tb_bytes = tb_bytes;
      inflight.transmissions = 1;
      inflight.start_slot = target_slot;
      inflight.active = true;
      ++stats_.ul_tbs_granted;
      ul_req.pdus.push_back(
          TtiPdu{ue.id, mcs, tb_bytes, HarqId{h}, /*new_data=*/true});
    }
  }

  dci.reserve(ul_req.pdus.size());
  for (const auto& pdu : ul_req.pdus) {
    dci.push_back(UlDci{pdu, target_slot});
  }
  // Bulk pool: configured grants appended AFTER the DCI loop — they are
  // implicit (the batch recomputes the same turns), so the C-plane
  // carries no per-bulk-UE DCI and its wire size stays flat in N.
  if (config_.slots.is_uplink(target_slot)) {
    const auto bulk = bulk_.find(ru.value());
    if (bulk != bulk_.end() && bulk->second.population > 0) {
      const std::size_t before = ul_req.pdus.size();
      append_bulk_ul(bulk->second, target_slot, ul_req.pdus);
      bulk_stats_[bulk->second.cell].ul_pdus +=
          std::int64_t(ul_req.pdus.size() - before);
    }
  }
  if (!ul_req.pdus.empty()) {
    planned_ul_[{ru.value(), target_slot}] = std::move(ul_req);
  }
  return dci;
}

void L2Process::on_fapi(FapiMessage&& msg) {
  if (!alive_) {
    return;
  }
  switch (msg.type()) {
    case FapiMsgType::kCrcIndication:
      handle_crc(msg);
      break;
    case FapiMsgType::kRxDataIndication:
      handle_rx_data(std::move(msg));
      break;
    case FapiMsgType::kUciIndication:
      handle_uci(msg);
      break;
    default:
      break;  // SLOT.ind / CONFIG.response etc. need no action here
  }
}

void L2Process::handle_crc(const FapiMessage& msg) {
  // Span closes: the slot's UL outcome is back at the scheduler.
  SLS_TRACE_STAGE(sim_, obs::SlotStage::kResponse, msg.ru.value(), msg.slot);
  for (const auto& entry : std::get<CrcIndication>(msg.body).entries) {
    if (is_bulk_ue(entry.ue)) {
      auto& pool = bulk_stats_[bulk_cell_of(entry.ue)];
      ++(entry.ok ? pool.ul_crc_ok : pool.ul_crc_fail);
      continue;  // no per-UE HARQ context for bulk pools
    }
    const auto it = ues_.find(entry.ue.value());
    if (it == ues_.end()) {
      continue;
    }
    auto& ue = it->second;
    // Link adaptation input: the PHY's filtered SNR estimate.
    ue.snr_db = entry.snr_db;
    auto& inflight = ue.ul_harq[entry.harq.value() % 8];
    if (!inflight.active) {
      continue;  // stale indication (already reaped)
    }
    if (entry.ok) {
      inflight.active = false;
      harq_log_.push_back(HarqSequenceRecord{ue.id, inflight.start_slot,
                                             msg.slot, inflight.transmissions,
                                             true});
    } else if (inflight.transmissions > config_.max_harq_retx) {
      inflight.active = false;
      ++stats_.ul_tbs_lost;
      harq_log_.push_back(HarqSequenceRecord{ue.id, inflight.start_slot,
                                             msg.slot, inflight.transmissions,
                                             false});
    } else {
      ue.pending_ul_retx.push_back(entry.harq.value() % 8);
    }
  }
}

void L2Process::handle_rx_data(FapiMessage&& msg) {
  auto& rx = std::get<RxDataIndication>(msg.body);
  for (auto& pdu : rx.pdus) {
    if (is_bulk_ue(pdu.ue)) {
      // Bulk payloads are synthetic app bytes, not RLC frames; account
      // and discard.
      bulk_stats_[bulk_cell_of(pdu.ue)].ul_bytes +=
          std::int64_t(pdu.payload.size());
      continue;
    }
    const auto it = ues_.find(pdu.ue.value());
    if (it == ues_.end()) {
      continue;
    }
    for (auto& sdu : rlc_unpack(pdu.payload)) {
      it->second.ul_rlc_rx->on_sdu(std::move(sdu));
    }
  }
}

void L2Process::handle_uci(const FapiMessage& msg) {
  for (const auto& entry : std::get<UciIndication>(msg.body).entries) {
    if (is_bulk_ue(entry.ue)) {
      auto& pool = bulk_stats_[bulk_cell_of(entry.ue)];
      ++(entry.ack ? pool.dl_acks : pool.dl_nacks);
      continue;  // bulk DL is always new_data; no retx scheduling
    }
    const auto it = ues_.find(entry.ue.value());
    if (it == ues_.end()) {
      continue;
    }
    auto& ue = it->second;
    auto& inflight = ue.dl_harq[entry.harq.value() % 8];
    if (!inflight.awaiting_ack) {
      continue;
    }
    if (entry.ack) {
      inflight.awaiting_ack = false;
      inflight.payload.clear();
    } else if (inflight.transmissions > config_.max_harq_retx) {
      inflight.awaiting_ack = false;
      drop_or_requeue_dl(ue, inflight);
    } else {
      ue.pending_dl_retx.push_back(entry.harq.value() % 8);
    }
  }
}

void L2Process::drop_or_requeue_dl(UeContext& ue, DlInflight& inflight) {
  ++stats_.dl_tbs_lost;
  if (!inflight.payload.empty()) {
    // RLC-AM: recover the TB's SDUs for retransmission, ahead of new
    // data (insert at the queue front, preserving order). A TB that
    // exhausted HARQ, or whose feedback never arrived because the
    // serving PHY died, is re-queued rather than dropped — why the
    // paper's DL TCP sees no degradation through a failover (§8.2).
    auto sdus = rlc_unpack(inflight.payload);
    ++stats_.dl_rlc_requeues;
    // RLC-AM retransmission: the SDUs keep their original sequence
    // numbers and jump the queue, so the UE's receive window fills its
    // gap in order — TCP above never sees reordering or loss, only a
    // short delay (the paper's "DL unaffected" failover behaviour).
    for (auto it = sdus.rbegin(); it != sdus.rend(); ++it) {
      ue.dl_queue.push_front(std::move(*it));
    }
  }
  inflight.payload.clear();
}

void L2Process::send_fapi(FapiMessage&& msg) {
  if (fapi_out_ != nullptr) {
    fapi_out_->send(std::move(msg));
  }
}

}  // namespace slingshot
