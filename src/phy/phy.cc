#include "phy/phy.h"

#include <algorithm>

#include "common/log.h"
#include "obs/obs.h"
#include "common/pool.h"
#include "l2/bulk_schedule.h"
#include "phy/tb_codec.h"

namespace slingshot {
namespace {
// Work-unit model: rough codec operation counts, used only for the
// compute-overhead accounting (§8.5). One unit ~ one edge update or one
// symbol map.
constexpr double kEncodeWorkPerBit = 2.0;
constexpr double kDecodeWorkPerIterPerBit = 6.0;
}  // namespace

PhyProcess::PhyProcess(Simulator& sim, std::string name, PhyConfig config,
                       Nic& nic)
    : sim_(sim),
      name_(std::move(name)),
      config_(config),
      nic_(nic),
      jitter_rng_(sim.rng().stream("phy.jitter." + name_)) {
  nic_.set_rx_handler(
      [this](Packet&& frame) { handle_fronthaul_frame(std::move(frame)); });
}

void PhyProcess::add_ru_binding(RuId ru, MacAddr ru_mac) {
  carriers_[ru].ru_mac = ru_mac;
}

void PhyProcess::power_on() {
  if (alive_) {
    return;
  }
  alive_ = true;
  const Nanos first =
      config_.slots.slot_start(config_.slots.next_slot_after(sim_.now()));
  slot_task_ = sim_.every(first, config_.slots.slot_duration, [this] {
    on_slot(config_.slots.slot_at(sim_.now()));
  });
  SLOG_INFO("phy", "%s powered on", name_.c_str());
}

void PhyProcess::kill() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  slot_task_.cancel();
  if (config_.obs_phy_id != 0) {
    SLS_TRACE_EVENT(sim_, obs::ObsEvent::kPhyDown, config_.obs_phy_id,
                    config_.slots.slot_at(sim_.now()));
  }
  SLOG_INFO("phy", "%s killed (fail-stop)", name_.c_str());
}

void PhyProcess::restart() {
  if (alive_) {
    return;
  }
  // A restarted process starts from scratch: carrier configuration and
  // all inter-TTI soft state are gone. Only the operator-provisioned
  // RU address bindings (deployment config, not process state) remain.
  for (auto& [ru, carrier] : carriers_) {
    const MacAddr ru_mac = carrier.ru_mac;
    carrier = CarrierState{};
    carrier.ru_mac = ru_mac;
  }
  power_on();
  SLOG_INFO("phy", "%s restarted", name_.c_str());
}

Nanos PhyProcess::jitter() {
  return Nanos(jitter_rng_.uniform(0.0, double(config_.tx_jitter)));
}

void PhyProcess::on_fapi(FapiMessage&& msg) {
  if (!alive_) {
    return;
  }
  auto& carrier = carriers_[msg.ru];
  switch (msg.type()) {
    case FapiMsgType::kConfigRequest: {
      carrier.config = std::get<ConfigRequest>(msg.body).carrier;
      carrier.configured = true;
      send_indication(FapiMessage{msg.ru, msg.slot,
                                  ConfigResponse{msg.ru, true}});
      break;
    }
    case FapiMsgType::kStartRequest: {
      carrier.started = true;
      SLOG_INFO("phy", "%s started carrier ru=%u", name_.c_str(),
                msg.ru.value());
      break;
    }
    case FapiMsgType::kStopRequest: {
      carrier.started = false;
      break;
    }
    case FapiMsgType::kDlTtiRequest: {
      const auto current = config_.slots.slot_at(sim_.now());
      if (msg.slot < current) {
        ++stats_.late_fapi_dropped;
        // FAPI error handling: a request for a past slot is rejected
        // with MSG_SLOT_ERR back to the sender.
        send_indication(FapiMessage{
            msg.ru, msg.slot,
            ErrorIndication{kFapiMsgSlotErr, FapiMsgType::kDlTtiRequest}});
        break;
      }
      carrier.fapi_seen = true;
      auto req = std::get<DlTtiRequest>(std::move(msg.body));
      // PDCCH: queue the UL grant DCIs for over-the-air announcement in
      // this request's slot (they ride the DL control plane).
      for (const auto& dci : req.ul_dci) {
        UlGrant grant;
        grant.ue = dci.pdu.ue;
        grant.target_slot = dci.target_slot;
        grant.mcs = dci.pdu.mcs;
        grant.tb_bytes = dci.pdu.tb_bytes;
        grant.harq = dci.pdu.harq;
        grant.new_data = dci.pdu.new_data;
        carrier.pending_grant_announcements.push_back(grant);
      }
      carrier.dl_reqs[msg.slot] = std::move(req);
      break;
    }
    case FapiMsgType::kUlTtiRequest: {
      const auto current = config_.slots.slot_at(sim_.now());
      if (msg.slot < current) {
        ++stats_.late_fapi_dropped;
        send_indication(FapiMessage{
            msg.ru, msg.slot,
            ErrorIndication{kFapiMsgSlotErr, FapiMsgType::kUlTtiRequest}});
        break;
      }
      carrier.fapi_seen = true;
      carrier.ul_reqs[msg.slot] = std::get<UlTtiRequest>(std::move(msg.body));
      break;
    }
    case FapiMsgType::kTxDataRequest: {
      carrier.tx_data[msg.slot] = std::get<TxDataRequest>(std::move(msg.body));
      break;
    }
    default:
      break;
  }
}

void PhyProcess::on_slot(std::int64_t slot) {
  if (!alive_) {
    return;
  }
  ++stats_.slots_processed;
  for (auto& [ru, carrier] : carriers_) {
    if (carrier.started) {
      process_carrier_slot(carrier, slot);
    }
  }
}

void PhyProcess::process_carrier_slot(CarrierState& carrier,
                                      std::int64_t slot) {
  SLS_TRACE_STAGE(sim_, obs::SlotStage::kPhySlot, carrier.config.ru.value(),
                  slot);
  // ---- FAPI starvation check (the FlexRAN crash behaviour, §6.2).
  const bool have_dl = carrier.dl_reqs.contains(slot);
  const bool have_ul = carrier.ul_reqs.contains(slot);
  if (carrier.fapi_seen) {
    if (!have_dl && !have_ul) {
      ++carrier.missing_streak;
      ++stats_.fapi_starved_slots;
      if (carrier.missing_streak >= config_.crash_after_missing_slots) {
        SLOG_WARN("phy", "%s crashing: FAPI starved for %d slots",
                  name_.c_str(), carrier.missing_streak);
        kill();
        return;
      }
    } else {
      carrier.missing_streak = 0;
    }
  }

  send_indication(
      FapiMessage{carrier.config.ru, slot, SlotIndication{}});

  const auto dl_it = carrier.dl_reqs.find(slot);
  const auto tx_it = carrier.tx_data.find(slot);
  const DlTtiRequest* dl_req =
      dl_it != carrier.dl_reqs.end() ? &dl_it->second : nullptr;
  const TxDataRequest* tx =
      tx_it != carrier.tx_data.end() ? &tx_it->second : nullptr;

  const bool has_work =
      (dl_req != nullptr && !dl_req->pdus.empty()) ||
      (have_ul && !carrier.ul_reqs[slot].pdus.empty());
  if (have_dl || have_ul) {
    has_work ? ++stats_.work_slots : ++stats_.null_slots;
  }

  emit_downlink(carrier, slot, dl_req, tx);

  // ---- Pipelined uplink: decode the slot whose deadline is now.
  const auto decode_slot = slot - config_.ul_pipeline_slots;
  decode_uplink(carrier, decode_slot);

  // ---- Garbage-collect consumed per-slot state.
  carrier.dl_reqs.erase(carrier.dl_reqs.begin(),
                        carrier.dl_reqs.upper_bound(slot));
  carrier.tx_data.erase(carrier.tx_data.begin(),
                        carrier.tx_data.upper_bound(slot));
  carrier.ul_reqs.erase(carrier.ul_reqs.begin(),
                        carrier.ul_reqs.upper_bound(decode_slot));
  const auto ul_rx_end = carrier.ul_rx.upper_bound(decode_slot);
  for (auto it = carrier.ul_rx.begin(); it != ul_rx_end; ++it) {
    for (auto& section : it->second) {
      // Consumed sections' buffers go back to the packet pools.
      BufferPools::instance().iq.release(std::move(section.iq));
      BufferPools::instance().bytes.release(std::move(section.shadow_payload));
    }
  }
  carrier.ul_rx.erase(carrier.ul_rx.begin(), ul_rx_end);
}

void PhyProcess::emit_downlink(CarrierState& carrier, std::int64_t slot,
                               const DlTtiRequest* dl_req,
                               const TxDataRequest* tx) {
  const Nanos slot_start = config_.slots.slot_start(slot);
  const auto point = SlotPoint::from_index(slot, config_.slots);
  const RuId ru = carrier.config.ru;

  // --- Control plane: scheduling info early in the slot. This is the
  // per-TTI heartbeat the in-switch failure detector relies on.
  FronthaulPacket cplane;
  cplane.header.direction = FhDirection::kDownlink;
  cplane.header.plane = FhPlane::kControl;
  cplane.header.slot = point;
  cplane.header.ru = ru;
  if (dl_req != nullptr && config_.slots.is_downlink(slot)) {
    for (const auto& pdu : dl_req->pdus) {
      if (is_bulk_ue(pdu.ue)) {
        continue;  // bulk grants are implicit — never announced on PDCCH
      }
      DlAssignment a;
      a.ue = pdu.ue;
      a.mcs = pdu.mcs;
      a.tb_bytes = pdu.tb_bytes;
      a.harq = pdu.harq;
      a.new_data = pdu.new_data;
      cplane.cplane.dl_assignments.push_back(a);
    }
  }
  cplane.cplane.ul_grants = std::move(carrier.pending_grant_announcements);
  carrier.pending_grant_announcements.clear();

  const MacAddr ru_mac = carrier.ru_mac;
  const Nanos t_cplane = slot_start + config_.cplane_offset + jitter();
  sim_.at(std::max(t_cplane, sim_.now()), [this, ru_mac, cplane] {
    if (alive_) {
      nic_.send(make_fronthaul_frame(nic_.mac(), ru_mac, cplane));
    }
  });

  // --- User plane: encode DL transport blocks (real work).
  if (dl_req != nullptr && !dl_req->pdus.empty() && tx != nullptr &&
      config_.slots.is_downlink(slot)) {
    FronthaulPacket uplane;
    uplane.header.direction = FhDirection::kDownlink;
    uplane.header.plane = FhPlane::kUser;
    uplane.header.slot = point;
    uplane.header.symbol = 2;
    uplane.header.ru = ru;
    for (std::size_t i = 0; i < dl_req->pdus.size(); ++i) {
      const auto& pdu = dl_req->pdus[i];
      if (i >= tx->payloads.size()) {
        break;
      }
      const auto& payload = tx->payloads[i];
      const auto mod = mcs_entry(pdu.mcs).modulation;
      auto encoded = encode_tb(payload, mod);
      ++stats_.dl_tbs_encoded;
      stats_.work_units += kEncodeWorkPerBit * double(encoded.codeword_bits);
      UPlaneSection section;
      section.ue = pdu.ue;
      section.harq = pdu.harq;
      section.new_data = pdu.new_data;
      section.mcs = pdu.mcs;
      section.tb_bytes = pdu.tb_bytes;
      section.codeword_bits = encoded.codeword_bits;
      section.bfp_mantissa_bits = config_.dl_bfp_mantissa_bits;
      section.iq = std::move(encoded.iq);
      section.shadow_payload = payload;
      uplane.uplane.sections.push_back(std::move(section));
    }
    const Nanos t_uplane = slot_start + config_.uplane_offset + jitter();
    sim_.at(std::max(t_uplane, sim_.now()),
            [this, ru_mac, up = std::move(uplane)] {
              if (alive_) {
                nic_.send(make_fronthaul_frame(nic_.mac(), ru_mac, up));
              }
            });
  }

  // --- Bulk U-plane: the trailing payload-less bulk pdus (massive-UE
  // pools) radiate as zero-IQ marker sections in their own packet — the
  // batch models the decode, so the PHY does no encode work and draws
  // no jitter for them (a fixed offset keeps the tracer RNG sequence
  // identical with and without a bulk pool on the carrier).
  if (dl_req != nullptr && config_.slots.is_downlink(slot)) {
    FronthaulPacket bulk;
    bulk.header.direction = FhDirection::kDownlink;
    bulk.header.plane = FhPlane::kUser;
    bulk.header.slot = point;
    bulk.header.symbol = 4;
    bulk.header.ru = ru;
    for (const auto& pdu : dl_req->pdus) {
      if (!is_bulk_ue(pdu.ue)) {
        continue;
      }
      UPlaneSection section;
      section.ue = pdu.ue;
      section.harq = pdu.harq;
      section.new_data = pdu.new_data;
      section.mcs = pdu.mcs;
      section.tb_bytes = pdu.tb_bytes;
      section.codeword_bits = 0;
      section.bfp_mantissa_bits = config_.dl_bfp_mantissa_bits;
      bulk.uplane.sections.push_back(std::move(section));
      ++stats_.dl_bulk_sections;
    }
    if (!bulk.uplane.sections.empty()) {
      const Nanos t_bulk =
          slot_start + config_.uplane_offset + config_.tx_jitter;
      sim_.at(std::max(t_bulk, sim_.now()),
              [this, ru_mac, up = std::move(bulk)] {
                if (alive_) {
                  nic_.send(make_fronthaul_frame(nic_.mac(), ru_mac, up));
                }
              });
    }
  }

  // --- Mid-slot always-on sync signal (SSB/CSI-RS-like): keeps the DL
  // packet stream dense even in idle slots, which is why the measured
  // max inter-packet gap stays below one slot duration (§8.6).
  FronthaulPacket sync;
  sync.header.direction = FhDirection::kDownlink;
  sync.header.plane = FhPlane::kControl;
  sync.header.slot = point;
  sync.header.symbol = 7;
  sync.header.ru = ru;
  const Nanos t_sync = slot_start + config_.midslot_sync_offset + jitter();
  sim_.at(std::max(t_sync, sim_.now()), [this, ru_mac, sync] {
    if (alive_) {
      nic_.send(make_fronthaul_frame(nic_.mac(), ru_mac, sync));
    }
  });
}

void PhyProcess::decode_uplink(CarrierState& carrier,
                               std::int64_t decode_slot) {
  const auto req_it = carrier.ul_reqs.find(decode_slot);
  if (req_it == carrier.ul_reqs.end() || req_it->second.pdus.empty()) {
    return;
  }
  const auto& pdus = req_it->second.pdus;
  auto rx_it = carrier.ul_rx.find(decode_slot);
  static const std::vector<UPlaneSection> kNoSections;
  const auto& sections =
      rx_it != carrier.ul_rx.end() ? rx_it->second : kNoSections;

  CrcIndication crc_ind;
  RxDataIndication rx_ind;

  // One serial pass in PDU order. A slot that grants the same (UE, HARQ)
  // process twice chains naturally: decode i stores its soft bits before
  // decode i+1 looks up its prior.
  for (const auto& pdu : pdus) {
    auto& filter =
        carrier.snr_filters
            .try_emplace(pdu.ue.value(), config_.snr_filter_alpha)
            .first->second;

    const auto section_it = std::find_if(
        sections.begin(), sections.end(),
        [&](const UPlaneSection& s) { return s.ue == pdu.ue; });

    CrcEntry entry;
    entry.ue = pdu.ue;
    entry.harq = pdu.harq;

    if (section_it == sections.end()) {
      // Granted but no signal arrived (UE missed the grant, or fronthaul
      // packets were lost during migration): indistinguishable from
      // decoding a noisy channel — CRC failure.
      ++stats_.ul_missing_sections;
      entry.ok = false;
      entry.snr_db = float(filter.initialized() ? filter.value()
                                                : config_.default_snr_db);
      crc_ind.entries.push_back(entry);
      continue;
    }

    const auto& section = *section_it;
    if (pdu.new_data) {
      carrier.harq.start_new(pdu.ue, pdu.harq);
    }
    const auto* buffer = carrier.harq.find(pdu.ue, pdu.harq);
    const std::vector<float>* prior =
        buffer != nullptr ? &buffer->llrs : nullptr;
    if (prior != nullptr) {
      ++stats_.harq_combines;
    }

    const auto mod = mcs_entry(section.mcs).modulation;
    auto result = decode_tb(section.iq, mod, section.shadow_payload,
                            config_.ldpc_max_iters, prior,
                            LdpcCode::standard(), &ws_);
    ++stats_.ul_tbs_decoded;
    stats_.decode_iterations += result.iterations_used;
    stats_.work_units += kDecodeWorkPerIterPerBit *
                         double(result.iterations_used) *
                         double(section.codeword_bits);

    // Update the per-UE SNR moving average (soft state, §4.2).
    filter.add(result.est_snr_db);
    entry.snr_db = float(filter.value());
    entry.ok = result.crc_ok;
    crc_ind.entries.push_back(entry);

    if (result.crc_ok) {
      ++stats_.ul_crc_ok;
      carrier.harq.release(pdu.ue, pdu.harq);
      RxPdu rx;
      rx.ue = pdu.ue;
      rx.harq = pdu.harq;
      rx.payload = section.shadow_payload;
      rx_ind.pdus.push_back(std::move(rx));
    } else {
      ++stats_.ul_crc_fail;
      carrier.harq.store(pdu.ue, pdu.harq, std::move(result.combined_llrs));
    }
  }

  // Indications go out shortly after the decode deadline.
  const Nanos t_ind = sim_.now() + config_.ul_indication_offset + jitter();
  const RuId ru = carrier.config.ru;
  if (!crc_ind.entries.empty()) {
    SLS_TRACE_STAGE(sim_, obs::SlotStage::kPhyDecode, ru.value(),
                    decode_slot);
  }
  if (!crc_ind.entries.empty()) {
    sim_.at(t_ind, [this, ru, decode_slot, ind = std::move(crc_ind)]() mutable {
      if (alive_) {
        send_indication(FapiMessage{ru, decode_slot, std::move(ind)});
      }
    });
  }
  if (!rx_ind.pdus.empty()) {
    sim_.at(t_ind, [this, ru, decode_slot, ind = std::move(rx_ind)]() mutable {
      if (alive_) {
        send_indication(FapiMessage{ru, decode_slot, std::move(ind)});
      }
    });
  }
}

void PhyProcess::handle_fronthaul_frame(Packet&& frame) {
  if (!alive_ || frame.eth.ethertype != EtherType::kEcpri) {
    return;
  }
  FronthaulPacket packet;
  try {
    packet = parse_fronthaul(frame.payload);
  } catch (const std::exception&) {
    return;  // corrupt fronthaul packet: drop
  }
  // Parsing copied everything out; recycle the wire buffer.
  BufferPools::instance().bytes.release(std::move(frame.payload));
  if (packet.header.direction != FhDirection::kUplink) {
    return;
  }
  auto it = carriers_.find(packet.header.ru);
  if (it == carriers_.end() || !it->second.started) {
    return;
  }
  auto& carrier = it->second;
  const auto current = config_.slots.slot_at(sim_.now());
  const auto abs_slot = packet.header.slot.unwrap(current, config_.slots);

  if (packet.header.plane == FhPlane::kUser) {
    auto& store = carrier.ul_rx[abs_slot];
    for (auto& section : packet.uplane.sections) {
      store.push_back(std::move(section));
    }
  } else {
    // UL control plane: UCI (HARQ feedback) from UEs — forward to L2.
    UciIndication ind;
    for (const auto& uci : packet.cplane.uci) {
      ind.entries.push_back(UciEntry{uci.ue, uci.harq, uci.ack});
    }
    if (!ind.entries.empty()) {
      send_indication(
          FapiMessage{packet.header.ru, abs_slot, std::move(ind)});
    }
  }
}

void PhyProcess::send_indication(FapiMessage&& msg) {
  if (fapi_out_ != nullptr) {
    fapi_out_->send(std::move(msg));
  }
}

void PhyProcess::transfer_soft_state_from(const PhyProcess& other) {
  for (const auto& [ru, theirs] : other.carriers_) {
    auto& mine = carriers_[ru];
    mine.harq = theirs.harq;
    mine.snr_filters = theirs.snr_filters;
  }
}

double PhyProcess::filtered_snr_db(RuId ru, UeId ue) const {
  const auto it = carriers_.find(ru);
  if (it == carriers_.end()) {
    return config_.default_snr_db;
  }
  const auto f = it->second.snr_filters.find(ue.value());
  if (f == it->second.snr_filters.end() || !f->second.initialized()) {
    return config_.default_snr_db;
  }
  return f->second.value();
}

}  // namespace slingshot
