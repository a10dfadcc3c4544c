#include "core/fh_mbox.h"

#include <algorithm>

#include "common/bits.h"
#include "common/log.h"
#include "net/frer.h"
#include "obs/obs.h"

namespace slingshot {

std::vector<std::uint8_t> serialize_migrate_cmd(const MigrateOnSlotCmd& cmd) {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u8(kCmdOpMigrateOnSlot);
  w.u8(cmd.ru.value());
  w.u8(cmd.dest_phy.value());
  w.u16(cmd.slot.frame);
  w.u8(cmd.slot.subframe);
  w.u8(cmd.slot.slot);
  return out;
}

MigrateOnSlotCmd parse_migrate_cmd(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  if (r.u8() != kCmdOpMigrateOnSlot) {
    throw std::runtime_error("not a migrate_on_slot command");
  }
  MigrateOnSlotCmd cmd;
  cmd.ru = RuId{r.u8()};
  cmd.dest_phy = PhyId{r.u8()};
  cmd.slot.frame = r.u16();
  cmd.slot.subframe = r.u8();
  cmd.slot.slot = r.u8();
  return cmd;
}

std::vector<std::uint8_t> serialize_unwatch_cmd(const UnwatchPhyCmd& cmd) {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u8(kCmdOpUnwatchPhy);
  w.u8(cmd.phy.value());
  return out;
}

std::vector<std::uint8_t> serialize_watch_cmd(const WatchPhyCmd& cmd) {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u8(kCmdOpWatchPhy);
  w.u8(cmd.phy.value());
  return out;
}

SwitchResourceEstimate estimate_switch_resources(int num_rus, int num_phys) {
  // Calibrated to the paper's §8.6 measurement at 256 RUs + 256 PHYs:
  // crossbar 5.2%, ALU 10.4%, gateway 14.1%, SRAM 5.3%, hash 9.5%.
  // Logic resources (crossbar/ALU/gateway/hash) are dominated by the
  // fixed program structure; "supporting more RUs/PHYs increases only
  // SRAM usage" — SRAM scales with table/register entries.
  SwitchResourceEstimate est;
  est.crossbar_pct = 5.2;
  est.alu_pct = 10.4;
  est.gateway_pct = 14.1;
  est.hash_bits_pct = 9.5;
  const double entries = double(num_rus) * 2.0 + double(num_phys) * 2.0 +
                         double(num_rus) + double(num_phys);  // tables + regs
  const double calib_entries = 256.0 * 2 + 256.0 * 2 + 256.0 + 256.0;
  est.sram_pct = 1.0 + 4.3 * entries / calib_entries;  // 5.3% at calibration
  return est;
}

FronthaulMiddlebox::FronthaulMiddlebox(Simulator& sim, FhMboxConfig config)
    : sim_(sim),
      config_(config),
      slots_(config.slots),
      wrap_window_(std::int64_t(SlotPoint::kFrames) *
                   config.slots.slots_per_frame),
      ru_id_directory_(sim, sim.rng().stream("mbox.cp", 0)),
      phy_id_directory_(sim, sim.rng().stream("mbox.cp", 1)),
      phy_addr_directory_(sim, sim.rng().stream("mbox.cp", 2)),
      ru_addr_directory_(sim, sim.rng().stream("mbox.cp", 3)),
      ru_to_phy_(std::size_t(config.max_ids), 0),
      migration_store_(std::size_t(config.max_ids)),
      counter_reset_tick_(std::size_t(config.max_ids), 0),
      watches_(std::size_t(config.max_ids)) {}

void FronthaulMiddlebox::register_ru(RuId id, MacAddr mac) {
  ru_id_directory_.bootstrap_insert(mac, id.value());
  ru_addr_directory_.bootstrap_insert(id.value(), mac);
}

void FronthaulMiddlebox::register_phy(PhyId id, MacAddr mac) {
  phy_id_directory_.bootstrap_insert(mac, id.value());
  phy_addr_directory_.bootstrap_insert(id.value(), mac);
}

void FronthaulMiddlebox::bind_ru_to_phy(RuId ru, PhyId phy) {
  if (ru.value() >= std::size_t(config_.max_ids)) {
    ++stats_.unknown_dropped;
    return;
  }
  ru_to_phy_.write(ru.value(), phy.value());
}

void FronthaulMiddlebox::watch_phy(PhyId phy, MacAddr orion_mac) {
  watch(phy, orion_mac, TickOrder::kBeforeTick);
}

void FronthaulMiddlebox::unwatch_phy(PhyId phy) {
  unwatch(phy, TickOrder::kBeforeTick);
}

std::uint64_t FronthaulMiddlebox::ticks_now(TickOrder order) {
  if (switch_ == nullptr) {
    return 0;
  }
  return order == TickOrder::kBeforeTick ? switch_->ticks_before(sim_.now())
                                         : switch_->ticks_through(sim_.now());
}

void FronthaulMiddlebox::reset_counter(std::uint8_t phy, std::uint64_t tick) {
  if (watches_[phy].armed) {
    folded_ticks_ += tick - counter_reset_tick_.read(phy);
  }
  counter_reset_tick_.write(phy, tick);
}

void FronthaulMiddlebox::request_deadline(std::uint64_t tick) {
  if (deadline_tick_ != 0 && deadline_tick_ <= tick) {
    return;  // the pending generator packet re-checks when it fires
  }
  deadline_tick_ = tick;
  if (switch_ != nullptr) {
    switch_->wake_program_at_tick(tick);
  }
}

void FronthaulMiddlebox::watch(PhyId phy, MacAddr orion_mac, TickOrder order) {
  if (phy.value() >= watches_.size()) {
    ++stats_.unknown_dropped;
    return;
  }
  const std::uint64_t tick = ticks_now(order);
  reset_counter(phy.value(), tick);
  watches_[phy.value()] = WatchEntry{/*armed=*/true, orion_mac};
  if (std::find(tracked_phys_.begin(), tracked_phys_.end(), phy.value()) ==
      tracked_phys_.end()) {
    tracked_phys_.push_back(phy.value());
  }
  request_deadline(tick + std::uint64_t(config_.detector_ticks));
  if (tap_ != nullptr) {
    tap_->on_watch_changed(phy, true);
  }
}

void FronthaulMiddlebox::unwatch(PhyId phy, TickOrder order) {
  if (phy.value() >= watches_.size()) {
    return;
  }
  reset_counter(phy.value(), ticks_now(order));
  watches_[phy.value()].armed = false;
  std::erase(tracked_phys_, phy.value());
  if (tap_ != nullptr) {
    tap_->on_watch_changed(phy, false);
  }
}

std::uint64_t FronthaulMiddlebox::armed_ticks() {
  const std::uint64_t now_tick = ticks_now(TickOrder::kAfterTick);
  std::uint64_t open = 0;
  for (const auto phy : tracked_phys_) {
    if (watches_[phy].armed) {
      open += now_tick - counter_reset_tick_.read(phy);
    }
  }
  return folded_ticks_ + open;
}

bool FronthaulMiddlebox::slot_reached(std::int64_t pkt_wrapped,
                                      std::int64_t boundary_wrapped) const {
  const std::int64_t diff =
      ((pkt_wrapped - boundary_wrapped) % wrap_window_ + wrap_window_) %
      wrap_window_;
  return diff < wrap_window_ / 2;
}

void FronthaulMiddlebox::maybe_execute_migration(RuId ru,
                                                 std::int64_t pkt_wrapped) {
  const auto& entry = migration_store_.read(ru.value());
  if (entry.valid && slot_reached(pkt_wrapped, entry.wrapped_slot)) {
    ru_to_phy_.write(ru.value(), entry.dest_phy);
    auto cleared = entry;
    cleared.valid = false;
    migration_store_.write(ru.value(), cleared);
    ++stats_.migrations_executed;
    SLS_TRACE_EVENT(sim_, obs::ObsEvent::kMigrationExecuted, entry.dest_phy,
                    pkt_wrapped);
    SLOG_INFO("fh_mbox", "migration executed: ru=%u -> phy=%u at slot %lld",
              ru.value(), entry.dest_phy,
              static_cast<long long>(pkt_wrapped));
    if (tap_ != nullptr) {
      tap_->on_migration_executed(ru, PhyId{entry.dest_phy}, pkt_wrapped,
                                  entry.wrapped_slot);
    }
  }
}

PipelineVerdict FronthaulMiddlebox::process(Packet& packet, int /*port*/,
                                            PipelineContext& ctx) {
  // FRER transparency: an R-TAG frame (802.1CB) is classified by its
  // encapsulated EtherType and its fronthaul header sits past the tag.
  // The tag itself is carried through untouched — sequence recovery
  // belongs to the elimination point in front of the listener, not the
  // middlebox.
  EtherType type = packet.eth.ethertype;
  std::span<const std::uint8_t> fh_bytes{packet.payload};
  if (type == EtherType::kRTag) {
    const auto tag = rtag_peek(packet);
    if (!tag.has_value()) {
      ++stats_.unknown_dropped;
      return PipelineVerdict::kHandled;
    }
    type = tag->inner;
    fh_bytes = fh_bytes.subspan(kRtagWireSize);
  }
  switch (type) {
    case EtherType::kSlingshotCmd: {
      // Orion -> middlebox commands: absorbed in the data plane.
      if (packet.payload.empty()) {
        ++stats_.unknown_dropped;
        return PipelineVerdict::kHandled;
      }
      switch (packet.payload[0]) {
        case kCmdOpMigrateOnSlot: {
          if (packet.payload.size() < 7) {
            ++stats_.unknown_dropped;
            return PipelineVerdict::kHandled;
          }
          const auto cmd = parse_migrate_cmd(packet.payload);
          MigrationEntry entry;
          entry.valid = true;
          entry.dest_phy = cmd.dest_phy.value();
          entry.wrapped_slot = cmd.slot.wrapped_index(slots_);
          migration_store_.write(cmd.ru.value(), entry);
          ++stats_.commands_received;
          SLS_TRACE_EVENT(sim_, obs::ObsEvent::kMigrateCmdAbsorbed,
                          entry.dest_phy, entry.wrapped_slot);
          if (tap_ != nullptr) {
            tap_->on_command(cmd, entry.wrapped_slot);
          }
          return PipelineVerdict::kHandled;
        }
        case kCmdOpUnwatchPhy: {
          if (packet.payload.size() < 2) {
            ++stats_.unknown_dropped;
            return PipelineVerdict::kHandled;
          }
          const PhyId phy{packet.payload[1]};
          unwatch(phy, TickOrder::kAfterTick);
          ++stats_.commands_received;
          if (tap_ != nullptr) {
            tap_->on_unwatch_command(phy);
          }
          return PipelineVerdict::kHandled;
        }
        case kCmdOpWatchPhy: {
          if (packet.payload.size() < 2) {
            ++stats_.unknown_dropped;
            return PipelineVerdict::kHandled;
          }
          // Notifications go back to whoever sent the command.
          watch(PhyId{packet.payload[1]}, packet.eth.src,
                TickOrder::kAfterTick);
          ++stats_.commands_received;
          return PipelineVerdict::kHandled;
        }
        default:
          ++stats_.unknown_dropped;
          return PipelineVerdict::kHandled;
      }
    }
    case EtherType::kEcpri:
      break;  // fronthaul handling below
    default:
      return PipelineVerdict::kDefaultForward;  // FAPI/user-plane traffic
  }

  const auto header = peek_fronthaul_header(fh_bytes);
  if (!header.has_value()) {
    ++stats_.unknown_dropped;
    return PipelineVerdict::kHandled;
  }
  const std::int64_t pkt_wrapped = header->slot.wrapped_index(slots_);

  if (header->direction == FhDirection::kUplink) {
    // RU -> virtual PHY address: resolve RU, run migration trigger,
    // translate to the active PHY's MAC.
    const auto* ru_id = ru_id_directory_.lookup(packet.eth.src);
    if (ru_id == nullptr) {
      ++stats_.unknown_dropped;
      return PipelineVerdict::kHandled;
    }
    const RuId ru{*ru_id};
    maybe_execute_migration(ru, pkt_wrapped);
    const auto phy = ru_to_phy_.read(ru.value());
    const auto* phy_mac = phy_addr_directory_.lookup(phy);
    if (phy_mac == nullptr) {
      ++stats_.unknown_dropped;
      return PipelineVerdict::kHandled;
    }
    packet.eth.dst = *phy_mac;
    ++stats_.ul_forwarded;
    ctx.emit_to_mac(*phy_mac, std::move(packet));
    return PipelineVerdict::kHandled;
  }

  // Downlink: PHY -> RU.
  const auto* src_phy = phy_id_directory_.lookup(packet.eth.src);
  if (src_phy == nullptr || *src_phy >= watches_.size()) {
    ++stats_.unknown_dropped;
    return PipelineVerdict::kHandled;
  }
  // Natural heartbeat: any DL fronthaul packet proves the PHY alive.
  // Re-arm only for PHYs still in the tracked set — a stray packet from
  // an unwatched (or failover-consumed and since unwatched) PHY must
  // not resurrect its detector and fire duplicate notifications. The
  // pending generator packet stays where it is: it re-checks when it
  // fires.
  auto& entry = watches_[*src_phy];
  const std::uint64_t tick = ticks_now(TickOrder::kAfterTick);
  reset_counter(*src_phy, tick);
  const bool was_armed = entry.armed;
  entry.armed = entry.notify_mac.bits() != 0 &&
                std::find(tracked_phys_.begin(), tracked_phys_.end(),
                          *src_phy) != tracked_phys_.end();
  if (entry.armed && !was_armed) {
    request_deadline(tick + std::uint64_t(config_.detector_ticks));
  }

  const RuId ru = header->ru;
  maybe_execute_migration(ru, pkt_wrapped);
  if (dl_filter_ && ru_to_phy_.read(ru.value()) != *src_phy) {
    // Not the active PHY for this RU: block (standby heartbeats, or a
    // stale primary after migration).
    ++stats_.dl_blocked;
    if (tap_ != nullptr) {
      tap_->on_dl_packet(PhyId{*src_phy}, ru, pkt_wrapped, false);
    }
    return PipelineVerdict::kHandled;
  }
  const auto* ru_mac = ru_addr_directory_.lookup(ru.value());
  if (ru_mac == nullptr) {
    ++stats_.unknown_dropped;
    return PipelineVerdict::kHandled;
  }
  packet.eth.dst = *ru_mac;
  ++stats_.dl_forwarded;
  if (tap_ != nullptr) {
    tap_->on_dl_packet(PhyId{*src_phy}, ru, pkt_wrapped, true);
  }
  ctx.emit_to_mac(*ru_mac, std::move(packet));
  return PipelineVerdict::kHandled;
}

void FronthaulMiddlebox::on_generator_packet(Packet& /*packet*/,
                                             PipelineContext& ctx) {
  // The generator packet of the earliest tick at which an armed counter
  // can saturate. A saturated counter (n ticks without a downlink
  // packet) means the timeout T elapsed with no heartbeat -> the PHY
  // failed. Every other armed counter sets the next deadline.
  deadline_tick_ = 0;
  const std::uint64_t now_tick = ticks_now(TickOrder::kAfterTick);
  const auto n = std::uint64_t(config_.detector_ticks);
  std::uint64_t next = 0;
  for (const auto phy : tracked_phys_) {
    auto& entry = watches_[phy];
    if (!entry.armed) {
      continue;
    }
    const std::uint64_t reset = counter_reset_tick_.read(phy);
    if (now_tick - reset < n) {
      next = next == 0 ? reset + n : std::min(next, reset + n);
      continue;
    }
    entry.armed = false;  // one notification per failure episode
    folded_ticks_ += n;
    counter_reset_tick_.write(phy, reset + n);
    ++stats_.failures_detected;
    SLS_TRACE_EVENT(sim_, obs::ObsEvent::kDetectorFire, phy,
                    slots_.slot_at(sim_.now()));
    SLOG_WARN("fh_mbox", "PHY %u failure detected (timeout)", unsigned(phy));
    if (tap_ != nullptr) {
      tap_->on_failure_notify(PhyId{phy});
    }
    // Re-format the timer packet into a failure notification.
    Packet notify;
    notify.eth.dst = entry.notify_mac;
    notify.eth.ethertype = EtherType::kFailureNotify;
    notify.payload = {phy};
    ctx.emit_to_mac(entry.notify_mac, std::move(notify));
  }
  if (next != 0) {
    request_deadline(next);
  }
}

}  // namespace slingshot
