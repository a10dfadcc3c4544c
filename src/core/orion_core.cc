#include "core/orion_core.h"

#include <algorithm>

#include "common/log.h"
#include "core/fh_mbox.h"
#include "obs/obs.h"

namespace slingshot {

namespace {
// An indication older than this many slots is not proof of life: it may
// be a delayed datagram sent before the PHY actually died.
constexpr std::int64_t kRehabFreshnessSlots = 8;
// Watch grace for a runtime-assigned standby, as the testbed's at boot.
constexpr Nanos kWatchGrace = 5'000'000;
}  // namespace

void OrionCore::set_ru_phys(RuId ru, PhyId primary, PhyId secondary) {
  auto& state = rus_[ru.value()];
  state.ru = ru;
  state.primary = primary;
  state.secondary = secondary;
  state.previous_until_slot = -1;
}

void OrionCore::set_ru_primary(RuId ru, PhyId primary) {
  pool_mode_ = true;
  set_ru_phys(ru, primary, PhyId{});
  const PhyId next = next_pool_standby();
  if (next != PhyId{}) {
    assign_standby(rus_[ru.value()], next);
  }
}

void OrionCore::add_pool_standby(PhyId phy) {
  pool_mode_ = true;
  const auto member = std::find_if(pool_.begin(), pool_.end(),
                                   [&](auto& m) { return m.id == phy; });
  if (member == pool_.end()) {
    pool_.push_back(PoolMember{phy, PoolState::kAvailable});
  } else {
    member->state = PoolState::kAvailable;  // a revived member rejoins
  }
  notify_pool(PoolEvent::kRestored, phy);
  // Deferred failovers first: an unprotected cell whose primary already
  // died has been waiting for exactly this — give it a member and
  // migrate now. Counted separately from notification-driven failovers
  // so the notification identity stays an identity.
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary != PhyId{} || state.boundary.has_value()) {
      continue;
    }
    if (state.failed_phy == PhyId{} || state.failed_phy != state.primary) {
      continue;
    }
    const PhyId next = next_pool_standby();
    if (next == PhyId{}) {
      break;
    }
    assign_standby(state, next);
    ++stats_.deferred_failovers_executed;
    initiate_failover(state, port_.now(), /*deferred=*/true);
    consume_pool_member(next);
  }
  // Then refill empty secondary slots of cells whose primary is alive.
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary != PhyId{} || state.boundary.has_value()) {
      continue;
    }
    if (state.failed_phy != PhyId{} && state.failed_phy == state.primary) {
      continue;  // dead primary and pool already exhausted above
    }
    const PhyId next = next_pool_standby();
    if (next == PhyId{}) {
      break;
    }
    assign_standby(state, next);
    ++stats_.standbys_reassigned;
  }
}

std::size_t OrionCore::pool_available() const {
  return std::size_t(std::count_if(pool_.begin(), pool_.end(), [](auto& m) {
    return m.state == PoolState::kAvailable;
  }));
}

PhyId OrionCore::next_pool_standby() const {
  for (const auto& m : pool_) {
    // A member that is (or is becoming) a primary is not a standby,
    // whatever its recorded state.
    const bool is_primary =
        std::any_of(rus_.begin(), rus_.end(),
                    [&](auto& entry) { return entry.second.primary == m.id; });
    if (m.state == PoolState::kAvailable && !is_primary) {
      return m.id;
    }
  }
  return PhyId{};
}

void OrionCore::assign_standby(RuState& state, PhyId phy) {
  state.secondary = phy;
  // The member may never have seen this RU's init sequence (§6.3) — a
  // shared standby must hold PHY state for every cell it backs.
  for (const auto& msg : state.init_messages) {
    port_.to_phy(phy, msg);
  }
  if (port_.now() > 0) {
    // A runtime assignment may hand us a cold member whose first
    // heartbeat is longer away than the detector timeout: arm its watch
    // once its null-FAPI heartbeats flow.
    port_.to_switch(serialize_watch_cmd(WatchPhyCmd{phy}), kWatchGrace);
  }
  if (tap_ != nullptr) {
    tap_->on_adopt(state.ru, phy);
  }
  SLS_TRACE_EVENT(port_, obs::ObsEvent::kAdoptStandby, phy.value(),
                  config_.slots.slot_at(port_.now()));
}

void OrionCore::consume_pool_member(PhyId phy) {
  if (!pool_mode_) {
    return;
  }
  for (auto& m : pool_) {
    if (m.id == phy && m.state == PoolState::kAvailable) {
      m.state = PoolState::kConsumed;
      notify_pool(PoolEvent::kConsumed, phy);
    }
  }
  // Re-point every other RU backed by this member: it is now (becoming)
  // someone's primary and can no longer absorb their failovers. RUs
  // with a pending boundary keep their target — their own swap path
  // resolves the slot.
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary != phy || state.boundary.has_value() ||
        state.primary == phy) {
      continue;
    }
    // The member keeps running (it is being promoted): stop the carriers
    // of the RUs it no longer backs, or their FAPI-starvation watchdogs
    // kill the whole process once the null feeds cease.
    port_.to_phy(phy, FapiMessage{state.ru,
                                  config_.slots.slot_at(port_.now()),
                                  StopRequest{state.ru}});
    state.secondary = PhyId{};
    const PhyId next = next_pool_standby();
    if (next != PhyId{}) {
      assign_standby(state, next);
      ++stats_.standbys_reassigned;
    } else {
      SLOG_WARN("orion", "%s ru=%u standby pool exhausted: cell unprotected",
                name_.c_str(), state.ru.value());
      notify_pool(PoolEvent::kExhausted, phy);
    }
  }
}

PhyId OrionCore::active_phy(RuId ru) const {
  const auto it = rus_.find(ru.value());
  return it == rus_.end() ? PhyId{} : it->second.primary;
}

PhyId OrionCore::standby_phy(RuId ru) const {
  const auto it = rus_.find(ru.value());
  return it == rus_.end() ? PhyId{} : it->second.secondary;
}

std::pair<PhyId, PhyId> OrionCore::route_for_slot(RuState& state,
                                                  std::int64_t slot) {
  if (state.boundary.has_value() && slot >= *state.boundary) {
    // The migration boundary is reached by the request stream: finalize
    // the swap. The old active keeps draining pipelined responses for
    // pre-boundary slots (Fig 7).
    state.previous = state.primary;
    state.previous_until_slot = *state.boundary;
    state.swap_wall_slot = config_.slots.slot_at(port_.now());
    std::swap(state.primary, state.secondary);
    const std::int64_t boundary = state.previous_until_slot;
    state.boundary.reset();
    if (pool_mode_ && state.secondary != PhyId{} &&
        state.secondary == state.failed_phy) {
      // Failover swap: the slot vacated by the dead primary is refilled
      // from the shared pool (or left empty until a member returns).
      state.secondary = PhyId{};
      const PhyId next = next_pool_standby();
      if (next != PhyId{}) {
        assign_standby(state, next);
        ++stats_.standbys_reassigned;
      }
    }
    SLOG_INFO("orion", "%s FAPI switched to phy=%u from slot %lld",
              name_.c_str(), state.primary.value(),
              static_cast<long long>(slot));
    if (tap_ != nullptr) {
      tap_->on_swap_finalized(state.ru, slot, state.primary, boundary);
    }
    SLS_TRACE_EVENT(port_, obs::ObsEvent::kSwapFinalized,
                    state.primary.value(), boundary);
  }
  return {state.primary, state.secondary};
}

void OrionCore::on_l2_request(FapiMessage&& msg) {
  auto it = rus_.find(msg.ru.value());
  if (it == rus_.end()) {
    return;  // RU not managed by this Orion
  }
  auto& state = it->second;

  switch (msg.type()) {
    case FapiMsgType::kConfigRequest:
    case FapiMsgType::kStartRequest:
      // Intercept and store initialization messages (§6.3) ...
      state.init_messages.push_back(msg);
      [[fallthrough]];
    case FapiMsgType::kStopRequest:
      // ... and send lifecycle to both the primary and the hot standby.
      port_.to_phy(state.primary, msg);
      if (state.secondary != state.failed_phy) {
        port_.to_phy(state.secondary, msg);
      }
      return;
    case FapiMsgType::kDlTtiRequest:
    case FapiMsgType::kUlTtiRequest:
    case FapiMsgType::kTxDataRequest: {
      const auto type = msg.type();
      const auto [real, standby] = route_for_slot(state, msg.slot);
      ++stats_.real_requests_forwarded;
      if (type == FapiMsgType::kUlTtiRequest) {
        SLS_TRACE_STAGE(port_, obs::SlotStage::kOrionForward,
                        msg.ru.value(), msg.slot);
      }
      port_.to_phy(real, msg);
      if (standby == state.failed_phy || standby == PhyId{}) {
        // Consumed by a failover (or the pool is exhausted): nothing
        // flows to it until a replacement standby is adopted.
        return;
      }
      if (config_.standby_mode == StandbyMode::kDuplicate) {
        port_.to_phy(standby, msg);  // strawman: standby does real work
      } else if (type != FapiMsgType::kTxDataRequest) {
        const auto null_msg = type == FapiMsgType::kDlTtiRequest
                                  ? make_null_dl_tti(msg.ru, msg.slot)
                                  : make_null_ul_tti(msg.ru, msg.slot);
        ++stats_.null_requests_sent;
        stats_.fapi_bytes_to_standby += serialized_fapi_size(null_msg);
        port_.to_phy(standby, null_msg);
      }
      return;
    }
    default:
      return;
  }
}

void OrionCore::on_parse_error(PhyId from, const char* error) {
  ++stats_.parse_errors;
  SLOG_WARN("orion", "%s dropped unparseable datagram from phy %u: %s",
            name_.c_str(), from.value(), error == nullptr ? "?" : error);
  port_.to_l2(FapiMessage{
      RuId{}, 0,
      ErrorIndication{kFapiMsgCorrupt, FapiMsgType::kErrorIndication}});
}

void OrionCore::on_phy_indication(PhyId from, FapiMessage&& msg) {
  const auto it = rus_.find(msg.ru.value());
  if (it == rus_.end()) {
    return;
  }
  auto& state = it->second;
  const std::int64_t wall_slot = config_.slots.slot_at(port_.now());

  // Close the Fig 7 drain window: the pipeline is only a couple of
  // slots deep, so responses from the old primary arriving long after
  // the swap are stale — expire the route state rather than letting a
  // later migration back to the same PHY wrongly accept them.
  if (state.previous_until_slot >= 0 && state.swap_wall_slot >= 0 &&
      wall_slot >= state.swap_wall_slot + config_.drain_window_slots) {
    ++stats_.drain_windows_expired;
    SLS_TRACE_EVENT(port_, obs::ObsEvent::kDrainExpired,
                    state.previous.value(), state.previous_until_slot);
    state.previous = PhyId{};
    state.previous_until_slot = -1;
    state.swap_wall_slot = -1;
  }

  // False-positive failover recovery: a *fresh* indication from the PHY
  // we failed away from proves the process is alive — the detector
  // tripped on lost heartbeats, not a dead PHY. Refill the standby slot
  // (its keepalive feed resumes) instead of starving a healthy process
  // to death. Staleness-guarded so delayed datagrams from before a real
  // crash cannot resurrect a corpse.
  if (state.failed_phy == from &&
      wall_slot - msg.slot <= kRehabFreshnessSlots) {
    for (auto& [other_ru, other_state] : rus_) {
      if (other_state.failed_phy == from) {
        other_state.failed_phy = PhyId{};
        ++stats_.rehabilitations;
        if (tap_ != nullptr) {
          tap_->on_rehabilitate(RuId{other_ru}, from);
        }
        SLS_TRACE_EVENT(port_, obs::ObsEvent::kRehabilitated, from.value(),
                        msg.slot);
      }
    }
    SLOG_WARN("orion",
              "%s false-positive failover: phy %u is alive, standby feed "
              "resumes",
              name_.c_str(), from.value());
  }

  bool forward = false;
  bool drained = false;
  if (from == state.primary) {
    forward = true;
  } else if (from == state.previous && state.previous_until_slot >= 0 &&
             msg.slot < state.previous_until_slot) {
    // Pipelined uplink results from the pre-migration primary (Fig 7).
    forward = true;
    drained = true;
  }

  if (tap_ != nullptr) {
    tap_->on_indication(from, msg, forward, drained,
                        state.previous_until_slot);
  }
  if (!forward) {
    ++stats_.standby_responses_dropped;
    return;
  }
  if (drained) {
    ++stats_.drained_responses_accepted;
    SLS_TRACE_EVENT(port_, obs::ObsEvent::kDrainAccepted, from.value(),
                    msg.slot);
  }
  ++stats_.responses_forwarded;
  port_.to_l2(std::move(msg));
}

MigrationEvent OrionCore::start_migration(RuState& state,
                                          MigrationEvent::Kind kind,
                                          std::int64_t boundary,
                                          Nanos notified_at) {
  state.boundary = boundary;
  MigrateOnSlotCmd cmd;
  cmd.ru = state.ru;
  cmd.dest_phy = state.secondary;
  cmd.slot = SlotPoint::from_index(boundary, config_.slots);
  port_.to_switch(serialize_migrate_cmd(cmd), config_.cmd_extra_delay);
  const MigrationEvent event{kind,        state.ru, state.primary,
                             state.secondary, boundary, port_.now(),
                             notified_at};
  migration_log_.push_back(event);
  if (tap_ != nullptr) {
    tap_->on_migration(event);
  }
  return event;
}

void OrionCore::migrate(RuId ru, std::int64_t boundary_slot) {
  auto it = rus_.find(ru.value());
  if (it == rus_.end()) {
    return;
  }
  auto& state = it->second;
  start_migration(state, MigrationEvent::Kind::kPlanned, boundary_slot, 0);
  SLS_TRACE_EVENT(port_, obs::ObsEvent::kPlannedMigration,
                  state.secondary.value(), boundary_slot);
  SLOG_INFO("orion", "%s planned migration ru=%u phy %u -> %u at slot %lld",
            name_.c_str(), ru.value(), state.primary.value(),
            state.secondary.value(), static_cast<long long>(boundary_slot));
}

void OrionCore::initiate_failover(RuState& state, Nanos notified_at,
                                  bool deferred) {
  // Pick the earliest boundary that the request stream has not yet
  // passed, and steer both the FAPI and the fronthaul there.
  const std::int64_t boundary =
      config_.slots.slot_at(port_.now()) + config_.failover_margin_slots;
  const MigrationEvent event = start_migration(
      state, MigrationEvent::Kind::kFailover, boundary, notified_at);
  SLS_TRACE_EVENT(port_, obs::ObsEvent::kFailoverInitiated,
                  state.failed_phy.value(), boundary);
  SLOG_WARN("orion",
            "%s %sFAILOVER ru=%u phy %u -> %u at slot %lld (notified %.3f ms)",
            name_.c_str(), deferred ? "DEFERRED " : "",
            state.ru.value(), state.primary.value(),
            state.secondary.value(), static_cast<long long>(boundary),
            to_millis(notified_at));
  if (on_failover_) {
    on_failover_(event);
  }
}

void OrionCore::on_failure_notification(PhyId failed) {
  ++stats_.failure_notifications;
  SLS_TRACE_EVENT(port_, obs::ObsEvent::kNotifyReceived, failed.value(),
                  config_.slots.slot_at(port_.now()));
  const Nanos notified_at = port_.now();
  bool any_failover = false;
  bool any_duplicate = false;
  bool any_unprotected = false;
  std::vector<PhyId> promoted;
  for (auto& [ru_value, state] : rus_) {
    // A notification for a phy this RU already failed away from is a
    // re-delivery of a finished episode, not a new failure.
    if (state.failed_phy == failed) {
      any_duplicate = true;
    }
    if (state.primary != failed) {
      continue;
    }
    // Idempotence: the switch (or the network) can deliver the same
    // notification more than once. A failover for this RU is already
    // pending — re-running it would move the boundary later and log a
    // duplicate MigrationEvent.
    if (state.boundary.has_value()) {
      any_duplicate = true;
      continue;
    }
    if (state.failed_phy == failed) {
      continue;  // re-delivered unprotected episode, counted above
    }
    if (state.secondary == PhyId{}) {
      // Pool exhausted at failure time: enter the explicit unprotected
      // state. No stale swap — the cell stays down until
      // add_pool_standby supplies a member and executes the deferred
      // failover.
      state.failed_phy = failed;
      any_unprotected = true;
      SLOG_WARN("orion",
                "%s ru=%u UNPROTECTED: primary phy %u failed with the "
                "standby pool exhausted",
                name_.c_str(), state.ru.value(), failed.value());
      notify_pool(PoolEvent::kExhausted, failed);
      continue;
    }
    any_failover = true;
    state.failed_phy = failed;
    if (std::find(promoted.begin(), promoted.end(), state.secondary) ==
        promoted.end()) {
      promoted.push_back(state.secondary);
    }
    initiate_failover(state, notified_at, /*deferred=*/false);
  }
  // A promotion consumes the pool member: every other RU backed by it
  // is re-pointed (next member or unprotected), never left aimed at a
  // standby that is becoming someone's primary.
  for (const PhyId p : promoted) {
    consume_pool_member(p);
  }
  if (any_failover) {
    ++stats_.failovers_initiated;
    // Stop the switch from watching the consumed PHY: stray heartbeats
    // from a half-dead process must not re-arm its failure detector.
    port_.to_switch(serialize_unwatch_cmd(UnwatchPhyCmd{failed}), 0);
    // The detector must keep covering whoever now serves the RU — the
    // promoted standby may have been unwatched by an earlier episode.
    for (const PhyId p : promoted) {
      port_.to_switch(serialize_watch_cmd(WatchPhyCmd{p}), 0);
    }
    return;
  }
  if (any_unprotected) {
    ++stats_.unprotected_notifications;
    return;
  }
  if (any_duplicate) {
    ++stats_.duplicate_notifications_ignored;
    return;
  }
  // Pool mode only: the dead PHY may be a *standby* (primary nowhere).
  // Mark the member dead and re-point every RU it backed — including a
  // mid-consume target (an RU with a pending boundary aimed at it),
  // which is redirected to the next member or falls back unprotected.
  if (pool_mode_) {
    bool standby_hit = false;
    for (auto& m : pool_) {
      if (m.id == failed && m.state != PoolState::kDead) {
        m.state = PoolState::kDead;
        standby_hit = true;
        notify_pool(PoolEvent::kMemberDead, failed);
      }
    }
    for (auto& [rv, state] : rus_) {
      if (state.secondary != failed || state.primary == failed) {
        continue;
      }
      standby_hit = true;
      state.secondary = PhyId{};
      const PhyId next = next_pool_standby();
      if (state.boundary.has_value()) {
        // The failover target itself died before the swap: redirect the
        // pending migration — never swap onto a corpse.
        state.boundary.reset();
        if (next != PhyId{}) {
          assign_standby(state, next);
          ++stats_.standbys_reassigned;
          initiate_failover(state, notified_at, /*deferred=*/false);
          consume_pool_member(next);
        } else {
          SLOG_WARN("orion",
                    "%s ru=%u UNPROTECTED: failover target phy %u died "
                    "mid-consume with the pool exhausted",
                    name_.c_str(), state.ru.value(), failed.value());
        }
      } else if (next != PhyId{}) {
        assign_standby(state, next);
        ++stats_.standbys_reassigned;
      }
    }
    if (standby_hit) {
      ++stats_.standby_failures;
      return;
    }
  }
  ++stats_.stale_notifications_ignored;
}

void OrionCore::adopt_standby(RuId ru, PhyId phy) {
  auto it = rus_.find(ru.value());
  if (it == rus_.end()) {
    return;
  }
  auto& state = it->second;
  state.secondary = phy;
  state.failed_phy = PhyId{};  // episode over: the slot is filled again
  // Replay the stored initialization sequence so the new standby brings
  // up PHY processing for this RU (§6.3).
  for (const auto& msg : state.init_messages) {
    port_.to_phy(phy, msg);
  }
  if (tap_ != nullptr) {
    tap_->on_adopt(ru, phy);
  }
  SLS_TRACE_EVENT(port_, obs::ObsEvent::kAdoptStandby, phy.value(),
                  config_.slots.slot_at(port_.now()));
  SLOG_INFO("orion", "%s adopted new standby phy=%u for ru=%u", name_.c_str(),
            phy.value(), ru.value());
}

void OrionCore::adopt_standby_all(PhyId phy) {
  if (pool_mode_) {
    add_pool_standby(phy);
    return;
  }
  // A PHY can be the standby of several RUs; each needs its own init
  // replay, or the others stay cold.
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary == phy || state.failed_phy == phy) {
      adopt_standby(RuId{ru_value}, phy);
    }
  }
}

// ---------------------------------------------------------------------
// EpisodeLedger
// ---------------------------------------------------------------------

const char* episode_event_name(EpisodeEventKind kind) {
  switch (kind) {
    case EpisodeEventKind::kDetected:
      return "detected";
    case EpisodeEventKind::kFailoverInitiated:
      return "failover_initiated";
    case EpisodeEventKind::kSwapFinalized:
      return "swap_finalized";
    case EpisodeEventKind::kStandbyAdopted:
      return "standby_adopted";
  }
  return "?";
}

void EpisodeLedger::record(EpisodeEventKind kind, RuId ru, PhyId phy,
                           Nanos at) {
  events_.push_back(
      EpisodeEvent{kind, ru, phy, core_.slots().slot_at(at), at});
}

void EpisodeLedger::on_migration(const MigrationEvent& event) {
  if (event.kind != MigrationEvent::Kind::kFailover) {
    return;
  }
  record(EpisodeEventKind::kDetected, event.ru, event.from,
         event.notification_at);
  record(EpisodeEventKind::kFailoverInitiated, event.ru, event.from,
         event.initiated_at);
}

void EpisodeLedger::on_swap_finalized(RuId ru, std::int64_t /*slot*/,
                                      PhyId new_primary,
                                      std::int64_t /*boundary_slot*/) {
  record(EpisodeEventKind::kSwapFinalized, ru, new_primary, core_.now());
}

void EpisodeLedger::on_adopt(RuId ru, PhyId phy) {
  record(EpisodeEventKind::kStandbyAdopted, ru, phy, core_.now());
}

}  // namespace slingshot
