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

void OrionCore::set_ru_primary(RuId ru, PhyId primary) {
  auto& state = rus_[ru.value()];
  state.ru = ru;
  state.primary = primary;
  const PhyId next = next_pool_standby();
  if (next != PhyId{}) {
    assign_standby(state, next);
  }
}

void OrionCore::add_pool_standby(PhyId phy) {
  const auto member = std::find_if(pool_.begin(), pool_.end(),
                                   [&](auto& m) { return m.id == phy; });
  if (member == pool_.end()) {
    pool_.push_back(PoolMember{phy, PoolState::kAvailable});
  } else {
    member->state = PoolState::kAvailable;  // a revived member rejoins
  }
  std::erase(suspects_, phy);
  notify_pool(PoolEvent::kRestored, phy);
  // A revived PHY that kept its cells while suspect comes back cold:
  // replay every one of their init sequences.
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary == phy) {
      assign_standby(state, phy);
    }
  }
  restore_protection();
}

void OrionCore::restore_protection() {
  // Deferred failovers first: an unprotected cell whose primary already
  // died has been waiting for exactly this — give it a live standby and
  // migrate now. Counted separately from notification-driven failovers
  // so the notification identity stays an identity.
  for (auto& [ru_value, state] : rus_) {
    if (state.boundary.has_value() || state.failed_phy == PhyId{} ||
        state.failed_phy != state.primary) {
      continue;
    }
    const PhyId target = failover_target(state);
    if (target == PhyId{}) {
      continue;
    }
    ++stats_.deferred_failovers_executed;
    initiate_failover(state, port_.now(), /*deferred=*/true);
    consume_pool_member(target);
  }
  // Then refill vacant secondary slots (empty, or held by the PHY the
  // cell failed away from) of cells whose primary is alive.
  for (auto& [ru_value, state] : rus_) {
    if (standby_of(state) != PhyId{} || state.boundary.has_value()) {
      continue;
    }
    if (state.failed_phy != PhyId{} && state.failed_phy == state.primary) {
      continue;  // dead primary and no live standby left above
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
  return std::size_t(std::count_if(pool_.begin(), pool_.end(), [&](auto& m) {
    return m.state == PoolState::kAvailable && !suspect(m.id);
  }));
}

bool OrionCore::is_primary(PhyId phy) const {
  return std::any_of(rus_.begin(), rus_.end(),
                     [&](auto& entry) { return entry.second.primary == phy; });
}

bool OrionCore::in_pool(PhyId phy) const {
  return std::any_of(pool_.begin(), pool_.end(),
                     [&](auto& m) { return m.id == phy; });
}

bool OrionCore::suspect(PhyId phy) const {
  return std::find(suspects_.begin(), suspects_.end(), phy) != suspects_.end();
}

PhyId OrionCore::next_pool_standby() const {
  for (const auto& m : pool_) {
    // A member that is (or is becoming) a primary is not a standby,
    // whatever its recorded state.
    if (m.state == PoolState::kAvailable && !is_primary(m.id) &&
        !suspect(m.id)) {
      return m.id;
    }
  }
  return PhyId{};
}

void OrionCore::assign_standby(RuState& state, PhyId phy) {
  state.secondary = phy;
  if (state.failed_phy == phy) {
    state.failed_phy = PhyId{};  // revived into the cell it failed from
  }
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

void OrionCore::release_standby(RuState& state) {
  // The standby may be alive and still backing other cells: stop this
  // RU's carrier on it, or its FAPI-starvation watchdog kills the whole
  // process once this RU's null feed ceases.
  port_.to_phy(state.secondary,
               FapiMessage{state.ru, config_.slots.slot_at(port_.now()),
                           StopRequest{state.ru}});
  state.secondary = PhyId{};
}

PhyId OrionCore::failover_target(RuState& state) {
  state.secondary = standby_of(state);  // drop a PHY it failed away from
  if (state.secondary != PhyId{} && !suspect(state.secondary)) {
    return state.secondary;
  }
  const PhyId next = next_pool_standby();
  if (next != PhyId{}) {
    if (state.secondary != PhyId{}) {
      release_standby(state);
    }
    assign_standby(state, next);
  }
  return next;
}

void OrionCore::return_to_pool(PhyId phy) {
  if (is_primary(phy)) {
    return;
  }
  for (auto& m : pool_) {
    if (m.id == phy && m.state == PoolState::kConsumed) {
      m.state = PoolState::kAvailable;
      notify_pool(PoolEvent::kRestored, phy);
    }
  }
}

void OrionCore::consume_pool_member(PhyId phy) {
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
    release_standby(state);
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
  return it == rus_.end() ? PhyId{} : standby_of(it->second);
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
    if (state.secondary != state.failed_phy) {
      return_to_pool(state.secondary);  // a live demoted member
    } else {
      // Failover swap: the slot vacated by the dead primary is refilled
      // from the shared pool. Without a free member the failed PHY keeps
      // the slot, fed nothing, until it is revived or rehabilitated.
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
      if (state.secondary != PhyId{} && state.secondary != state.failed_phy) {
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

  // False-positive recovery: a *fresh* indication from a PHY we failed
  // away from, or from a suspect standby, proves the process is alive —
  // the detector tripped on lost heartbeats, not a dead PHY.
  // Staleness-guarded so delayed datagrams from before a real crash
  // cannot resurrect a corpse.
  if ((state.failed_phy == from || suspect(from)) &&
      wall_slot - msg.slot <= kRehabFreshnessSlots) {
    rehabilitate(from, msg.slot);
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

void OrionCore::rehabilitate(PhyId phy, std::int64_t slot) {
  // A failed-over primary gets its standby slot back (its keepalive feed
  // resumes) instead of being starved to death ...
  bool orphaned = false;
  for (auto& [ru_value, state] : rus_) {
    if (state.failed_phy == phy) {
      state.failed_phy = PhyId{};
      ++stats_.rehabilitations;
      if (tap_ != nullptr) {
        tap_->on_rehabilitate(RuId{ru_value}, phy);
      }
      SLS_TRACE_EVENT(port_, obs::ObsEvent::kRehabilitated, phy.value(), slot);
      if (state.primary != phy && state.secondary != phy &&
          !state.boundary.has_value()) {
        // The swap refilled the slot it vacated before it spoke: it
        // backs nothing here, and its started carrier would starve.
        port_.to_phy(phy, FapiMessage{state.ru,
                                      config_.slots.slot_at(port_.now()),
                                      StopRequest{state.ru}});
        orphaned = true;
      }
    }
  }
  // ... or, when a pool member already holds that slot, joins the pool
  // as a free member ...
  if (orphaned && !is_primary(phy)) {
    add_pool_standby(phy);
  } else {
    return_to_pool(phy);
  }
  // ... and a suspect standby is a failover target again.
  if (suspect(phy)) {
    std::erase(suspects_, phy);
    ++stats_.rehabilitations;
    SLS_TRACE_EVENT(port_, obs::ObsEvent::kRehabilitated, phy.value(), slot);
    if (in_pool(phy)) {
      notify_pool(PoolEvent::kRestored, phy);
    }
    restore_protection();
  }
  SLOG_WARN("orion", "%s false-positive detection: phy %u is alive",
            name_.c_str(), phy.value());
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
  // The destination becomes this cell's primary: like a failover
  // promotion, it consumes the pool member and re-points the other
  // cells it backed.
  consume_pool_member(state.secondary);
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
    const PhyId target = failover_target(state);
    state.failed_phy = failed;
    if (target == PhyId{}) {
      // No live standby at failure time: enter the explicit unprotected
      // state. No stale swap — the cell stays down until a live standby
      // appears (add_pool_standby, or a suspect standby speaking) and
      // executes the deferred failover.
      any_unprotected = true;
      SLOG_WARN("orion",
                "%s ru=%u UNPROTECTED: primary phy %u failed with no live "
                "standby",
                name_.c_str(), state.ru.value(), failed.value());
      notify_pool(PoolEvent::kExhausted, failed);
      continue;
    }
    any_failover = true;
    if (std::find(promoted.begin(), promoted.end(), target) ==
        promoted.end()) {
      promoted.push_back(target);
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
  if (any_duplicate || suspect(failed)) {
    ++stats_.duplicate_notifications_ignored;
    return;
  }
  // The dead PHY is a standby (primary nowhere): suspect until it
  // speaks. It keeps its cells and its null feed and no command goes
  // out, so a false positive costs nothing; a pending boundary aimed at
  // it is redirected to the next member — never a swap onto a corpse.
  const bool member = in_pool(failed);
  const bool backs_a_cell = std::any_of(rus_.begin(), rus_.end(), [&](auto& e) {
    return e.second.secondary == failed;
  });
  if (!member && !backs_a_cell) {
    ++stats_.stale_notifications_ignored;
    return;
  }
  ++stats_.standby_failures;
  suspects_.push_back(failed);
  if (member) {
    notify_pool(PoolEvent::kMemberDead, failed);
  }
  for (auto& [ru_value, state] : rus_) {
    if (state.secondary != failed || !state.boundary.has_value()) {
      continue;
    }
    state.boundary.reset();
    const PhyId next = failover_target(state);
    if (next == PhyId{}) {
      SLOG_WARN("orion",
                "%s ru=%u UNPROTECTED: failover target phy %u died "
                "mid-consume with the pool exhausted",
                name_.c_str(), state.ru.value(), failed.value());
      continue;
    }
    ++stats_.standbys_reassigned;
    initiate_failover(state, notified_at, /*deferred=*/false);
    consume_pool_member(next);
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
