#include "inject/invariant_checker.h"

#include <algorithm>

#include "common/log.h"

namespace slingshot {

InvariantChecker::InvariantChecker(Testbed& testbed,
                                   InvariantCheckerConfig config)
    : tb_(testbed), config_(config), slots_(testbed.config().slots) {
  tb_.mbox().set_tap(this);
  if (tb_.config().mode == TestbedMode::kSlingshot) {
    tb_.orion().set_tap(this);
  }
  for (int p = 0; p < tb_.num_phys(); ++p) {
    if (ShmFapiPipe* pipe = tb_.pipe_to_phy(p)) {
      pipe->set_tap([this, phy = tb_.phy_id(p)](const FapiMessage& m) {
        on_fapi_to_phy(phy, m);
      });
    }
  }
  const Nanos first = slots_.slot_start(slots_.next_slot_after(tb_.sim().now()));
  tick_ = tb_.sim().every(first, slots_.slot_duration, [this] { on_slot_tick(); });
}

InvariantChecker::~InvariantChecker() {
  tick_.cancel();
  tb_.mbox().set_tap(nullptr);
  if (tb_.config().mode == TestbedMode::kSlingshot) {
    tb_.orion().set_tap(nullptr);
  }
  for (int p = 0; p < tb_.num_phys(); ++p) {
    if (ShmFapiPipe* pipe = tb_.pipe_to_phy(p)) {
      pipe->set_tap({});
    }
  }
}

std::int64_t InvariantChecker::now_slot() const {
  return slots_.slot_at(tb_.sim().now());
}

std::int64_t InvariantChecker::wrap_window() const {
  return std::int64_t(SlotPoint::kFrames) * slots_.slots_per_frame;
}

void InvariantChecker::violation(const std::string& what) {
  ++violation_count_;
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back({tb_.sim().now(), what});
    SLOG_WARN("inject", "INVARIANT VIOLATION: %s", what.c_str());
  }
}

std::string InvariantChecker::report() const {
  std::string out = "invariant violations: " +
                    std::to_string(violation_count_) + "\n";
  for (const auto& v : violations_) {
    out += "  [" + std::to_string(v.at) + "ns] " + v.what + "\n";
  }
  return out;
}

std::size_t InvariantChecker::count_matching(const std::string& needle) const {
  std::size_t n = 0;
  for (const auto& v : violations_) {
    if (v.what.find(needle) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------------
// FAPI pipe taps (I1, I6)
// ---------------------------------------------------------------------

void InvariantChecker::on_fapi_to_phy(PhyId phy, const FapiMessage& msg) {
  const auto type = msg.type();
  if (type != FapiMsgType::kDlTtiRequest && type != FapiMsgType::kUlTtiRequest) {
    return;
  }
  const std::pair<std::uint8_t, std::uint8_t> key{phy.value(), msg.ru.value()};
  auto [it, inserted] = first_seen_.try_emplace(key, msg.slot);
  if (!inserted) {
    it->second = std::min(it->second, msg.slot);
  }
  auto& counts = tti_counts_[msg.slot][key];
  if (type == FapiMsgType::kDlTtiRequest) {
    ++counts.dl;
  } else {
    ++counts.ul;
  }

  // I6: a failed PHY must receive nothing after the failover swap until
  // it is re-adopted (§6.3); a bounded amount of in-flight FAPI is
  // tolerated around the swap itself.
  auto& t = track(phy);
  if (t.failed_episode_open && t.episode_swap_slot >= 0) {
    const auto slot = now_slot();
    if (slot > t.episode_swap_slot + config_.dead_fapi_grace_slots &&
        slot != t.last_i6_report_slot) {
      t.last_i6_report_slot = slot;
      violation("I6: FAPI to failed phy " + std::to_string(phy.value()) +
                " at slot " + std::to_string(slot) + ", " +
                std::to_string(slot - t.episode_swap_slot) +
                " slots after failover swap (awaiting revive or "
                "rehabilitation)");
    }
  }
}

// ---------------------------------------------------------------------
// Per-slot bookkeeping (I1 finalization, liveness, I3 timeouts)
// ---------------------------------------------------------------------

void InvariantChecker::on_slot_tick() {
  const std::int64_t slot = now_slot();

  auto sample = [&](PhyId id, bool alive) {
    auto& t = track(id);
    if (!t.ever_seen) {
      t.ever_seen = true;
      t.alive = alive;
      t.alive_since_slot = slot;
      t.dead_since_slot = alive ? -1 : slot;
      return;
    }
    if (alive != t.alive) {
      t.alive = alive;
      if (alive) {
        t.alive_since_slot = slot;
      } else {
        t.dead_since_slot = slot;
      }
    }
  };
  for (int p = 0; p < tb_.num_phys(); ++p) {
    sample(tb_.phy_id(p), tb_.phy(p).alive());
  }
  // I1 follows Orion's role assignment: a (phy, ru) stream is owed
  // requests only while the PHY is the RU's primary or standby. A pool
  // standby promoted to one cell's primary stops backing the others.
  if (tb_.config().mode == TestbedMode::kSlingshot) {
    for (const auto& [key, first] : first_seen_) {
      const RuId ru{key.second};
      const bool assigned = tb_.orion().active_phy(ru).value() == key.first ||
                            tb_.orion().standby_phy(ru).value() == key.first;
      auto& since = role_since_.try_emplace(key, -1).first->second;
      if (!assigned) {
        since = -1;
      } else if (since < 0) {
        since = slot;
      }
    }
  }

  // Finalize I1 for slots old enough that all their requests (including
  // compensation nulls) must have been delivered.
  const std::int64_t target = slot - config_.fapi_grace_slots;
  if (finalized_through_ < 0) {
    finalized_through_ = target - 1;  // don't back-check pre-attach slots
  }
  while (finalized_through_ < target) {
    finalize_slot(++finalized_through_);
  }

  // I3 timeouts: a migration whose command never reached the middlebox,
  // or whose boundary passed without execution, is a routing divergence
  // (FAPI swapped but fronthaul did not, or vice versa).
  for (auto& m : migrations_) {
    if (!m.command_seen && !m.missing_cmd_reported &&
        slot - m.issued_slot > config_.cmd_grace_slots) {
      m.missing_cmd_reported = true;
      violation("I3: migrate_on_slot for ru " + std::to_string(m.ru.value()) +
                " (boundary " + std::to_string(m.boundary_slot) +
                ") never reached the middlebox");
    }
    if (m.command_seen && !m.executed && !m.missing_exec_reported &&
        slot > m.boundary_slot + config_.cmd_grace_slots) {
      m.missing_exec_reported = true;
      violation("I3: migration for ru " + std::to_string(m.ru.value()) +
                " never executed at the middlebox (boundary " +
                std::to_string(m.boundary_slot) + ")");
    }
  }
  std::erase_if(migrations_, [&](const PendingMigration& m) {
    return m.executed && slot > m.boundary_slot + 64;
  });

  // Bound I2 memory.
  std::erase_if(dl_sources_, [&](const auto& kv) {
    return kv.first.second < slot - 64;
  });
}

void InvariantChecker::finalize_slot(std::int64_t slot) {
  ++slots_checked_;
  const auto it = tti_counts_.find(slot);
  for (const auto& [key, first] : first_seen_) {
    if (slot < first + 2) {
      continue;  // stream still starting up
    }
    const auto& t = phys_.count(key.first) != 0U ? phys_.at(key.first)
                                                 : PhyTrack{};
    // I1 applies only to a PHY that is alive, settled, and not a failed
    // PHY awaiting replacement (which by design receives nothing).
    if (!t.ever_seen || !t.alive || t.failed_episode_open ||
        slot < t.alive_since_slot + config_.startup_ramp_slots) {
      continue;
    }
    if (tb_.config().mode == TestbedMode::kSlingshot) {
      const auto role = role_since_.find(key);
      if (role == role_since_.end() || role->second < 0 ||
          slot < role->second + config_.startup_ramp_slots) {
        continue;
      }
    }
    TtiCounts counts;
    if (it != tti_counts_.end()) {
      const auto cit = it->second.find(key);
      if (cit != it->second.end()) {
        counts = cit->second;
      }
    }
    if (counts.dl < 1 || counts.ul < 1) {
      violation("I1: phy " + std::to_string(key.first) + " ru " +
                std::to_string(key.second) + " slot " + std::to_string(slot) +
                " missing TTI requests (dl=" + std::to_string(counts.dl) +
                " ul=" + std::to_string(counts.ul) + ")");
    } else if (counts.dl > 3 || counts.ul > 3) {
      violation("I1: phy " + std::to_string(key.first) + " ru " +
                std::to_string(key.second) + " slot " + std::to_string(slot) +
                " flooded with TTI requests (dl=" + std::to_string(counts.dl) +
                " ul=" + std::to_string(counts.ul) + ")");
    }
  }
  if (it != tti_counts_.end()) {
    tti_counts_.erase(tti_counts_.begin(), std::next(it));
  } else {
    tti_counts_.erase(tti_counts_.begin(), tti_counts_.lower_bound(slot));
  }
}

// ---------------------------------------------------------------------
// MboxTap (I2, I3, I5)
// ---------------------------------------------------------------------

void InvariantChecker::on_command(const MigrateOnSlotCmd& cmd,
                                  std::int64_t boundary_wrapped) {
  if (tb_.config().mode != TestbedMode::kSlingshot) {
    return;
  }
  PendingMigration* match = nullptr;
  for (auto& m : migrations_) {
    if (m.ru == cmd.ru && m.dest == cmd.dest_phy && !m.command_seen) {
      match = &m;
    }
  }
  if (match == nullptr) {
    violation("I3: middlebox received a migrate command for ru " +
              std::to_string(cmd.ru.value()) +
              " with no matching Orion migration");
    return;
  }
  match->command_seen = true;
  // TTI-boundary alignment (§5.1): the middlebox must interpret the
  // boundary as the same TTI the Orion meant. A mismatch means the two
  // sides disagree on the slot numbering (e.g. numerology mismatch).
  const std::int64_t expected =
      SlotPoint::from_index(match->boundary_slot, slots_).wrapped_index(slots_);
  if (boundary_wrapped != expected) {
    violation("I3: middlebox boundary interpretation " +
              std::to_string(boundary_wrapped) + " != Orion's boundary " +
              std::to_string(expected) + " for ru " +
              std::to_string(cmd.ru.value()) + " (slot-config mismatch)");
  }
}

void InvariantChecker::on_unwatch_command(PhyId /*phy*/) {}

void InvariantChecker::on_migration_executed(RuId ru, PhyId dest,
                                             std::int64_t pkt_wrapped,
                                             std::int64_t boundary_wrapped) {
  if (tb_.config().mode != TestbedMode::kSlingshot) {
    return;
  }
  PendingMigration* match = nullptr;
  for (auto& m : migrations_) {
    if (m.ru == ru && m.dest == dest && m.command_seen && !m.executed) {
      match = &m;
    }
  }
  if (match == nullptr) {
    violation("I3: migration executed at the middlebox for ru " +
              std::to_string(ru.value()) + " with no pending command");
    return;
  }
  match->executed = true;
  const std::int64_t window = wrap_window();
  const std::int64_t skew =
      ((pkt_wrapped - boundary_wrapped) % window + window) % window;
  if (skew > config_.boundary_skew_slots) {
    violation("I3: migration for ru " + std::to_string(ru.value()) +
              " executed " + std::to_string(skew) +
              " slots past its boundary TTI");
  }
}

void InvariantChecker::on_dl_packet(PhyId src, RuId ru,
                                    std::int64_t pkt_wrapped, bool forwarded) {
  if (!forwarded) {
    return;
  }
  // Unwrap the packet's slot near the current slot so the I2 key is
  // unique across wrap windows.
  const std::int64_t window = wrap_window();
  const std::int64_t slot = now_slot();
  std::int64_t unwrapped = slot - ((slot - pkt_wrapped) % window + window) % window;
  if (slot - unwrapped > window / 2) {
    unwrapped += window;
  }
  const std::pair<std::uint8_t, std::int64_t> key{ru.value(), unwrapped};
  const auto [it, inserted] = dl_sources_.try_emplace(key, src.value());
  if (!inserted && it->second != src.value()) {
    violation("I2: RU " + std::to_string(ru.value()) +
              " heard downlink from phy " + std::to_string(it->second) +
              " and phy " + std::to_string(src.value()) + " in slot " +
              std::to_string(unwrapped));
  }
}

void InvariantChecker::on_failure_notify(PhyId phy) {
  auto& t = track(phy);
  if (t.failed_episode_open) {
    violation("I5: duplicate failure notification for phy " +
              std::to_string(phy.value()) + " in an open failure episode");
  }
  if (watch_known_.count(phy.value()) != 0U &&
      watched_.count(phy.value()) == 0U) {
    violation("I5: failure notification for unwatched phy " +
              std::to_string(phy.value()));
  }
}

void InvariantChecker::on_watch_changed(PhyId phy, bool watched) {
  watch_known_.insert(phy.value());
  if (watched) {
    watched_.insert(phy.value());
  } else {
    watched_.erase(phy.value());
  }
}

// ---------------------------------------------------------------------
// OrionL2Tap (I3, I4, I5)
// ---------------------------------------------------------------------

void InvariantChecker::on_indication(PhyId /*from*/, const FapiMessage& msg,
                                     bool forwarded, bool drained,
                                     std::int64_t drain_boundary) {
  if (!forwarded || !drained) {
    return;
  }
  // Fig 7: drained responses are only valid for pre-boundary slots...
  if (msg.slot >= drain_boundary) {
    violation("I4: drained response for slot " + std::to_string(msg.slot) +
              " at/after boundary " + std::to_string(drain_boundary));
  }
  // ...and only within a bounded window after the swap; the pipeline is
  // a couple of slots deep, so anything later is stale routing state.
  const auto it = last_swap_slot_.find(msg.ru.value());
  const std::int64_t slot = now_slot();
  if (it != last_swap_slot_.end() &&
      slot > it->second + config_.drain_window_slots) {
    violation("I4: stale drained response accepted " +
              std::to_string(slot - it->second) +
              " slots after the swap (ru " + std::to_string(msg.ru.value()) +
              ", slot " + std::to_string(msg.slot) + ")");
  }
}

void InvariantChecker::on_migration(const MigrationEvent& event) {
  migrations_.push_back(PendingMigration{event.ru, event.to,
                                         event.boundary_slot, now_slot(),
                                         false, false, false, false});
  if (event.kind != MigrationEvent::Kind::kFailover) {
    return;
  }
  auto& t = track(event.from);
  if (t.failed_episode_open) {
    violation("I5: duplicate failover MigrationEvent for phy " +
              std::to_string(event.from.value()) +
              " (boundary moved to " + std::to_string(event.boundary_slot) +
              ")");
  }
  t.failed_episode_open = true;
  t.episode_swap_slot = -1;
  pending_failover_from_[event.ru.value()] = event.from.value();
}

void InvariantChecker::on_swap_finalized(RuId ru, std::int64_t /*slot*/,
                                         PhyId /*new_primary*/,
                                         std::int64_t /*boundary_slot*/) {
  const std::int64_t slot = now_slot();
  last_swap_slot_[ru.value()] = slot;
  const auto it = pending_failover_from_.find(ru.value());
  if (it != pending_failover_from_.end()) {
    track(PhyId{it->second}).episode_swap_slot = slot;
  }
}

void InvariantChecker::on_adopt(RuId ru, PhyId phy) {
  auto& t = track(phy);
  t.failed_episode_open = false;
  t.episode_swap_slot = -1;
  t.alive_since_slot = now_slot();  // restart the I1 settling ramp
  const auto it = pending_failover_from_.find(ru.value());
  if (it != pending_failover_from_.end() && it->second == phy.value()) {
    pending_failover_from_.erase(it);
  }
}

void InvariantChecker::on_rehabilitate(RuId ru, PhyId phy) {
  // The failover was a false positive: the episode closes without an
  // adopt, and the PHY's feed resumes after a short unfed gap — restart
  // the I1 ramp so that gap is not flagged.
  auto& t = track(phy);
  t.failed_episode_open = false;
  t.episode_swap_slot = -1;
  t.alive_since_slot = now_slot();
  const auto it = pending_failover_from_.find(ru.value());
  if (it != pending_failover_from_.end() && it->second == phy.value()) {
    pending_failover_from_.erase(it);
  }
}

}  // namespace slingshot
