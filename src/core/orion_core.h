// Orion's L2-side decision core: null-FAPI hot standby (§6.2), init
// interception and replay (§6.3), migration and failover at a slot
// boundary with the Fig 7 drain (§7), and the shared standby pool.
//
// The core never touches a socket, a NIC or a clock. Its inputs are
// parsed L2 requests, parsed PHY indications tagged with their PhyId,
// failure notifications and pool calls; every output goes through
// one OrionPort. Two adapters own the I/O: OrionL2Side (core/orion.h)
// for the simulator and RealOrionRelay (core/real_orion.h) for real
// processes, so both worlds make the same decisions by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fapi/fapi.h"

namespace slingshot {

namespace obs {
class Observability;
}  // namespace obs

// Forwarding-cost model for Orion's transport (DPDK busy-polling in the
// paper): a fixed per-message cost plus a per-byte copy/serialize cost
// and an exponential tail. Reproduces the Fig 12 latency-vs-load shape.
struct OrionCostModel {
  Nanos base = 3'000;            // 3 µs fixed
  double per_byte_ns = 0.08;     // ~12 GB/s copy + serialize
  Nanos tail_mean = 1'500;       // exponential jitter tail
  double tail_per_byte_ns = 0.04;

  [[nodiscard]] Nanos sample(std::size_t bytes, RngStream& rng) const {
    const double mean =
        double(tail_mean) + tail_per_byte_ns * double(bytes);
    return base + Nanos(per_byte_ns * double(bytes)) +
           Nanos(rng.exponential(mean));
  }
};

// How the standby PHY is kept alive. kNullFapi is Slingshot's design
// (§6.2); kDuplicate is the strawman the paper rejects — it doubles the
// PHY compute bill (quantified in bench/abl_standby_modes).
enum class StandbyMode : std::uint8_t { kNullFapi, kDuplicate };

struct OrionL2Config {
  SlotConfig slots{};
  StandbyMode standby_mode = StandbyMode::kNullFapi;
  // Failover migration boundary margin: B = current_slot + margin.
  int failover_margin_slots = 2;
  // Fig 7 drain window: responses from the pre-migration primary are
  // accepted for this many slots after the swap, then the route state
  // expires (stale pipelines must not leak into later migrations).
  int drain_window_slots = 8;
  OrionCostModel costs{};
  MacAddr switch_cmd_mac = MacAddr::broadcast();  // migrate_on_slot dst
  // ABLATION: artificial delay before the migrate_on_slot command takes
  // effect — models the naive design where the RU-to-PHY remap is a
  // switch *control-plane* rule update (milliseconds, §5.1) instead of
  // a data-plane register write.
  Nanos cmd_extra_delay = 0;
};

struct MigrationEvent {
  enum class Kind { kPlanned, kFailover };
  Kind kind = Kind::kPlanned;
  RuId ru;
  PhyId from;
  PhyId to;
  std::int64_t boundary_slot = 0;
  Nanos initiated_at = 0;       // when Orion decided to migrate
  Nanos notification_at = 0;    // failure notification arrival (failover)
};

// Observation tap for the L2-side Orion (src/inject's InvariantChecker
// and the episode ledger attach here). Pure observer.
class OrionL2Tap {
 public:
  virtual ~OrionL2Tap() = default;
  // An indication from PHY `from` was forwarded to the L2 (or dropped).
  // `drained` means it was accepted from the pre-migration primary via
  // the Fig 7 drain path; `drain_boundary` is that path's slot bound.
  virtual void on_indication(PhyId /*from*/, const FapiMessage& /*msg*/,
                             bool /*forwarded*/, bool /*drained*/,
                             std::int64_t /*drain_boundary*/) {}
  // A migration (planned or failover) was initiated.
  virtual void on_migration(const MigrationEvent& /*event*/) {}
  // The request stream crossed the boundary; FAPI routing swapped.
  virtual void on_swap_finalized(RuId /*ru*/, std::int64_t /*slot*/,
                                 PhyId /*new_primary*/,
                                 std::int64_t /*boundary_slot*/) {}
  // A replacement standby was adopted (§6.3 init replay).
  virtual void on_adopt(RuId /*ru*/, PhyId /*phy*/) {}
  // A failed-over PHY proved itself alive (fresh indications after the
  // failure notification): the detection was a false positive and its
  // standby keepalive feed resumes.
  virtual void on_rehabilitate(RuId /*ru*/, PhyId /*phy*/) {}
};

struct OrionL2Stats {
  std::uint64_t real_requests_forwarded = 0;
  std::uint64_t null_requests_sent = 0;
  std::uint64_t responses_forwarded = 0;
  std::uint64_t standby_responses_dropped = 0;
  std::uint64_t drained_responses_accepted = 0;  // Fig 7 pipeline drain
  // Every failure notification increments failure_notifications and
  // exactly one outcome counter (see notification_identity_holds), so
  // duplicate deliveries never inflate the failover count.
  std::uint64_t failure_notifications = 0;
  std::uint64_t failovers_initiated = 0;
  // Re-delivered notification for an episode still pending or already
  // executed (boundary set, a known-failed slot, or a standby that is
  // already suspect).
  std::uint64_t duplicate_notifications_ignored = 0;
  // Notification for a phy that is primary nowhere, backs no RU and is
  // no pool member (e.g. raced with a planned migration).
  std::uint64_t stale_notifications_ignored = 0;
  // Fig 7 drain windows that expired with route state still held.
  std::uint64_t drain_windows_expired = 0;
  // False-positive detections rescinded: a failed-over primary or a
  // suspect standby sent a fresh indication.
  std::uint64_t rehabilitations = 0;
  std::uint64_t fapi_bytes_to_standby = 0;  // §8.5 network overhead
  // Datagrams that failed try_parse_fapi (each also raised an
  // ERROR.indication toward the L2).
  std::uint64_t parse_errors = 0;
  // ---- Standby-pool (N+K) counters.
  // Notification for a primary with no live standby: the cell enters
  // an explicit "unprotected" state (no stale swap) until a live
  // standby appears, which then executes the failover.
  std::uint64_t unprotected_notifications = 0;
  // Notification for a standby (primary nowhere): it becomes suspect —
  // never a failover target, and a pending boundary aimed at it is
  // redirected — until it speaks again.
  std::uint64_t standby_failures = 0;
  // Secondary slots refilled from the pool (after a member was consumed
  // by a promotion or a failover vacated the slot).
  std::uint64_t standbys_reassigned = 0;
  // Failovers executed when a live standby arrived for an already-dead,
  // unprotected primary (counted here, not in failovers_initiated, so
  // the notification identity stays an identity).
  std::uint64_t deferred_failovers_executed = 0;
};

// The notification identity: every failure notification lands in
// exactly one outcome counter.
[[nodiscard]] inline bool notification_identity_holds(const OrionL2Stats& s) {
  return s.failure_notifications ==
         s.failovers_initiated + s.duplicate_notifications_ignored +
             s.stale_notifications_ignored + s.unprotected_notifications +
             s.standby_failures;
}

// Everything the core emits, and the clock it reads. `now()` is
// simulated time in the simulator and wall ns since the pacing epoch in
// real mode; `obs()` lets SLS_TRACE_* stamp the core's events.
class OrionPort {
 public:
  virtual ~OrionPort() = default;
  [[nodiscard]] virtual Nanos now() const = 0;
  [[nodiscard]] virtual obs::Observability* obs() const { return nullptr; }
  virtual void to_phy(PhyId phy, const FapiMessage& msg) = 0;
  virtual void to_l2(FapiMessage&& msg) = 0;
  // A serialized kSlingshotCmd payload for the switch, to take effect
  // after `delay` (0: now).
  virtual void to_switch(std::vector<std::uint8_t>&& cmd, Nanos delay) = 0;
};

class OrionCore {
 public:
  OrionCore(OrionPort& port, std::string name, OrionL2Config config)
      : port_(port), name_(std::move(name)), config_(config) {}

  // ---- Registration: N primaries + a shared pool of hot standbys ----
  // The paper's deployment note: secondaries need no dedicated servers —
  // one hot standby can back several primaries. Each RU registered with
  // set_ru_primary draws its secondary from the pool; pool members are
  // shared across RUs until a failover *consumes* one (promotes it to
  // primary), at which point every other RU backed by it is re-pointed
  // at the next available member — or enters an explicit "unprotected"
  // state if the pool is exhausted. Never a stale swap onto an
  // already-consumed standby.
  //
  // add_pool_standby is also the revive path: a restarted PHY rejoins
  // the pool, gets the stored init sequence (§6.3) replayed for every RU
  // it backs, and first executes any deferred failovers for unprotected
  // cells whose primary already died.
  void add_pool_standby(PhyId phy);
  void set_ru_primary(RuId ru, PhyId primary);
  // Pool members currently available as failover targets.
  [[nodiscard]] std::size_t pool_available() const;

  // ---- Inputs ----
  void on_l2_request(FapiMessage&& msg);
  void on_phy_indication(PhyId from, FapiMessage&& msg);
  // A datagram from `from` (PhyId{} for the L2) failed to parse: count
  // it and tell the L2 (the stack above treats ERROR.indication as
  // advisory; HARQ retransmits whatever the lost indication acked).
  void on_parse_error(PhyId from, const char* error);
  // The failure detector declared `failed` dead. A dead primary fails
  // over to its live standby (or its cell goes unprotected); a dead
  // standby is suspect until it speaks (see suspects_).
  void on_failure_notification(PhyId failed);

  // ---- Migration control (§6.3) ----
  // Planned migration of `ru` to its standby at slot `boundary`.
  void migrate(RuId ru, std::int64_t boundary_slot);

  // Notification hook for experiments (called on failover initiation).
  void set_on_failover(std::function<void(const MigrationEvent&)> callback) {
    on_failover_ = std::move(callback);
  }

  // ---- Pool lifecycle observation ----
  // Fired synchronously inside the call that changed the pool — an
  // external pool manager (the shard coordinator of core/shard_coord.h)
  // mirrors the island's inventory from these without polling.
  // Observers must not mutate the Orion re-entrantly.
  enum class PoolEvent : std::uint8_t {
    kConsumed,    // failover promoted the member to someone's primary
    kExhausted,   // a cell needed a member and none was available
    kMemberDead,  // the standby itself was declared dead (suspect)
    kRestored,    // a member (re)joined, or a suspect member spoke again
  };
  using PoolObserver = std::function<void(PoolEvent, PhyId)>;
  void set_pool_observer(PoolObserver observer) {
    pool_observer_ = std::move(observer);
  }

  // Attach an observation tap (invariant checking); nullptr detaches.
  void set_tap(OrionL2Tap* tap) { tap_ = tap; }

  [[nodiscard]] PhyId active_phy(RuId ru) const;
  // PhyId{} while the RU has no standby but the PHY it failed away from.
  [[nodiscard]] PhyId standby_phy(RuId ru) const;
  [[nodiscard]] const OrionL2Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<MigrationEvent>& migration_log() const {
    return migration_log_;
  }
  [[nodiscard]] const SlotConfig& slots() const { return config_.slots; }
  [[nodiscard]] Nanos now() const { return port_.now(); }

 private:
  struct RuState {
    RuId ru;
    PhyId primary;
    PhyId secondary;
    // Pending migration: requests for slots >= boundary swap the roles.
    std::optional<std::int64_t> boundary;
    // Previous primary (accepts drained responses for slots < boundary
    // for a short window after migration). Expires drain_window_slots
    // after the swap.
    PhyId previous;
    std::int64_t previous_until_slot = -1;
    std::int64_t swap_wall_slot = -1;  // wall slot the swap finalized at
    // A failover consumed this PHY; it gets no FAPI (not even nulls)
    // until it is re-assigned as a standby (§6.3) or rehabilitated.
    // Equal to `primary` while the cell is unprotected (primary dead,
    // no live standby to fail over to).
    PhyId failed_phy;
    // Stored initialization messages for standby replay (§6.3).
    std::vector<FapiMessage> init_messages;
  };

  // Shared-pool member lifecycle: available → consumed (promoted to
  // primary by a failover) → available again once it is demoted alive,
  // rehabilitated, or revived via add_pool_standby.
  enum class PoolState : std::uint8_t { kAvailable, kConsumed };
  struct PoolMember {
    PhyId id;
    PoolState state = PoolState::kAvailable;
  };

  // Set the boundary, steer the fronthaul there too, log the migration.
  MigrationEvent start_migration(RuState& state, MigrationEvent::Kind kind,
                                 std::int64_t boundary, Nanos notified_at);
  // Resolve who is real/standby for a request targeting `slot`,
  // finalizing the swap once the boundary has passed.
  [[nodiscard]] std::pair<PhyId, PhyId> route_for_slot(RuState& state,
                                                       std::int64_t slot);
  // The RU's standby; PhyId{} if the slot is empty or holds the PHY the
  // RU failed away from.
  [[nodiscard]] static PhyId standby_of(const RuState& state) {
    return state.secondary == state.failed_phy ? PhyId{} : state.secondary;
  }
  // Pool helpers.
  [[nodiscard]] PhyId next_pool_standby() const;
  [[nodiscard]] bool is_primary(PhyId phy) const;
  [[nodiscard]] bool in_pool(PhyId phy) const;
  [[nodiscard]] bool suspect(PhyId phy) const;
  void assign_standby(RuState& state, PhyId phy);
  void release_standby(RuState& state);
  // The RU's standby if it is live, else the next pool member (which
  // replaces a suspect standby); PhyId{} when there is none.
  [[nodiscard]] PhyId failover_target(RuState& state);
  void consume_pool_member(PhyId phy);
  // A consumed member that is primary nowhere and alive is available
  // again.
  void return_to_pool(PhyId phy);
  void initiate_failover(RuState& state, Nanos notified_at, bool deferred);
  // Deferred failovers for unprotected cells, then refill every vacant
  // secondary slot — run whenever a live standby (re)appears.
  void restore_protection();
  void rehabilitate(PhyId phy, std::int64_t slot);
  void notify_pool(PoolEvent event, PhyId phy) {
    if (pool_observer_) {
      pool_observer_(event, phy);
    }
  }

  OrionPort& port_;
  std::string name_;
  OrionL2Config config_;
  std::map<std::uint8_t, RuState> rus_;
  std::vector<PoolMember> pool_;
  // Standbys the detector declared dead. A suspect keeps its cells and
  // its null feed but is never a failover target; its next fresh
  // indication rehabilitates it (a false positive clears within a slot),
  // and a dead one stays excluded until revived via add_pool_standby.
  std::vector<PhyId> suspects_;
  PoolObserver pool_observer_;
  std::function<void(const MigrationEvent&)> on_failover_;
  OrionL2Tap* tap_ = nullptr;
  OrionL2Stats stats_;
  std::vector<MigrationEvent> migration_log_;
};

// ---------------------------------------------------------------------
// Episode ledger: the failover story of a run as (kind, ru, phy)
// events. Both worlds attach this one tap to their core, so a real run
// and a simulator run of the same kill plan conform by construction.
// ---------------------------------------------------------------------
enum class EpisodeEventKind : std::uint8_t {
  kDetected = 0,           // active PHY declared dead
  kFailoverInitiated = 1,  // migration toward the standby decided
  kSwapFinalized = 2,      // FAPI routing now targets the new primary
  kStandbyAdopted = 3,     // replacement standby wired in (§6.3)
};

[[nodiscard]] const char* episode_event_name(EpisodeEventKind kind);

struct EpisodeEvent {
  EpisodeEventKind kind = EpisodeEventKind::kDetected;
  RuId ru;
  PhyId phy;              // the PHY the event concerns
  std::int64_t slot = 0;  // slot the event happened in
  Nanos at = 0;           // the core's clock (OrionPort::now)
};

class EpisodeLedger final : public OrionL2Tap {
 public:
  explicit EpisodeLedger(const OrionCore& core) : core_(core) {}
  void on_migration(const MigrationEvent& event) override;
  void on_swap_finalized(RuId ru, std::int64_t slot, PhyId new_primary,
                         std::int64_t boundary_slot) override;
  void on_adopt(RuId ru, PhyId phy) override;
  [[nodiscard]] const std::vector<EpisodeEvent>& events() const {
    return events_;
  }

 private:
  void record(EpisodeEventKind kind, RuId ru, PhyId phy, Nanos at);
  const OrionCore& core_;
  std::vector<EpisodeEvent> events_;
};

}  // namespace slingshot
