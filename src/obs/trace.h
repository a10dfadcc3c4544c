// Per-TTI slot tracer.
//
// Records the life of every TTI as a span of timestamps — one stamp per
// pipeline stage, keyed by (ru, absolute slot) — plus a low-rate event
// timeline for failover/migration episodes.  All storage is allocated up
// front (fixed lane array, power-of-two row window per lane, pre-sized
// timeline ring, reserved percentile trackers), so stamp()/event() on the
// hot path never touch the heap and never schedule simulator events: the
// tracer is a passive observer and cannot perturb event order (the golden
// trace hash must stay bit-identical with tracing attached).
//
// Span lifecycle: the first stamp for a new slot *opens* a row; when the
// window wraps onto an older slot (or at finalize()) the row is *folded* —
// derived per-stage latencies go into percentile trackers, deadline misses
// and unserved slots are counted — and the span is *closed*.  After
// finalize(), spans_opened() == spans_closed() (the CI span-balance check).
//
// Stamps are first-write-wins (duplicate deliveries do not move a span's
// timestamps), and a stamp for a slot older than the window's occupant is
// dropped and counted, never allowed to evict newer data.
#ifndef SLINGSHOT_OBS_TRACE_H_
#define SLINGSHOT_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/time.h"

namespace slingshot {
namespace obs {

class MetricsRegistry;

// Pipeline stages stamped along a TTI's life.  Order is chronological for
// a healthy uplink slot.
enum class SlotStage : std::uint8_t {
  kL2Request = 0,   // L2 sends UL_TTI.request (2 slots ahead)
  kOrionForward,    // Orion forwards the FAPI request to the primary
  kPhySlot,         // PHY begins processing the slot
  kFronthaulTx,     // first DL fronthaul packet for the slot reaches the RU
  kPhyDecode,       // PHY finishes UL decode for the slot
  kResponse,        // L2 receives the CRC indication
  kNumStages,
};

// Derived per-stage latencies computed when a span folds.
enum class SlotSpanLatency : std::uint8_t {
  kForward = 0,    // OrionForward - L2Request
  kLead,           // slot_start - L2Request (scheduling lead time)
  kFronthaul,      // FronthaulTx - slot_start
  kDecode,         // PhyDecode - slot_start
  kResponse,       // Response - PhyDecode
  kEndToEnd,       // Response - L2Request
  kNumLatencies,
};

const char* slot_stage_name(SlotStage s);
const char* slot_span_latency_name(SlotSpanLatency l);

// Low-rate control-plane events for the failover/migration timeline.
enum class ObsEvent : std::uint8_t {
  kPhyDown = 0,         // fail-stop crash (ground truth, id = phy)
  kDetectorFire,        // in-switch detector declared the phy dead
  kNotifyReceived,      // Orion L2-side received the failure notification
  kFailoverInitiated,   // migrate_on_slot issued (slot = boundary)
  kMigrateCmdAbsorbed,  // mbox parsed + stored the migrate command
  kMigrationExecuted,   // mbox flipped the data plane at the boundary
  kSwapFinalized,       // Orion finalized primary/secondary swap
  kDrainAccepted,       // pipelined response from old primary accepted
  kDrainExpired,        // drain window closed with the old primary ignored
  kRehabilitated,       // false-positive failover: phy reinstated
  kPlannedMigration,    // operator-initiated migration start
  kAdoptStandby,        // standby adopted as new secondary
  kNumEvents,
};

const char* obs_event_name(ObsEvent e);

struct TraceEvent {
  Nanos t = 0;
  std::int64_t slot = -1;
  ObsEvent kind = ObsEvent::kNumEvents;
  std::uint8_t id = 0;  // phy or ru id, event-dependent
};

struct TracerConfig {
  SlotConfig slot;
  // A slot's CRC indication is due before slot_start(slot + deadline_slots)
  // — the pipelined PHY indicates slot N while processing N+2, so the
  // default is ul_pipeline_slots + 1.
  int deadline_slots = 3;
  std::size_t window = 64;              // rows per lane; power of two
  std::size_t timeline_capacity = 8192; // TraceEvents; drop-on-full
  std::size_t histogram_reserve = 32768;
  int max_lanes = 4;                    // distinct RUs tracked
};

class SlotTracer {
 public:
  explicit SlotTracer(const TracerConfig& config = {});

  // --- hot path (no allocation, no simulator interaction) ---------------
  void stamp(SlotStage stage, std::uint8_t ru, std::int64_t slot, Nanos t);
  void event(ObsEvent kind, std::uint8_t id, std::int64_t slot, Nanos t);
  // One armed PHY counted on one generator tick; the detector counts
  // lazily and adds its total at finalize (Testbed::attach_observability).
  void detector_tick(std::uint64_t n = 1) { detector_ticks_ += n; }

  // Fold every open span.  Idempotent; call before reading aggregates.
  void finalize();

  // --- span accounting ---------------------------------------------------
  std::uint64_t spans_opened() const { return spans_opened_; }
  std::uint64_t spans_closed() const { return spans_closed_; }
  std::uint64_t late_stamps_dropped() const { return late_stamps_dropped_; }
  std::uint64_t stamps_recorded(SlotStage s) const {
    return stamps_recorded_[std::size_t(s)];
  }
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  // Spans with an L2 request but no PHY slot processing (failover gap).
  std::uint64_t unserved_slots() const { return unserved_slots_; }
  std::uint64_t detector_ticks() const { return detector_ticks_; }
  std::uint64_t events_dropped() const { return events_dropped_; }

  // Per-stage latency distribution over all folded spans, microseconds.
  const RunningStats& latency_stats(SlotSpanLatency l) const {
    return latency_stats_[std::size_t(l)];
  }
  PercentileTracker& latency_percentiles(SlotSpanLatency l) {
    return latency_pct_[std::size_t(l)];
  }

  // --- timeline ----------------------------------------------------------
  const std::vector<TraceEvent>& timeline() const { return timeline_; }

  // One failover episode reconstructed from the timeline: kPhyDown through
  // swap finalization and the drained responses that followed.  Times are
  // absolute virtual-time nanoseconds; -1 when the stage never happened.
  struct Episode {
    std::uint8_t failed_phy = 0;
    Nanos down_t = -1;
    Nanos detect_t = -1;     // detector fire
    Nanos notify_t = -1;     // notification reached Orion L2 side
    Nanos initiate_t = -1;   // migrate_on_slot issued
    std::int64_t boundary_slot = -1;
    Nanos swap_t = -1;       // swap finalized at the boundary
    Nanos last_drain_t = -1;
    int drains_accepted = 0;
    bool drain_expired = false;
    // Per-slot drain accounting across the migration boundary.
    std::vector<std::int64_t> drained_slots;
  };
  std::vector<Episode> failover_episodes() const;

  // Copy tracer aggregates into "trace.*" registry instruments (counters
  // for span accounting, histograms for per-stage latencies).
  void export_into(MetricsRegistry& registry);

 private:
  struct Row {
    std::int64_t slot = kEmptySlot;
    std::array<Nanos, std::size_t(SlotStage::kNumStages)> t;
  };
  struct Lane {
    std::uint8_t ru = 0;  // 0 = unclaimed
    std::vector<Row> rows;
  };
  static constexpr std::int64_t kEmptySlot = -1;
  static constexpr Nanos kNoStamp = -1;

  Lane* lane_for(std::uint8_t ru);
  void reset_row(Row& row, std::int64_t slot);
  void fold(Row& row);
  void record_latency(SlotSpanLatency l, Nanos delta);

  TracerConfig config_;
  std::size_t window_mask_ = 0;
  std::vector<Lane> lanes_;
  std::vector<TraceEvent> timeline_;

  std::array<std::uint64_t, std::size_t(SlotStage::kNumStages)>
      stamps_recorded_{};
  std::array<RunningStats, std::size_t(SlotSpanLatency::kNumLatencies)>
      latency_stats_{};
  std::array<PercentileTracker, std::size_t(SlotSpanLatency::kNumLatencies)>
      latency_pct_{};

  std::uint64_t spans_opened_ = 0;
  std::uint64_t spans_closed_ = 0;
  std::uint64_t late_stamps_dropped_ = 0;
  std::uint64_t deadline_misses_ = 0;
  std::uint64_t unserved_slots_ = 0;
  std::uint64_t detector_ticks_ = 0;
  std::uint64_t events_dropped_ = 0;
  bool finalized_ = false;
};

}  // namespace obs
}  // namespace slingshot

#endif  // SLINGSHOT_OBS_TRACE_H_
