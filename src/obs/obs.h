// Observability bundle: one MetricsRegistry + one SlotTracer, reachable
// from any component through the Simulator's obs anchor (see
// Simulator::set_obs / Simulator::obs in sim/simulator.h — a forward
// declaration, so the sim core never depends on this library).
//
// Instrumentation sites use the SLS_TRACE_* macros below.  Each expands
// to a null-check on the anchor plus a passive data write — no heap, no
// new simulator events — and compiles to nothing when the build sets
// SLINGSHOT_OBS_DISABLED (CMake option SLINGSHOT_DISABLE_OBS), so the
// release-perf preset can strip even the branch.
#ifndef SLINGSHOT_OBS_OBS_H_
#define SLINGSHOT_OBS_OBS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace slingshot {
namespace obs {

struct ObservabilityConfig {
  TracerConfig tracer;
};

class Observability {
 public:
  explicit Observability(const ObservabilityConfig& config = {});

  MetricsRegistry& registry() { return registry_; }
  SlotTracer& tracer() { return tracer_; }

  // Run `flush` first in finalize(): a component that counts lazily
  // (the switch's tick clock, the failure detector) adds its totals to
  // the registry or the tracer there.
  void on_finalize(std::function<void()> flush) {
    flushes_.push_back(std::move(flush));
  }

  // Run the flushes, fold open spans, copy tracer aggregates into the
  // registry, and freeze sampler gauges.  Idempotent.  Call before
  // exporting, and before any object a flush or a gauge sampler
  // observes is destroyed.
  void finalize();

 private:
  MetricsRegistry registry_;
  SlotTracer tracer_;
  std::vector<std::function<void()>> flushes_;
  bool finalized_ = false;
};

// Merge per-island observability lanes (the sharded testbed attaches
// one bundle per cell island) into a single export: finalizes every
// bundle, then renders a JSON array with one `{"island": i, "metrics":
// {...}}` entry per lane, in island order. Null entries are skipped so
// partially-instrumented fleets still export.
std::string merged_islands_json(const std::vector<Observability*>& islands);

}  // namespace obs
}  // namespace slingshot

#if defined(SLINGSHOT_OBS_DISABLED)

#define SLS_TRACE_STAGE(sim, stage, ru, slot) \
  do {                                        \
  } while (0)
#define SLS_TRACE_EVENT(sim, kind, id, slot) \
  do {                                       \
  } while (0)

#else

// (sim) is any expression yielding a Simulator&; stamps use sim.now() so
// call sites cannot disagree with virtual time.
#define SLS_TRACE_STAGE(sim, stage, ru, slot)                            \
  do {                                                                   \
    if (auto* sls_obs_ = (sim).obs()) {                                  \
      sls_obs_->tracer().stamp((stage), std::uint8_t(ru),                \
                               std::int64_t(slot), (sim).now());         \
    }                                                                    \
  } while (0)

#define SLS_TRACE_EVENT(sim, kind, id, slot)                             \
  do {                                                                   \
    if (auto* sls_obs_ = (sim).obs()) {                                  \
      sls_obs_->tracer().event((kind), std::uint8_t(id),                 \
                               std::int64_t(slot), (sim).now());         \
    }                                                                    \
  } while (0)

#endif  // SLINGSHOT_OBS_DISABLED

#endif  // SLINGSHOT_OBS_OBS_H_
