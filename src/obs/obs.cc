#include "obs/obs.h"

namespace slingshot {
namespace obs {

Observability::Observability(const ObservabilityConfig& config)
    : tracer_(config.tracer) {}

void Observability::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (auto& flush : flushes_) {
    flush();
  }
  flushes_.clear();
  tracer_.export_into(registry_);  // also folds open spans
  registry_.freeze_gauges();
}

std::string merged_islands_json(const std::vector<Observability*>& islands) {
  std::string out = "[";
  bool first = true;
  for (std::size_t i = 0; i < islands.size(); ++i) {
    Observability* island = islands[i];
    if (island == nullptr) {
      continue;
    }
    island->finalize();
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"island\":" + std::to_string(i) +
           ",\"metrics\":" + island->registry().to_json() + "}";
  }
  out += "]";
  return out;
}

}  // namespace obs
}  // namespace slingshot
