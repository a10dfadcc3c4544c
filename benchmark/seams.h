// Per-layer tracing from outside the simulator.
//
// Forwarding objects are spliced into public seams of each testbed and
// time every call they pass on:
//   switchsim      the installed DataplaneProgram (fronthaul middlebox)
//   phy fh rx      plane-A link -> PHY NIC (O-RAN parse, BFP decompress)
//   ru dl rx       plane-A link -> RU NIC (DL parse, UE decode_tb)
//   phy / l2 fapi  the SHM FAPI pipes into each PHY and into the L2
// Links whose side A is an FRER eliminator are left alone. Spans are kept
// in memory, aggregated per (TTI, layer), as self time: a span nested in
// another is subtracted from its parent. Everything the TTI step spends
// outside these spans is unattributed.
//
// Kernels that run on simulator timers rather than at a seam (LDPC
// decode, TB encode, the codecs, the UE batch) are replayed after the
// run on inputs captured at the seams.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fapi/fapi.h"
#include "testbed/testbed.h"

namespace slingbench {

using slingshot::Testbed;

enum Layer : int {
  kSwitch,
  kPhyFhRx,
  kRuDlRx,
  kPhyFapiRx,
  kL2FapiRx,
  kCapture,  // copying replay inputs: the tracer's own cost
  kNumLayers,
};

// Metric name of each layer's self time, in seconds.
inline constexpr std::array<const char*, kNumLayers> kLayerMetric{
    "switchsim.pipeline_s", "phy.fh_rx_s",  "ru.dl_rx_s",
    "phy.fapi_rx_s",        "l2.fapi_rx_s", "trace.capture_s"};

using Clock = std::chrono::steady_clock;

inline std::int64_t elapsed_ns(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

// The spans and replay inputs of one cell island. Only the thread that
// runs the island touches it, so nothing is shared across workers.
class IslandTrace {
 public:
  // `tti` is the index of the TTI step in flight; -1 (pre-roll) records
  // nothing.
  IslandTrace(Testbed& tb, const std::atomic<int>& tti, int num_ttis);
  ~IslandTrace();
  IslandTrace(const IslandTrace&) = delete;
  IslandTrace& operator=(const IslandTrace&) = delete;

  // RAII span: self time goes to `layer` of the current TTI.
  class Span {
   public:
    Span(IslandTrace& trace, Layer layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    IslandTrace& trace_;
    Layer layer_;
    Span* parent_;
    std::int64_t child_ns_ = 0;
    Clock::time_point t0_;
  };

  [[nodiscard]] bool recording() const {
    return tti_.load(std::memory_order_relaxed) >= 0;
  }
  void capture_frame(const slingshot::Packet& p, bool at_phy);
  void capture_fapi(const slingshot::FapiMessage& msg);

  [[nodiscard]] const std::vector<std::array<std::int64_t, kNumLayers>>&
  per_tti_ns() const {
    return per_tti_ns_;
  }
  [[nodiscard]] const std::array<std::uint64_t, kNumLayers>& calls() const {
    return calls_;
  }
  [[nodiscard]] std::uint64_t fronthaul_frames() const { return fh_frames_; }
  [[nodiscard]] std::uint64_t fapi_msgs() const { return fapi_msgs_; }
  [[nodiscard]] Testbed& testbed() { return tb_; }
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& ul_frames()
      const {
    return ul_frames_;
  }
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& dl_frames()
      const {
    return dl_frames_;
  }
  [[nodiscard]] const std::vector<slingshot::FapiMessage>& fapi() const {
    return fapi_;
  }

 private:
  class TimedProgram;
  class TimedFrameSink;
  class TimedFapiSink;

  void add(Layer layer, std::int64_t ns);

  Testbed& tb_;
  const std::atomic<int>& tti_;
  Span* open_ = nullptr;
  std::vector<std::array<std::int64_t, kNumLayers>> per_tti_ns_;
  std::array<std::uint64_t, kNumLayers> calls_{};
  std::uint64_t fh_frames_ = 0;
  std::uint64_t fapi_msgs_ = 0;
  // Replay inputs: U-plane eCPRI payloads (UL at the PHYs, DL at the
  // RUs) and FAPI messages, the first few hundred of the horizon.
  std::vector<std::vector<std::uint8_t>> ul_frames_;
  std::vector<std::vector<std::uint8_t>> dl_frames_;
  std::vector<slingshot::FapiMessage> fapi_;
  std::vector<std::unique_ptr<TimedFrameSink>> frame_sinks_;
  std::vector<std::unique_ptr<TimedFapiSink>> fapi_sinks_;
};

// Per-call host cost of the timer-driven kernels, replayed on the
// captured inputs.
struct ReplayCosts {
  double ul_decode_us = 0;
  double dl_encode_us = 0;
  double parse_us = 0;
  double serialize_us = 0;
  double msamples_per_s = 0;
  double fapi_codec_us = 0;
  double ue_advance_tti_us = 0;
};

[[nodiscard]] ReplayCosts replay_kernels(
    const std::vector<std::unique_ptr<IslandTrace>>& islands);

}  // namespace slingbench
