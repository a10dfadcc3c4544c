#include "seams.h"

#include <utility>

#include "fronthaul/oran.h"
#include "phy/mcs.h"
#include "phy/tb_codec.h"
#include "ue/ue_batch.h"

namespace slingbench {

using namespace slingshot;

namespace {

// Replay inputs kept per island: enough distinct inputs to cover the
// MCS mix of a run without letting the copies dominate the trace.
constexpr std::size_t kMaxFrames = 256;
constexpr std::size_t kMaxFapi = 1024;
// Each replay loops over its inputs for at least this long.
constexpr std::int64_t kReplayMinNs = 20'000'000;

// Non-owning handle to a program the testbed owns, for restoring it.
std::shared_ptr<DataplaneProgram> unowned(DataplaneProgram* program) {
  return std::shared_ptr<DataplaneProgram>(std::shared_ptr<void>{}, program);
}

}  // namespace

class IslandTrace::TimedProgram final : public DataplaneProgram {
 public:
  TimedProgram(IslandTrace& trace, DataplaneProgram& inner)
      : trace_(trace), inner_(inner) {}

  PipelineVerdict process(Packet& packet, int ingress_port,
                          PipelineContext& ctx) override {
    Span span{trace_, kSwitch};
    return inner_.process(packet, ingress_port, ctx);
  }
  void on_generator_packet(Packet& packet, PipelineContext& ctx) override {
    Span span{trace_, kSwitch};
    inner_.on_generator_packet(packet, ctx);
  }
  [[nodiscard]] DataplaneProgram& inner() { return inner_; }

 private:
  IslandTrace& trace_;
  DataplaneProgram& inner_;
};

class IslandTrace::TimedFrameSink final : public FrameSink {
 public:
  TimedFrameSink(IslandTrace& trace, Layer layer, Link& link, Nic& nic)
      : trace_(trace), layer_(layer), link_(link), nic_(nic) {
    link_.attach_a(this);
  }
  ~TimedFrameSink() override { link_.attach_a(&nic_); }

  void handle_frame(Packet&& packet) override {
    Span span{trace_, layer_};
    nic_.handle_frame(std::move(packet));
  }

 private:
  IslandTrace& trace_;
  Layer layer_;
  Link& link_;
  Nic& nic_;
};

class IslandTrace::TimedFapiSink final : public FapiSink {
 public:
  TimedFapiSink(IslandTrace& trace, Layer layer, ShmFapiPipe& pipe,
                FapiSink& inner)
      : trace_(trace), layer_(layer), pipe_(pipe), inner_(inner) {
    pipe_.connect(this);
  }
  ~TimedFapiSink() override { pipe_.connect(&inner_); }

  void on_fapi(FapiMessage&& msg) override {
    trace_.capture_fapi(msg);
    Span span{trace_, layer_};
    inner_.on_fapi(std::move(msg));
  }

 private:
  IslandTrace& trace_;
  Layer layer_;
  ShmFapiPipe& pipe_;
  FapiSink& inner_;
};

IslandTrace::Span::Span(IslandTrace& trace, Layer layer)
    : trace_(trace), layer_(layer), parent_(trace.open_), t0_(Clock::now()) {
  trace_.open_ = this;
}

IslandTrace::Span::~Span() {
  const std::int64_t ns = elapsed_ns(t0_);
  trace_.open_ = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += ns;
  }
  trace_.add(layer_, ns - child_ns_);
}

IslandTrace::IslandTrace(Testbed& tb, const std::atomic<int>& tti,
                         int num_ttis)
    : tb_(tb), tti_(tti), per_tti_ns_(std::size_t(num_ttis)) {
  for (ProgrammableSwitch* sw : {&tb.fabric(), tb.fabric_b()}) {
    if (sw != nullptr && sw->program() != nullptr) {
      sw->install_program(
          std::make_shared<TimedProgram>(*this, *sw->program()));
    }
  }
  for (int p = 0; p < tb.num_phys(); ++p) {
    if (tb.phy_link_b(p) == nullptr) {
      frame_sinks_.push_back(std::make_unique<TimedFrameSink>(
          *this, kPhyFhRx, tb.phy_link(p), tb.phy_nic(p)));
    }
    tb.phy_nic(p).set_rx_interceptor([this](Packet& packet) {
      capture_frame(packet, /*at_phy=*/true);
      return true;
    });
    if (ShmFapiPipe* pipe = tb.pipe_to_phy(p); pipe != nullptr) {
      fapi_sinks_.push_back(std::make_unique<TimedFapiSink>(
          *this, kPhyFapiRx, *pipe, tb.phy(p)));
    }
  }
  for (int c = 0; c < tb.num_cells(); ++c) {
    if (tb.ru_link_b(c) == nullptr) {
      frame_sinks_.push_back(std::make_unique<TimedFrameSink>(
          *this, kRuDlRx, tb.ru_link(c), tb.ru_nic_at(c)));
    }
    tb.ru_nic_at(c).set_rx_interceptor([this](Packet& packet) {
      capture_frame(packet, /*at_phy=*/false);
      return true;
    });
  }
  if (ShmFapiPipe* pipe = tb.pipe_to_l2(); pipe != nullptr) {
    fapi_sinks_.push_back(
        std::make_unique<TimedFapiSink>(*this, kL2FapiRx, *pipe, tb.l2()));
  }
}

IslandTrace::~IslandTrace() {
  for (ProgrammableSwitch* sw : {&tb_.fabric(), tb_.fabric_b()}) {
    if (sw == nullptr) {
      continue;
    }
    if (auto* timed = dynamic_cast<TimedProgram*>(sw->program())) {
      sw->install_program(unowned(&timed->inner()));
    }
  }
  for (int p = 0; p < tb_.num_phys(); ++p) {
    tb_.phy_nic(p).set_rx_interceptor(nullptr);
  }
  for (int c = 0; c < tb_.num_cells(); ++c) {
    tb_.ru_nic_at(c).set_rx_interceptor(nullptr);
  }
}

void IslandTrace::add(Layer layer, std::int64_t ns) {
  const int tti = tti_.load(std::memory_order_relaxed);
  if (tti < 0 || tti >= int(per_tti_ns_.size())) {
    return;
  }
  per_tti_ns_[std::size_t(tti)][layer] += ns;
  ++calls_[layer];
}

void IslandTrace::capture_frame(const Packet& packet, bool at_phy) {
  if (!recording() || packet.eth.ethertype != EtherType::kEcpri) {
    return;
  }
  ++fh_frames_;
  const auto header = peek_fronthaul_header(packet.payload);
  const auto want = at_phy ? FhDirection::kUplink : FhDirection::kDownlink;
  auto& frames = at_phy ? ul_frames_ : dl_frames_;
  if (!header || header->plane != FhPlane::kUser ||
      header->direction != want || frames.size() >= kMaxFrames) {
    return;
  }
  Span span{*this, kCapture};
  frames.push_back(packet.payload);
}

void IslandTrace::capture_fapi(const FapiMessage& msg) {
  if (!recording()) {
    return;
  }
  ++fapi_msgs_;
  if (fapi_.size() < kMaxFapi) {
    Span span{*this, kCapture};
    fapi_.push_back(msg);
  }
}

namespace {

// Mean host microseconds per call: `pass` makes `calls_per_pass` calls
// and is repeated for at least kReplayMinNs. 0 when there is no input.
template <typename Pass>
double per_call_us(std::size_t calls_per_pass, Pass&& pass) {
  if (calls_per_pass == 0) {
    return 0.0;
  }
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  std::int64_t ns = 0;
  do {
    pass();
    calls += calls_per_pass;
    ns = elapsed_ns(t0);
  } while (ns < kReplayMinNs);
  return double(ns) / 1e3 / double(calls);
}

// Keeps replay results observable so the calls are not optimized away.
volatile std::uint64_t g_replay_sink = 0;

}  // namespace

ReplayCosts replay_kernels(
    const std::vector<std::unique_ptr<IslandTrace>>& islands) {
  struct Section {
    const UPlaneSection* section;
    int max_iters;
  };
  std::size_t total = 0;
  for (const auto& island : islands) {
    total += island->ul_frames().size() + island->dl_frames().size();
  }
  std::vector<const std::vector<std::uint8_t>*> frames;
  std::vector<FronthaulPacket> packets;
  // Sections point into `packets`: reserved up front, it never moves.
  frames.reserve(total);
  packets.reserve(total);
  std::vector<Section> ul, dl;
  std::vector<const FapiMessage*> fapi;
  const UeBatchConfig* batch_config = nullptr;
  std::size_t samples = 0;
  for (const auto& island : islands) {
    Testbed& tb = island->testbed();
    const int iters = tb.config().phy.ldpc_max_iters;
    auto add = [&](const std::vector<std::vector<std::uint8_t>>& captured,
                   std::vector<Section>& sections) {
      for (const auto& frame : captured) {
        frames.push_back(&frame);
        for (const auto& s :
             packets.emplace_back(parse_fronthaul(frame)).uplane.sections) {
          samples += s.iq.size();
          if (!s.iq.empty()) {
            sections.push_back({&s, iters});
          }
        }
      }
    };
    add(island->ul_frames(), ul);
    add(island->dl_frames(), dl);
    for (const auto& msg : island->fapi()) {
      fapi.push_back(&msg);
    }
    for (int c = 0; c < tb.num_cells() && batch_config == nullptr; ++c) {
      if (const UeBatch* batch = tb.batch_at(c)) {
        batch_config = &batch->config();
      }
    }
  }

  ReplayCosts costs;
  TbDecodeWorkspace ws;
  costs.ul_decode_us = per_call_us(ul.size(), [&] {
    for (const auto& [s, iters] : ul) {
      const auto r = decode_tb(s->iq, mcs_entry(s->mcs).modulation,
                               s->shadow_payload, iters, nullptr,
                               LdpcCode::standard(), &ws);
      g_replay_sink = g_replay_sink + std::uint64_t(r.iterations_used);
    }
  });
  costs.dl_encode_us = per_call_us(dl.size(), [&] {
    for (const auto& [s, _] : dl) {
      const auto r =
          encode_tb(s->shadow_payload, mcs_entry(s->mcs).modulation);
      g_replay_sink = g_replay_sink + r.codeword_bits;
    }
  });
  costs.parse_us = per_call_us(frames.size(), [&] {
    for (const auto* frame : frames) {
      g_replay_sink = g_replay_sink +
                      parse_fronthaul(*frame).uplane.sections.size();
    }
  });
  costs.msamples_per_s =
      costs.parse_us > 0 ? double(samples) /
                               (costs.parse_us * double(frames.size()))
                         : 0.0;
  std::vector<std::uint8_t> buf;
  costs.serialize_us = per_call_us(packets.size(), [&] {
    for (const auto& packet : packets) {
      serialize_fronthaul_into(packet, buf);
      g_replay_sink = g_replay_sink + buf.size();
    }
  });
  FapiMessage parsed;
  costs.fapi_codec_us = per_call_us(fapi.size(), [&] {
    for (const FapiMessage* msg : fapi) {
      serialize_fapi_into(*msg, buf);
      g_replay_sink =
          g_replay_sink + std::uint64_t(try_parse_fapi(buf, parsed));
    }
  });
  if (batch_config != nullptr) {
    UeBatch batch{*batch_config};
    std::int64_t slot = 0;
    costs.ue_advance_tti_us =
        per_call_us(1, [&] { batch.advance_tti(slot++); });
  }
  return costs;
}

}  // namespace slingbench
