#include "phy/phy.h"

#include <gtest/gtest.h>

#include <complex>

#include "common/rng.h"
#include "net/nic.h"
#include "phy/tb_codec.h"

namespace slingshot {
namespace {

struct IndicationCapture final : FapiSink {
  std::vector<FapiMessage> messages;
  std::vector<Nanos> times;
  Simulator* sim = nullptr;
  void on_fapi(FapiMessage&& msg) override {
    messages.push_back(std::move(msg));
    times.push_back(sim->now());
  }
  [[nodiscard]] int count(FapiMsgType type) const {
    int n = 0;
    for (const auto& m : messages) {
      n += m.type() == type ? 1 : 0;
    }
    return n;
  }
};

struct PhyFixture {
  Simulator sim;
  Link link{sim, LinkConfig{}, sim.rng().stream("loss")};
  Nic nic{sim, MacAddr{0xB1}};
  PhyConfig config;
  std::unique_ptr<PhyProcess> phy;
  ShmFapiPipe out{sim};
  IndicationCapture capture;
  // Frames the PHY emitted onto its fronthaul link.
  std::vector<Packet> fronthaul_tx;
  struct TxSink final : FrameSink {
    PhyFixture* owner;
    void handle_frame(Packet&& p) override {
      owner->fronthaul_tx.push_back(std::move(p));
    }
  } tx_sink;

  PhyFixture() {
    nic.attach(link);
    tx_sink.owner = this;
    link.attach_b(&tx_sink);
    phy = std::make_unique<PhyProcess>(sim, "phy-test", config, nic);
    phy->add_ru_binding(RuId{1}, MacAddr{0xA1});
    capture.sim = &sim;
    out.connect(&capture);
    phy->connect_fapi_out(&out);
    phy->power_on();
  }

  void configure_and_start() {
    phy->on_fapi(FapiMessage{RuId{1}, 0,
                             ConfigRequest{CarrierConfig{RuId{1}}}});
    phy->on_fapi(FapiMessage{RuId{1}, 0, StartRequest{RuId{1}}});
  }

  // Keep the PHY fed with null FAPI for `n_slots` starting at `first`.
  void feed_null(std::int64_t first, int n_slots) {
    for (int i = 0; i < n_slots; ++i) {
      phy->on_fapi(make_null_dl_tti(RuId{1}, first + i));
      phy->on_fapi(make_null_ul_tti(RuId{1}, first + i));
    }
  }
};

TEST(PhyProcess, ConfigProducesResponse) {
  PhyFixture f;
  f.configure_and_start();
  f.sim.run_until(1_ms);
  EXPECT_EQ(f.capture.count(FapiMsgType::kConfigResponse), 1);
}

TEST(PhyProcess, EmitsHeartbeatPacketsEverySlot) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 40);
  f.sim.run_until(10'000_us);  // 20 slots
  // >= 2 DL control packets per slot (scheduling + mid-slot sync).
  int dl_control = 0;
  for (const auto& frame : f.fronthaul_tx) {
    const auto header = peek_fronthaul_header(frame.payload);
    ASSERT_TRUE(header.has_value());
    if (header->direction == FhDirection::kDownlink &&
        header->plane == FhPlane::kControl) {
      ++dl_control;
    }
  }
  EXPECT_GE(dl_control, 2 * 18);
}

TEST(PhyProcess, CrashesWhenFapiStarved) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 10);  // slots 1..10 covered, then nothing
  f.sim.run_until(20'000_us);
  EXPECT_FALSE(f.phy->alive());
  EXPECT_GE(f.phy->stats().fapi_starved_slots,
            f.config.crash_after_missing_slots);
}

TEST(PhyProcess, NullFapiKeepsItAliveForever) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 400);
  f.sim.run_until(200'000_us);  // 400 slots
  EXPECT_TRUE(f.phy->alive());
  EXPECT_GT(f.phy->stats().null_slots, 300);
  EXPECT_EQ(f.phy->stats().work_slots, 0);
  EXPECT_EQ(f.phy->stats().work_units, 0.0);
}

TEST(PhyProcess, KillStopsAllEmission) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 40);
  f.sim.run_until(5'000_us);
  const auto frames_before = f.fronthaul_tx.size();
  f.phy->kill();
  f.sim.run_until(15'000_us);
  // At most one in-flight frame after the kill.
  EXPECT_LE(f.fronthaul_tx.size(), frames_before + 1);
  EXPECT_FALSE(f.phy->alive());
}

TEST(PhyProcess, EncodesDownlinkTbIntoUPlane) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 40);
  // Schedule a DL TB in slot 5 (a D slot).
  DlTtiRequest dl;
  dl.pdus.push_back(TtiPdu{UeId{1}, 0, 500, HarqId{0}, true});
  f.phy->on_fapi(FapiMessage{RuId{1}, 5, std::move(dl)});
  TxDataRequest tx;
  tx.payloads.push_back(std::vector<std::uint8_t>(500, 0x5C));
  f.phy->on_fapi(FapiMessage{RuId{1}, 5, std::move(tx)});
  f.sim.run_until(5'000_us);
  bool found_uplane = false;
  for (const auto& frame : f.fronthaul_tx) {
    const auto header = peek_fronthaul_header(frame.payload);
    if (header->plane == FhPlane::kUser) {
      const auto packet = parse_fronthaul(frame.payload);
      ASSERT_EQ(packet.uplane.sections.size(), 1U);
      EXPECT_EQ(packet.uplane.sections[0].ue, UeId{1});
      EXPECT_GT(packet.uplane.sections[0].iq.size(),
                std::size_t(kNumPilotSymbols));
      found_uplane = true;
    }
  }
  EXPECT_TRUE(found_uplane);
  EXPECT_EQ(f.phy->stats().dl_tbs_encoded, 1);
  EXPECT_GT(f.phy->stats().work_units, 0.0);
}

TEST(PhyProcess, DecodesUplinkWithPipelineDelay) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 40);
  // Grant in UL slot 9; deliver matching clean IQ as the RU would.
  UlTtiRequest ul;
  ul.pdus.push_back(TtiPdu{UeId{1}, 0, 300, HarqId{0}, true});
  f.phy->on_fapi(FapiMessage{RuId{1}, 9, std::move(ul)});

  const std::vector<std::uint8_t> payload(300, 0x77);
  const auto enc = encode_tb(payload, Modulation::kQpsk);
  FronthaulPacket up;
  up.header.direction = FhDirection::kUplink;
  up.header.plane = FhPlane::kUser;
  up.header.slot = SlotPoint::from_index(9, f.config.slots);
  up.header.ru = RuId{1};
  UPlaneSection section;
  section.ue = UeId{1};
  section.harq = HarqId{0};
  section.new_data = true;
  section.mcs = 0;
  section.tb_bytes = 300;
  section.codeword_bits = enc.codeword_bits;
  section.iq = enc.iq;
  section.shadow_payload = payload;
  up.uplane.sections.push_back(std::move(section));
  f.sim.at(Nanos(9) * 500_us + 200_us, [&f, up] {
    f.link.send_from_b(make_fronthaul_frame(MacAddr{0xA1}, MacAddr{0xB1}, up));
  });

  f.sim.run_until(10'000_us);
  ASSERT_EQ(f.capture.count(FapiMsgType::kCrcIndication), 1);
  ASSERT_EQ(f.capture.count(FapiMsgType::kRxDataIndication), 1);
  for (std::size_t i = 0; i < f.capture.messages.size(); ++i) {
    const auto& msg = f.capture.messages[i];
    if (msg.type() == FapiMsgType::kCrcIndication) {
      const auto& crc = std::get<CrcIndication>(msg.body);
      ASSERT_EQ(crc.entries.size(), 1U);
      EXPECT_TRUE(crc.entries[0].ok);
      EXPECT_EQ(msg.slot, 9);
      // Pipelined: indicated ul_pipeline_slots after the OTA slot.
      const auto indicated_slot = f.config.slots.slot_at(f.capture.times[i]);
      EXPECT_GE(indicated_slot, 9 + f.config.ul_pipeline_slots);
    }
    if (msg.type() == FapiMsgType::kRxDataIndication) {
      const auto& rx = std::get<RxDataIndication>(msg.body);
      ASSERT_EQ(rx.pdus.size(), 1U);
      EXPECT_EQ(rx.pdus[0].payload, payload);
    }
  }
  EXPECT_EQ(f.phy->stats().ul_crc_ok, 1);
}

TEST(PhyProcess, GrantedButNoSignalIsCrcFailure) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 40);
  UlTtiRequest ul;
  ul.pdus.push_back(TtiPdu{UeId{1}, 0, 300, HarqId{0}, true});
  f.phy->on_fapi(FapiMessage{RuId{1}, 9, std::move(ul)});
  f.sim.run_until(10'000_us);  // no IQ ever arrives
  ASSERT_EQ(f.capture.count(FapiMsgType::kCrcIndication), 1);
  for (const auto& msg : f.capture.messages) {
    if (msg.type() == FapiMsgType::kCrcIndication) {
      EXPECT_FALSE(std::get<CrcIndication>(msg.body).entries[0].ok);
    }
  }
  EXPECT_EQ(f.phy->stats().ul_missing_sections, 1);
}

TEST(PhyProcess, LateFapiDroppedWithErrorIndication) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 40);
  f.sim.run_until(5'000_us);  // now in slot 10
  f.phy->on_fapi(make_null_dl_tti(RuId{1}, 3));  // ancient request
  EXPECT_EQ(f.phy->stats().late_fapi_dropped, 1);
  f.sim.run_until(5'100_us);
  ASSERT_EQ(f.capture.count(FapiMsgType::kErrorIndication), 1);
  for (const auto& msg : f.capture.messages) {
    if (msg.type() == FapiMsgType::kErrorIndication) {
      const auto& err = std::get<ErrorIndication>(msg.body);
      EXPECT_EQ(err.code, kFapiMsgSlotErr);
      EXPECT_EQ(err.offending, FapiMsgType::kDlTtiRequest);
      EXPECT_EQ(msg.slot, 3);
    }
  }
}

TEST(PhyProcess, UlUciForwardedAsIndication) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 40);
  FronthaulPacket up;
  up.header.direction = FhDirection::kUplink;
  up.header.plane = FhPlane::kControl;
  up.header.slot = SlotPoint::from_index(4, f.config.slots);
  up.header.ru = RuId{1};
  up.cplane.uci.push_back(UciFeedback{UeId{1}, HarqId{5}, true});
  f.sim.at(2'200_us, [&f, up] {
    f.link.send_from_b(make_fronthaul_frame(MacAddr{0xA1}, MacAddr{0xB1}, up));
  });
  f.sim.run_until(5'000_us);
  ASSERT_EQ(f.capture.count(FapiMsgType::kUciIndication), 1);
}

TEST(PhyProcess, SoftStateTransferCopiesFilters) {
  PhyFixture f;
  Simulator& sim = f.sim;
  Link link2{sim, LinkConfig{}, sim.rng().stream("loss2")};
  Nic nic2{sim, MacAddr{0xB2}};
  nic2.attach(link2);
  PhyProcess other{sim, "phy-other", f.config, nic2};
  other.add_ru_binding(RuId{1}, MacAddr{0xA1});
  // Populate f.phy's SNR filter via a decode, then transfer to `other`.
  f.configure_and_start();
  f.feed_null(1, 40);
  UlTtiRequest ul;
  ul.pdus.push_back(TtiPdu{UeId{1}, 0, 300, HarqId{0}, true});
  f.phy->on_fapi(FapiMessage{RuId{1}, 9, std::move(ul)});
  const std::vector<std::uint8_t> payload(300, 0x11);
  const auto enc = encode_tb(payload, Modulation::kQpsk);
  FronthaulPacket up;
  up.header.direction = FhDirection::kUplink;
  up.header.plane = FhPlane::kUser;
  up.header.slot = SlotPoint::from_index(9, f.config.slots);
  up.header.ru = RuId{1};
  UPlaneSection section;
  section.ue = UeId{1};
  section.harq = HarqId{0};
  section.new_data = true;
  section.mcs = 0;
  section.tb_bytes = 300;
  section.codeword_bits = enc.codeword_bits;
  section.iq = enc.iq;
  section.shadow_payload = payload;
  up.uplane.sections.push_back(std::move(section));
  sim.at(Nanos(9) * 500_us + 200_us, [&] {
    f.link.send_from_b(make_fronthaul_frame(MacAddr{0xA1}, MacAddr{0xB1}, up));
  });
  sim.run_until(10'000_us);
  ASSERT_GT(f.phy->filtered_snr_db(RuId{1}, UeId{1}), 20.0);
  other.transfer_soft_state_from(*f.phy);
  EXPECT_DOUBLE_EQ(other.filtered_snr_db(RuId{1}, UeId{1}),
                   f.phy->filtered_snr_db(RuId{1}, UeId{1}));
}

// Legal FAPI our L2 never sends: one slot grants the same (UE, HARQ)
// process twice, a new transmission and then its retransmission. Decodes
// run in PDU order, so the first one's stored soft bits are the second
// one's HARQ prior. A grant for a UE with no signal sits in between to
// make the PDU order of the CRC entries visible.
TEST(PhyProcess, RepeatedHarqProcessInOneSlotChainsSoftBits) {
  PhyFixture f;
  f.configure_and_start();
  f.feed_null(1, 40);
  UlTtiRequest ul;
  ul.pdus.push_back(TtiPdu{UeId{1}, 0, 300, HarqId{3}, true});
  ul.pdus.push_back(TtiPdu{UeId{2}, 0, 300, HarqId{0}, true});
  ul.pdus.push_back(TtiPdu{UeId{1}, 0, 300, HarqId{3}, false});
  f.phy->on_fapi(FapiMessage{RuId{1}, 9, std::move(ul)});

  // Far below the QPSK threshold: the first decode fails.
  const std::vector<std::uint8_t> payload(300, 0x3C);
  auto enc = encode_tb(payload, Modulation::kQpsk);
  auto rng = RngRegistry{5}.stream("noise");
  for (auto& s : enc.iq) {
    s += std::complex<float>(float(rng.gaussian(0.0, 1.5)),
                             float(rng.gaussian(0.0, 1.5)));
  }
  FronthaulPacket up;
  up.header.direction = FhDirection::kUplink;
  up.header.plane = FhPlane::kUser;
  up.header.slot = SlotPoint::from_index(9, f.config.slots);
  up.header.ru = RuId{1};
  UPlaneSection section;
  section.ue = UeId{1};
  section.harq = HarqId{3};
  section.new_data = true;
  section.mcs = 0;
  section.tb_bytes = 300;
  section.codeword_bits = enc.codeword_bits;
  section.iq = enc.iq;
  section.shadow_payload = payload;
  up.uplane.sections.push_back(std::move(section));
  f.sim.at(Nanos(9) * 500_us + 200_us, [&f, up] {
    f.link.send_from_b(make_fronthaul_frame(MacAddr{0xA1}, MacAddr{0xB1}, up));
  });

  f.sim.run_until(10'000_us);
  ASSERT_EQ(f.capture.count(FapiMsgType::kCrcIndication), 1);
  for (const auto& msg : f.capture.messages) {
    if (msg.type() != FapiMsgType::kCrcIndication) {
      continue;
    }
    const auto& entries = std::get<CrcIndication>(msg.body).entries;
    ASSERT_EQ(entries.size(), 3U);
    EXPECT_EQ(entries[0].ue, UeId{1});
    EXPECT_EQ(entries[0].harq, HarqId{3});
    EXPECT_FALSE(entries[0].ok);
    EXPECT_EQ(entries[1].ue, UeId{2});
    EXPECT_FALSE(entries[1].ok);
    EXPECT_EQ(entries[2].ue, UeId{1});
    EXPECT_EQ(entries[2].harq, HarqId{3});
  }
  const auto& stats = f.phy->stats();
  EXPECT_EQ(stats.ul_tbs_decoded, 2);
  EXPECT_EQ(stats.harq_combines, 1);
  EXPECT_EQ(stats.ul_missing_sections, 1);
}

}  // namespace
}  // namespace slingshot
