#include "core/orion.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "net/nic.h"

namespace slingshot {
namespace {

struct FapiCapture final : FapiSink {
  std::vector<FapiMessage> messages;
  void on_fapi(FapiMessage&& msg) override {
    messages.push_back(std::move(msg));
  }
};

// L2-side Orion + two PHY-side Orions with stub PHY sinks, across a
// plain switch.
struct OrionFixture {
  Simulator sim;
  ProgrammableSwitch sw{sim, 8};
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<Nic>> nics;
  Nic* l2_nic = nullptr;
  Nic* phy1_nic = nullptr;
  Nic* phy2_nic = nullptr;

  std::unique_ptr<OrionL2Side> orion_l2;
  std::unique_ptr<OrionPhySide> orion_1;
  std::unique_ptr<OrionPhySide> orion_2;
  ShmFapiPipe to_phy1{sim};
  ShmFapiPipe to_phy2{sim};
  ShmFapiPipe to_l2{sim};
  FapiCapture phy1;
  FapiCapture phy2;
  FapiCapture l2;

  OrionFixture() {
    auto add = [&](int port, std::uint64_t mac) -> Nic* {
      links.push_back(std::make_unique<Link>(
          sim, LinkConfig{}, sim.rng().stream("loss", std::uint64_t(port))));
      nics.push_back(std::make_unique<Nic>(sim, MacAddr{mac}));
      nics.back()->attach(*links.back());
      sw.attach_link(port, *links.back());
      sw.add_l2_route(MacAddr{mac}, port);
      return nics.back().get();
    };
    l2_nic = add(0, 0x10);
    phy1_nic = add(1, 0x11);
    phy2_nic = add(2, 0x12);

    orion_l2 = std::make_unique<OrionL2Side>(sim, "ol2", *l2_nic,
                                             OrionL2Config{});
    orion_1 = std::make_unique<OrionPhySide>(sim, "op1", *phy1_nic);
    orion_2 = std::make_unique<OrionPhySide>(sim, "op2", *phy2_nic);

    to_phy1.connect(&phy1);
    to_phy2.connect(&phy2);
    to_l2.connect(&l2);
    orion_1->connect_phy(&to_phy1);
    orion_2->connect_phy(&to_phy2);
    orion_1->set_l2_orion_mac(MacAddr{0x10});
    orion_2->set_l2_orion_mac(MacAddr{0x10});
    orion_l2->connect_l2(&to_l2);
    orion_l2->add_phy_peer(PhyId{1}, MacAddr{0x11});
    orion_l2->add_pool_standby(PhyId{2}, MacAddr{0x12});
    orion_l2->set_ru_primary(RuId{1}, PhyId{1});
  }

  void l2_sends(FapiMessage msg) { orion_l2->on_fapi(std::move(msg)); }

  // A PHY-side Orion relays an indication from "its" PHY.
  void phy_sends(int phy, FapiMessage msg) {
    (phy == 1 ? orion_1 : orion_2)->on_fapi(std::move(msg));
  }

  [[nodiscard]] static int count(const FapiCapture& capture,
                                 FapiMsgType type) {
    int n = 0;
    for (const auto& m : capture.messages) {
      n += m.type() == type ? 1 : 0;
    }
    return n;
  }
};

FapiMessage dl_tti(std::int64_t slot, int pdus = 1) {
  DlTtiRequest req;
  for (int i = 0; i < pdus; ++i) {
    req.pdus.push_back(TtiPdu{UeId{1}, 1, 1000, HarqId{0}, true});
  }
  return FapiMessage{RuId{1}, slot, std::move(req)};
}

TEST(OrionL2Side, RealToActiveNullToStandby) {
  OrionFixture f;
  f.l2_sends(dl_tti(100));
  f.l2_sends(FapiMessage{RuId{1}, 100, UlTtiRequest{{TtiPdu{UeId{1}}}}});
  f.sim.run_until(1_ms);

  // Active PHY got the real requests.
  ASSERT_EQ(f.phy1.messages.size(), 2U);
  EXPECT_EQ(std::get<DlTtiRequest>(f.phy1.messages[0].body).pdus.size(), 1U);
  // Standby got null versions for the same slots.
  ASSERT_EQ(f.phy2.messages.size(), 2U);
  EXPECT_TRUE(std::get<DlTtiRequest>(f.phy2.messages[0].body).pdus.empty());
  EXPECT_TRUE(std::get<UlTtiRequest>(f.phy2.messages[1].body).pdus.empty());
  EXPECT_EQ(f.phy2.messages[0].slot, 100);
}

TEST(OrionL2Side, TxDataOnlyToActive) {
  OrionFixture f;
  TxDataRequest tx;
  tx.payloads.push_back({1, 2, 3});
  f.l2_sends(FapiMessage{RuId{1}, 100, std::move(tx)});
  f.sim.run_until(1_ms);
  EXPECT_EQ(f.phy1.messages.size(), 1U);
  EXPECT_TRUE(f.phy2.messages.empty());
}

TEST(OrionL2Side, InitMessagesGoToBothAndAreStored) {
  OrionFixture f;
  f.l2_sends(FapiMessage{RuId{1}, 0, ConfigRequest{CarrierConfig{RuId{1}}}});
  f.l2_sends(FapiMessage{RuId{1}, 0, StartRequest{RuId{1}}});
  f.sim.run_until(1_ms);
  EXPECT_EQ(f.count(f.phy1, FapiMsgType::kConfigRequest), 1);
  EXPECT_EQ(f.count(f.phy2, FapiMsgType::kConfigRequest), 1);
  EXPECT_EQ(f.count(f.phy1, FapiMsgType::kStartRequest), 1);
  EXPECT_EQ(f.count(f.phy2, FapiMsgType::kStartRequest), 1);
}

TEST(OrionL2Side, AdoptStandbyReplaysInitSequence) {
  OrionFixture f;
  f.l2_sends(FapiMessage{RuId{1}, 0, ConfigRequest{CarrierConfig{RuId{1}}}});
  f.l2_sends(FapiMessage{RuId{1}, 0, StartRequest{RuId{1}}});
  f.sim.run_until(1_ms);
  // A restarted standby rejoining the pool gets the stored init
  // messages replayed.
  const auto before = f.phy2.messages.size();
  f.orion_l2->add_pool_standby(PhyId{2}, MacAddr{0x12});
  f.sim.run_until(2_ms);
  EXPECT_EQ(f.phy2.messages.size(), before + 2);
  EXPECT_EQ(f.orion_l2->standby_phy(RuId{1}), PhyId{2});
}

TEST(OrionL2Side, ActiveResponsesForwardedStandbyDropped) {
  OrionFixture f;
  f.phy_sends(1, FapiMessage{RuId{1}, 50, CrcIndication{}});
  f.phy_sends(2, FapiMessage{RuId{1}, 50, CrcIndication{}});
  f.sim.run_until(1_ms);
  EXPECT_EQ(f.l2.messages.size(), 1U);
  EXPECT_EQ(f.orion_l2->stats().standby_responses_dropped, 1U);
}

TEST(OrionL2Side, MigrationSwapsAtBoundarySlot) {
  OrionFixture f;
  f.orion_l2->migrate(RuId{1}, 200);
  // Requests for slots before the boundary still go (real) to PHY 1.
  f.l2_sends(dl_tti(199));
  f.sim.run_until(1_ms);
  EXPECT_EQ(std::get<DlTtiRequest>(f.phy1.messages.back().body).pdus.size(),
            1U);
  // At the boundary the roles swap.
  f.l2_sends(dl_tti(200));
  f.sim.run_until(2_ms);
  EXPECT_EQ(f.orion_l2->active_phy(RuId{1}), PhyId{2});
  EXPECT_EQ(std::get<DlTtiRequest>(f.phy2.messages.back().body).pdus.size(),
            1U);
  EXPECT_TRUE(std::get<DlTtiRequest>(f.phy1.messages.back().body).pdus.empty());
}

TEST(OrionL2Side, DrainsPipelinedResponsesFromOldPrimary) {
  OrionFixture f;
  f.orion_l2->migrate(RuId{1}, 200);
  f.l2_sends(dl_tti(200));  // finalizes the swap
  f.sim.run_until(1_ms);
  // Old primary delivers decode results for a pre-boundary slot (Fig 7).
  f.phy_sends(1, FapiMessage{RuId{1}, 198, RxDataIndication{}});
  f.sim.run_until(2_ms);
  EXPECT_EQ(f.l2.messages.size(), 1U);
  EXPECT_EQ(f.orion_l2->stats().drained_responses_accepted, 1U);
  // But its post-boundary indications are dropped.
  f.phy_sends(1, FapiMessage{RuId{1}, 201, SlotIndication{}});
  f.sim.run_until(3_ms);
  EXPECT_EQ(f.l2.messages.size(), 1U);
}

TEST(OrionL2Side, FailureNotificationTriggersFailover) {
  OrionFixture f;
  MigrationEvent observed;
  bool fired = false;
  f.orion_l2->set_on_failover([&](const MigrationEvent& e) {
    observed = e;
    fired = true;
  });
  Packet notify;
  notify.eth.dst = MacAddr{0x10};
  notify.eth.ethertype = EtherType::kFailureNotify;
  notify.payload = {1};  // PHY 1 failed
  f.phy1_nic->send(std::move(notify));  // any station can carry it
  f.sim.run_until(1_ms);
  ASSERT_TRUE(fired);
  EXPECT_EQ(observed.kind, MigrationEvent::Kind::kFailover);
  EXPECT_EQ(observed.from, PhyId{1});
  EXPECT_EQ(observed.to, PhyId{2});
  // The boundary finalizes on the next request at/after it.
  f.l2_sends(dl_tti(observed.boundary_slot));
  f.sim.run_until(2_ms);
  EXPECT_EQ(f.orion_l2->active_phy(RuId{1}), PhyId{2});
}

TEST(OrionL2Side, StandbyFailureDoesNotMigrate) {
  OrionFixture f;
  Packet notify;
  notify.eth.dst = MacAddr{0x10};
  notify.eth.ethertype = EtherType::kFailureNotify;
  notify.payload = {2};  // the standby failed
  f.phy1_nic->send(std::move(notify));
  f.sim.run_until(1_ms);
  EXPECT_EQ(f.orion_l2->active_phy(RuId{1}), PhyId{1});
  EXPECT_TRUE(f.orion_l2->migration_log().empty());
}

TEST(OrionL2Side, UnknownRuIgnored) {
  OrionFixture f;
  f.l2_sends(FapiMessage{RuId{9}, 100, DlTtiRequest{}});
  f.sim.run_until(1_ms);
  EXPECT_TRUE(f.phy1.messages.empty());
}

TEST(OrionPhySide, RelaysBothDirections) {
  OrionFixture f;
  // Network -> SHM (request toward the PHY).
  f.l2_sends(dl_tti(10));
  f.sim.run_until(1_ms);
  EXPECT_EQ(f.orion_1->relayed_to_phy(), 1U);
  ASSERT_FALSE(f.phy1.messages.empty());
  // SHM -> network (indication toward the L2).
  f.phy_sends(1, FapiMessage{RuId{1}, 10, CrcIndication{}});
  f.sim.run_until(2_ms);
  EXPECT_EQ(f.orion_1->relayed_to_l2(), 1U);
  ASSERT_EQ(f.l2.messages.size(), 1U);
  EXPECT_EQ(f.l2.messages[0].type(), FapiMsgType::kCrcIndication);
}

TEST(OrionPhySide, InjectsNullsForSlotsLostOnTheWire) {
  // §6.1: a lost datagram must not starve the PHY; the PHY-side Orion
  // plugs the hole with null requests.
  OrionFixture f;
  // Real request stream for slots 3,4,5 ... then a hole ... then 10.
  for (const std::int64_t s : {3, 4, 5}) {
    f.l2_sends(dl_tti(s));
    f.l2_sends(make_null_ul_tti(RuId{1}, s));
  }
  // Slots 6..9 "lost"; slot 10's request arrives on time.
  f.sim.at(Nanos(8) * 500_us, [&f] { f.l2_sends(dl_tti(10)); });
  f.sim.run_until(Nanos(11) * 500_us);
  EXPECT_GT(f.orion_1->nulls_injected(), 0U);
  // The PHY saw at least one (injected) request for every missing slot.
  std::set<std::int64_t> covered;
  for (const auto& msg : f.phy1.messages) {
    covered.insert(msg.slot);
  }
  for (std::int64_t s = 6; s <= 9; ++s) {
    EXPECT_TRUE(covered.contains(s)) << "slot " << s << " never covered";
  }
}

TEST(OrionPhySide, StopsInjectingWhenL2IsDead) {
  OrionFixture f;
  f.l2_sends(dl_tti(3));
  f.l2_sends(make_null_ul_tti(RuId{1}, 3));
  // No further requests ever: injection must stop after the dead-L2
  // threshold, letting the PHY's own starvation behaviour take over.
  f.sim.run_until(Nanos(100) * 500_us);
  EXPECT_LT(f.orion_1->nulls_injected(), 60U);
}

TEST(OrionPhySide, CorruptFapiDatagramDropped) {
  OrionFixture f;
  Packet junk;
  junk.eth.dst = MacAddr{0x11};
  junk.eth.ethertype = EtherType::kFapiTransport;
  junk.payload = {0x05, 0x01};  // DL_TTI type byte then truncation
  f.l2_nic->send(std::move(junk));
  f.sim.run_until(1_ms);  // must not throw
  EXPECT_TRUE(f.phy1.messages.empty());
}

TEST(OrionL2Side, CorruptIndicationSurfacesErrorIndication) {
  OrionFixture f;
  Packet junk;
  junk.eth.dst = MacAddr{0x10};
  junk.eth.ethertype = EtherType::kFapiTransport;
  junk.payload = {0x09};  // CRC.indication type byte then nothing
  f.phy1_nic->send(std::move(junk));
  f.sim.run_until(1_ms);
  // The corrupt bytes are not forwarded; the L2 instead receives one
  // ERROR.indication flagging the unparseable datagram.
  ASSERT_EQ(f.l2.messages.size(), 1U);
  const auto& msg = f.l2.messages.front();
  ASSERT_EQ(msg.type(), FapiMsgType::kErrorIndication);
  EXPECT_EQ(std::get<ErrorIndication>(msg.body).code, kFapiMsgCorrupt);
  EXPECT_EQ(f.orion_l2->stats().parse_errors, 1U);
}

// ---------------------------------------------------------------------
// OrionCore on its own: no Simulator and no Nic. A recording port
// stands in for both worlds' adapters.
// ---------------------------------------------------------------------
struct RecordingPort final : OrionPort {
  Nanos clock = 0;
  std::vector<std::pair<PhyId, FapiMessage>> phy_sends;
  std::vector<FapiMessage> l2_sends;
  std::vector<std::pair<std::vector<std::uint8_t>, Nanos>> switch_sends;

  [[nodiscard]] Nanos now() const override { return clock; }
  void to_phy(PhyId phy, const FapiMessage& msg) override {
    phy_sends.emplace_back(phy, msg);
  }
  void to_l2(FapiMessage&& msg) override { l2_sends.push_back(std::move(msg)); }
  void to_switch(std::vector<std::uint8_t>&& cmd, Nanos delay) override {
    switch_sends.emplace_back(std::move(cmd), delay);
  }
};

struct CoreFixture {
  RecordingPort port;
  OrionL2Config config{};
  OrionCore core{port, "core", config};
  CoreFixture() {
    core.add_pool_standby(PhyId{2});
    core.set_ru_primary(RuId{1}, PhyId{1});
  }
};

TEST(OrionCore, RealRequestToPrimaryNullToStandby) {
  CoreFixture f;
  f.core.on_l2_request(
      FapiMessage{RuId{1}, 100,
                  UlTtiRequest{{TtiPdu{UeId{1}, 1, 100, HarqId{0}, true}}}});
  ASSERT_EQ(f.port.phy_sends.size(), 2U);
  const auto& [real_phy, real] = f.port.phy_sends[0];
  const auto& [null_phy, null_msg] = f.port.phy_sends[1];
  EXPECT_EQ(real_phy, PhyId{1});
  EXPECT_EQ(std::get<UlTtiRequest>(real.body).pdus.size(), 1U);
  EXPECT_EQ(null_phy, PhyId{2});
  EXPECT_TRUE(std::get<UlTtiRequest>(null_msg.body).pdus.empty());
  EXPECT_EQ(null_msg.slot, 100);
  EXPECT_EQ(f.core.stats().null_requests_sent, 1U);
  EXPECT_TRUE(f.port.l2_sends.empty());
}

TEST(OrionCore, StandbyIndicationsDropped) {
  CoreFixture f;
  f.core.on_phy_indication(PhyId{2}, FapiMessage{RuId{1}, 50, CrcIndication{}});
  EXPECT_TRUE(f.port.l2_sends.empty());
  f.core.on_phy_indication(PhyId{1}, FapiMessage{RuId{1}, 50, CrcIndication{}});
  ASSERT_EQ(f.port.l2_sends.size(), 1U);
  EXPECT_EQ(f.port.l2_sends[0].type(), FapiMsgType::kCrcIndication);
  EXPECT_EQ(f.core.stats().standby_responses_dropped, 1U);
  EXPECT_EQ(f.core.stats().responses_forwarded, 1U);
}

TEST(OrionCore, FailureNotificationSwapsAtNowPlusMargin) {
  CoreFixture f;
  const SlotConfig& slots = f.config.slots;
  f.port.clock = slots.slot_start(100) + 1234;  // inside slot 100
  f.core.on_failure_notification(PhyId{1});

  ASSERT_EQ(f.core.migration_log().size(), 1U);
  const MigrationEvent& event = f.core.migration_log()[0];
  const std::int64_t boundary = 100 + f.config.failover_margin_slots;
  EXPECT_EQ(event.kind, MigrationEvent::Kind::kFailover);
  EXPECT_EQ(event.from, PhyId{1});
  EXPECT_EQ(event.to, PhyId{2});
  EXPECT_EQ(event.boundary_slot, boundary);
  EXPECT_EQ(event.notification_at, f.port.clock);
  // The fronthaul is steered to the standby at the same boundary, now.
  ASSERT_FALSE(f.port.switch_sends.empty());
  const auto cmd = parse_migrate_cmd(f.port.switch_sends[0].first);
  EXPECT_EQ(f.port.switch_sends[0].second, 0);
  EXPECT_EQ(cmd.dest_phy, PhyId{2});
  EXPECT_EQ(cmd.slot.wrapped_index(slots),
            SlotPoint::from_index(boundary, slots).wrapped_index(slots));

  // The slot before the boundary is still PHY 1's.
  f.core.on_l2_request(dl_tti(boundary - 1));
  EXPECT_EQ(f.core.active_phy(RuId{1}), PhyId{1});
  EXPECT_EQ(f.port.phy_sends.back().first, PhyId{2});  // its null
  EXPECT_EQ(f.port.phy_sends[f.port.phy_sends.size() - 2].first, PhyId{1});
  // At the boundary the standby takes over; the failed PHY gets nothing.
  f.port.phy_sends.clear();
  f.core.on_l2_request(dl_tti(boundary));
  EXPECT_EQ(f.core.active_phy(RuId{1}), PhyId{2});
  ASSERT_EQ(f.port.phy_sends.size(), 1U);
  EXPECT_EQ(f.port.phy_sends[0].first, PhyId{2});
  EXPECT_EQ(std::get<DlTtiRequest>(f.port.phy_sends[0].second.body).pdus.size(),
            1U);
}

TEST(OrionCore, DuplicateNotificationIsOnlyCounted) {
  CoreFixture f;
  f.port.clock = f.config.slots.slot_start(100);
  f.core.on_failure_notification(PhyId{1});
  const auto log_size = f.core.migration_log().size();
  const auto phy_sends = f.port.phy_sends.size();
  const auto l2_sends = f.port.l2_sends.size();
  const auto switch_sends = f.port.switch_sends.size();

  f.port.clock += 1000;
  f.core.on_failure_notification(PhyId{1});
  const OrionL2Stats& stats = f.core.stats();
  EXPECT_EQ(stats.failure_notifications, 2U);
  EXPECT_EQ(stats.failovers_initiated, 1U);
  EXPECT_EQ(stats.duplicate_notifications_ignored, 1U);
  EXPECT_EQ(f.core.migration_log().size(), log_size);
  EXPECT_EQ(f.core.migration_log().back().boundary_slot,
            100 + f.config.failover_margin_slots);
  EXPECT_EQ(f.port.phy_sends.size(), phy_sends);
  EXPECT_EQ(f.port.l2_sends.size(), l2_sends);
  EXPECT_EQ(f.port.switch_sends.size(), switch_sends);
}

TEST(OrionCore, StandbyNotificationSendsNothing) {
  CoreFixture f;
  f.port.clock = f.config.slots.slot_start(100);
  f.core.on_failure_notification(PhyId{2});
  // Suspect until it speaks: no migration, no command, no lost cell.
  EXPECT_EQ(f.core.stats().standby_failures, 1U);
  EXPECT_TRUE(notification_identity_holds(f.core.stats()));
  EXPECT_TRUE(f.core.migration_log().empty());
  EXPECT_TRUE(f.port.phy_sends.empty());
  EXPECT_TRUE(f.port.switch_sends.empty());
  EXPECT_EQ(f.core.standby_phy(RuId{1}), PhyId{2});
  EXPECT_EQ(f.core.pool_available(), 0U);
  // It keeps its null feed.
  f.core.on_l2_request(dl_tti(101));
  ASSERT_EQ(f.port.phy_sends.size(), 2U);
  EXPECT_EQ(f.port.phy_sends[1].first, PhyId{2});
  EXPECT_TRUE(
      std::get<DlTtiRequest>(f.port.phy_sends[1].second.body).pdus.empty());
  // A re-delivery is a duplicate, not a second standby failure.
  f.core.on_failure_notification(PhyId{2});
  EXPECT_EQ(f.core.stats().standby_failures, 1U);
  EXPECT_EQ(f.core.stats().duplicate_notifications_ignored, 1U);
  EXPECT_TRUE(notification_identity_holds(f.core.stats()));
}

TEST(OrionCore, FreshStandbyIndicationRehabilitatesIt) {
  CoreFixture f;
  const SlotConfig& slots = f.config.slots;
  f.port.clock = slots.slot_start(100);
  f.core.on_failure_notification(PhyId{2});
  ASSERT_EQ(f.core.pool_available(), 0U);
  // A delayed datagram from long before is no proof of life ...
  f.core.on_phy_indication(PhyId{2},
                           FapiMessage{RuId{1}, 50, SlotIndication{}});
  EXPECT_EQ(f.core.pool_available(), 0U);
  EXPECT_EQ(f.core.stats().rehabilitations, 0U);
  // ... a fresh one is: the standby is a failover target again.
  f.core.on_phy_indication(PhyId{2},
                           FapiMessage{RuId{1}, 100, SlotIndication{}});
  EXPECT_EQ(f.core.pool_available(), 1U);
  EXPECT_EQ(f.core.stats().rehabilitations, 1U);
  EXPECT_TRUE(f.port.l2_sends.empty());  // still a standby's indication
  f.core.on_failure_notification(PhyId{1});
  ASSERT_EQ(f.core.migration_log().size(), 1U);
  EXPECT_EQ(f.core.migration_log()[0].to, PhyId{2});
}

TEST(OrionCore, SuspectStandbySpeakingRunsTheDeferredFailover) {
  CoreFixture f;
  f.port.clock = f.config.slots.slot_start(100);
  f.core.on_failure_notification(PhyId{2});
  // The primary dies while its only standby is suspect: unprotected.
  f.core.on_failure_notification(PhyId{1});
  EXPECT_EQ(f.core.stats().unprotected_notifications, 1U);
  EXPECT_TRUE(f.core.migration_log().empty());
  // The standby proves itself alive: the failover waits no longer.
  f.core.on_phy_indication(PhyId{2},
                           FapiMessage{RuId{1}, 100, SlotIndication{}});
  EXPECT_EQ(f.core.stats().deferred_failovers_executed, 1U);
  ASSERT_EQ(f.core.migration_log().size(), 1U);
  EXPECT_EQ(f.core.migration_log()[0].from, PhyId{1});
  EXPECT_EQ(f.core.migration_log()[0].to, PhyId{2});
  EXPECT_TRUE(notification_identity_holds(f.core.stats()));
}

TEST(OrionCore, SuspectStandbyIsSkippedAtFailover) {
  RecordingPort port;
  OrionL2Config config{};
  OrionCore core{port, "core", config};
  core.add_pool_standby(PhyId{2});
  core.add_pool_standby(PhyId{3});
  core.set_ru_primary(RuId{1}, PhyId{1});
  core.on_l2_request(
      FapiMessage{RuId{1}, 0, ConfigRequest{CarrierConfig{RuId{1}}}});
  ASSERT_EQ(core.standby_phy(RuId{1}), PhyId{2});
  port.clock = config.slots.slot_start(100);
  core.on_failure_notification(PhyId{2});
  port.phy_sends.clear();

  core.on_failure_notification(PhyId{1});
  ASSERT_EQ(core.migration_log().size(), 1U);
  EXPECT_EQ(core.migration_log()[0].to, PhyId{3});
  EXPECT_EQ(core.standby_phy(RuId{1}), PhyId{3});
  EXPECT_EQ(core.stats().failovers_initiated, 1U);
  // The suspect's carrier is stopped; the new target gets the init
  // replay before the boundary.
  bool stopped_suspect = false;
  bool replayed_target = false;
  for (const auto& [phy, msg] : port.phy_sends) {
    stopped_suspect |=
        phy == PhyId{2} && msg.type() == FapiMsgType::kStopRequest;
    replayed_target |=
        phy == PhyId{3} && msg.type() == FapiMsgType::kConfigRequest;
  }
  EXPECT_TRUE(stopped_suspect);
  EXPECT_TRUE(replayed_target);
  EXPECT_TRUE(notification_identity_holds(core.stats()));
}

TEST(OrionCostModel, ScalesWithMessageSize) {
  OrionCostModel model;
  auto rng = RngRegistry{1}.stream("cost");
  RunningStats small;
  RunningStats big;
  for (int i = 0; i < 2000; ++i) {
    small.add(double(model.sample(100, rng)));
    big.add(double(model.sample(200'000, rng)));
  }
  EXPECT_GT(big.mean(), small.mean() + 10'000);  // >10 us more
  EXPECT_GT(small.mean(), double(model.base));
}

}  // namespace
}  // namespace slingshot
