// Figure 12 (§8.7): one-way L2->PHY latency added by Orion at different
// downlink user throughputs. Paper: stays under 200 µs even at
// 3.4 Gbps (generated with FlexRAN's test-mode MAC), comfortably within
// the one-TTI (500 µs) FAPI transfer budget.
//
// Setup mirrors the paper's microbenchmark: an L2-side Orion and a
// PHY-side Orion across the switch; we timestamp each TX_Data.request
// when the L2 hands it to Orion and when the PHY receives it over SHM.
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "core/orion.h"
#include "net/nic.h"
#include "switchsim/pswitch.h"

namespace slingshot {
namespace {

struct LatencyProbe final : FapiSink {
  Simulator* sim = nullptr;
  std::vector<Nanos>* sent_at = nullptr;
  PercentileTracker latencies;  // microseconds

  void on_fapi(FapiMessage&& msg) override {
    const auto idx = std::size_t(msg.slot);
    if (sent_at != nullptr && idx < sent_at->size()) {
      latencies.add(to_micros(sim->now() - (*sent_at)[idx]));
    }
  }
};

PercentileTracker run_load(double dl_gbps, int num_messages) {
  Simulator sim{31};
  ProgrammableSwitch fabric{sim, 4};
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<Nic>> nics;
  auto add = [&](int port, std::uint64_t mac) -> Nic* {
    links.push_back(std::make_unique<Link>(
        sim, LinkConfig{}, sim.rng().stream("loss", std::uint64_t(port))));
    nics.push_back(std::make_unique<Nic>(sim, MacAddr{mac}));
    nics.back()->attach(*links.back());
    fabric.attach_link(port, *links.back());
    fabric.add_l2_route(MacAddr{mac}, port);
    return nics.back().get();
  };
  Nic* l2_nic = add(0, 0x1);
  Nic* phy_nic = add(1, 0x2);

  OrionL2Config ol2;
  OrionL2Side orion_l2{sim, "bench-l2", *l2_nic, ol2};
  OrionPhySide orion_phy{sim, "bench-phy", *phy_nic, OrionCostModel{}};
  orion_l2.add_phy_peer(PhyId{1}, MacAddr{0x2});
  orion_l2.add_pool_standby(PhyId{2}, MacAddr{0x3});  // sink (absent)
  orion_l2.set_ru_primary(RuId{1}, PhyId{1});

  ShmFapiPipe to_phy{sim};
  LatencyProbe probe;
  std::vector<Nanos> sent_at(static_cast<std::size_t>(num_messages));
  probe.sim = &sim;
  probe.sent_at = &sent_at;
  to_phy.connect(&probe);
  orion_phy.connect_phy(&to_phy);

  // Per-DL-slot TX_Data payload implied by the offered DL throughput
  // (1200 DL slots/s with DDDSU).
  const auto bytes_per_slot =
      std::size_t(dl_gbps * 1e9 / 8.0 / 1200.0);
  const Nanos slot = 500'000;
  for (int i = 0; i < num_messages; ++i) {
    sim.at(Nanos(i + 1) * slot, [&, i] {
      TxDataRequest tx;
      tx.payloads.push_back(std::vector<std::uint8_t>(bytes_per_slot, 0x42));
      sent_at[std::size_t(i)] = sim.now();
      orion_l2.on_fapi(FapiMessage{RuId{1}, i, std::move(tx)});
    });
  }
  sim.run_until(Nanos(num_messages + 10) * slot);
  return std::move(probe.latencies);
}

}  // namespace
}  // namespace slingshot

int main() {
  using namespace slingshot;
  using namespace slingshot::bench;
  print_banner("Figure 12",
               "one-way L2->PHY latency added by Orion vs downlink load");

  struct Load {
    const char* label;
    double gbps;
    int messages;
  };
  const Load loads[] = {
      {"idle", 0.0, 20000},      {"100 Mbps", 0.1, 20000},
      {"1.1 Gbps", 1.1, 20000},  {"2.8 Gbps", 2.8, 12000},
      {"3.4 Gbps", 3.4, 12000},
  };

  print_row({"load", "median (us)", "p99", "p99.9", "max"});
  for (const auto& load : loads) {
    auto lat = run_load(load.gbps, load.messages);
    print_row({load.label, fmt(lat.quantile(0.5), 1), fmt(lat.quantile(0.99), 1),
               fmt(lat.quantile(0.999), 1), fmt(lat.quantile(1.0), 1)});
  }
  std::printf(
      "\nPaper: median tens of us; 99.999th percentile under 200 us at\n"
      "3.4 Gbps — well inside FlexRAN's one-TTI (500 us) FAPI budget.\n");
  return 0;
}
