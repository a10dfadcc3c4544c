#include "workloads.h"

#include <algorithm>
#include <stdexcept>

namespace slingbench {

using namespace slingshot;

namespace {

// Virtual-time layout of every workload: flows start at the end of the
// pre-roll, and the measured horizon runs from there to `horizon`.
struct Shape {
  std::uint64_t canonical_seed;
  Nanos measure_from;
  Nanos horizon;
  Nanos event_at;  // fail-stop / cable pull; first migration for tab02
};

Shape shape_of(const std::string& name, bool smoke) {
  if (name == "fig10_failover") {
    return smoke ? Shape{10, 100_ms, 1'500_ms, 500_ms}
                 : Shape{10, 100_ms, 10'000_ms, 2'000_ms};
  }
  if (name == "tab02_migration") {
    // Migrations start 25 ms into the horizon so the last one (4 slots
    // of lead) executes before the run ends.
    return smoke ? Shape{21, 500_ms, 2'500_ms, 525_ms}
                 : Shape{21, 500_ms, 20'500_ms, 525_ms};
  }
  if (name == "fleet_sharded") {
    return smoke ? Shape{16, 100_ms, 600_ms, 300_ms}
                 : Shape{16, 100_ms, 3'000_ms, 1'500_ms};
  }
  if (name == "fabric_frer") {
    return smoke ? Shape{41, 100_ms, 1'000_ms, 500_ms}
                 : Shape{41, 100_ms, 4'000_ms, 2'000_ms};
  }
  throw std::invalid_argument("unknown workload: " + name);
}

constexpr Nanos kMigrationPeriod = 50_ms;
constexpr Nanos kRestoredWindow = 500_ms;

}  // namespace

double count_of(const Counters& counters, const std::string& key) {
  for (const auto& [k, v] : counters) {
    if (k == key) {
      return v;
    }
  }
  return 0.0;
}

Workload::Workload(const std::string& name, const RunConfig& config)
    : name_(name) {
  const Shape shape = shape_of(name, config.smoke);
  seed_ = shape.canonical_seed + config.seed;
  measure_from_ = shape.measure_from;
  horizon_ = shape.horizon;
  event_at_ = shape.event_at;
  kind_ = name == "fig10_failover"    ? Kind::kFig10
          : name == "tab02_migration" ? Kind::kTab02
          : name == "fleet_sharded"   ? Kind::kFleet
                                      : Kind::kFabric;

  if (kind_ == Kind::kFleet) {
    ShardedTestbedConfig cfg;
    cfg.seed = seed_;
    const int cells = config.smoke ? 4 : 16;
    const int bulk = config.smoke ? 500 : 5'000;
    cfg.cells.assign(std::size_t(cells), CellSpec{1, {20.0}, bulk});
    cfg.shards = std::max(1, config.shards);
    fleet_ = std::make_unique<ShardedTestbed>(cfg);
    for (int c = 0; c < cells; ++c) {
      testbeds_.push_back(&fleet_->island(c));
      add_flow(fleet_->island(c), /*downlink=*/false, 4e6);
    }
    return;
  }

  TestbedConfig cfg;
  cfg.seed = seed_;
  cfg.num_ues = 1;
  switch (kind_) {
    case Kind::kFig10:
      cfg.ue_mean_snr_db = {21.0};
      break;
    case Kind::kTab02:
      cfg.ue_mean_snr_db = {13.5};
      cfg.phy.ldpc_max_iters = 4;
      break;
    default:
      cfg.ue_mean_snr_db = {20.0};
      cfg.link.bandwidth_bps = 10e9;
      cfg.link.max_queue_bytes = 256 * 1024;
      cfg.fabric.cross_traffic_load = 0.5;
      cfg.fabric.sync.max_abs_offset = 1'000;
      cfg.fabric.sync.drift_ppm = 50.0;
      cfg.fabric.frer = true;
      cfg.fabric.arm_detector = false;
      break;
  }
  single_ = std::make_unique<Testbed>(cfg);
  testbeds_.push_back(single_.get());
  switch (kind_) {
    case Kind::kFig10:
      add_flow(*single_, /*downlink=*/true, 120e6);
      add_flow(*single_, /*downlink=*/false, 15.8e6);
      break;
    case Kind::kTab02:
      add_flow(*single_, /*downlink=*/false, 8e6);
      break;
    default:
      add_flow(*single_, /*downlink=*/true, 40e6);
      break;
  }
}

Workload::~Workload() = default;

void Workload::add_flow(Testbed& tb, bool downlink, double rate_bps) {
  UdpFlowConfig flow_cfg;
  flow_cfg.rate_bps = rate_bps;
  DatagramPipe& ue = tb.ue_pipe(0);
  DatagramPipe& server = tb.server_pipe(0);
  flows_.push_back(std::make_unique<UdpFlow>(
      tb.sim(), downlink ? server : ue, downlink ? ue : server, flow_cfg));
}

int Workload::shards() const {
  return fleet_ ? fleet_->engine().shards() : 1;
}

void Workload::start() {
  if (fleet_) {
    fleet_->start();
  } else {
    single_->start();
  }
}

void Workload::preroll() {
  run_until(measure_from_);
  for (auto& flow : flows_) {
    flow->start();
  }
  switch (kind_) {
    case Kind::kFig10:
      single_->sim().at(event_at_, [tb = single_.get()] {
        tb->kill_primary_phy();
      });
      break;
    case Kind::kTab02:
      single_->sim().every(event_at_, kMigrationPeriod, [this] {
        ++migrations_requested_;
        single_->planned_migration();
      });
      break;
    case Kind::kFleet:
      fleet_->kill_primary_at(0, event_at_);
      break;
    case Kind::kFabric:
      // Cable pull on PHY-A's plane-A link; plane B carries on.
      single_->sim().at(event_at_, [tb = single_.get()] {
        tb->phy_link(0).set_down(true);
      });
      break;
  }
}

void Workload::run_until(Nanos t) {
  ++steps_;
  if (fleet_) {
    fleet_->run_until(t);
  } else {
    single_->run_until(t);
  }
}

std::uint64_t Workload::fingerprint() const {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (Testbed* tb : testbeds_) {
    mix(tb->sim().trace_hash());
    mix(tb->sim().executed_events());
  }
  return h;
}

Counters Workload::counters() const {
  double events = 0, lost = 0, failovers = 0, migrations = 0;
  double ul_tbs = 0, ul_ok = 0, iters = 0, dl_tbs = 0;
  double delivered = 0, dropped = 0, overflow = 0, switch_frames = 0;
  double frer_dups = 0, bulk_ul_ok = 0;
  for (Testbed* tb : testbeds_) {
    events += double(tb->sim().executed_events());
    failovers += double(tb->orion().stats().failovers_initiated);
    migrations += double(tb->mbox().stats().migrations_executed);
    frer_dups += double(tb->frer_totals().duplicates_eliminated);
    switch_frames += double(tb->fabric().frames_processed());
    if (tb->fabric_b() != nullptr) {
      switch_frames += double(tb->fabric_b()->frames_processed());
    }
    for (int c = 0; c < tb->num_cells(); ++c) {
      lost += double(tb->ru_at(c).stats().dropped_ttis);
      if (tb->batch_at(c) != nullptr) {
        bulk_ul_ok += double(tb->l2().bulk_stats(std::uint8_t(c)).ul_crc_ok);
      }
    }
    for (int p = 0; p < tb->num_phys(); ++p) {
      const auto& s = tb->phy(p).stats();
      ul_tbs += double(s.ul_tbs_decoded);
      ul_ok += double(s.ul_crc_ok);
      iters += double(s.decode_iterations);
      dl_tbs += double(s.dl_tbs_encoded);
    }
    auto add_link = [&](const Link* l) {
      if (l != nullptr) {
        delivered += double(l->frames_delivered());
        dropped += double(l->frames_dropped());
        overflow += double(l->dropped_overflow());
      }
    };
    for (int c = 0; c < tb->num_cells(); ++c) {
      add_link(&tb->ru_link(c));
      add_link(tb->ru_link_b(c));
    }
    for (int p = 0; p < tb->num_phys(); ++p) {
      add_link(&tb->phy_link(p));
      add_link(tb->phy_link_b(p));
    }
  }
  double rx_bytes = 0;
  for (const auto& flow : flows_) {
    for (std::size_t i = 0; i < flow->goodput().num_bins(); ++i) {
      rx_bytes += flow->goodput().bin(i);
    }
  }
  const double windows =
      fleet_ ? double(fleet_->engine().windows_run()) : double(steps_);
  return {{"sim.events", events},
          {"sim.windows", windows},
          {"ru.lost_ttis", lost},
          {"core.failovers", failovers},
          {"core.migrations", migrations},
          {"core.migrations_requested", double(migrations_requested_)},
          {"phy.ul_tbs_decoded", ul_tbs},
          {"phy.ul_crc_ok", ul_ok},
          {"phy.decode_iterations", iters},
          {"phy.dl_tbs_encoded", dl_tbs},
          {"ue.bulk_ul_crc_ok", bulk_ul_ok},
          {"net.frames_delivered", delivered},
          {"net.frames_dropped", dropped},
          {"net.overflow_drops", overflow},
          {"net.frer_duplicates_eliminated", frer_dups},
          {"switchsim.frames", switch_frames},
          {"app.rx_bytes", rx_bytes}};
}

std::int64_t Workload::lost_tti_budget() const {
  return kind_ == Kind::kFig10 || kind_ == Kind::kFleet ? 2 : 0;
}

std::vector<std::string> Workload::check_shape(
    const Counters& measured) const {
  std::vector<std::string> failures;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  };
  const double failovers = count_of(measured, "core.failovers");
  const double lost = count_of(measured, "ru.lost_ttis");
  expect(lost <= double(lost_tti_budget()),
         "lost TTIs " + std::to_string(std::int64_t(lost)) +
             " exceed the budget of " + std::to_string(lost_tti_budget()));
  switch (kind_) {
    case Kind::kFig10:
    case Kind::kFleet:
      expect(failovers == 1.0, "expected exactly one failover, got " +
                                   std::to_string(std::int64_t(failovers)));
      break;
    case Kind::kTab02:
      expect(failovers == 0.0, "unexpected failover");
      expect(migrations_requested_ > 0 &&
                 count_of(measured, "core.migrations") ==
                     double(migrations_requested_),
             "planned migrations executed " +
                 std::to_string(std::int64_t(
                     count_of(measured, "core.migrations"))) +
                 " of " + std::to_string(migrations_requested_));
      break;
    case Kind::kFabric:
      expect(failovers == 0.0, "unexpected failover with FRER");
      expect(single_->phy_link(0).dropped_down() > 0,
             "the cable pull destroyed no frame");
      expect(count_of(measured, "net.frer_duplicates_eliminated") > 0,
             "FRER eliminated no duplicate");
      break;
  }
  // Flows restored: every flow still delivers in the last 500 ms.
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    const auto& bins = flows_[f]->goodput();
    double tail = 0;
    for (std::size_t i = 0; i < bins.num_bins(); ++i) {
      if (bins.bin_start_time(i) >= horizon_ - kRestoredWindow) {
        tail += bins.bin(i);
      }
    }
    expect(tail > 0, "flow " + std::to_string(f) +
                         " delivered nothing in the last 500 ms");
  }
  return failures;
}

}  // namespace slingbench
