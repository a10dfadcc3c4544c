#include "testbed/real_testbed.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "common/pool.h"
#include "testbed/testbed.h"
#include "transport/shm_ring.h"
#include "transport/udp_endpoint.h"
#include "transport/wallclock_pacer.h"

namespace slingshot {
namespace {

// Wall slots past run_slots during which roles keep draining so
// in-flight indications land before everyone exits.
constexpr std::int64_t kGraceSlots = 40;
// Slots before run end at which the relay's silence detector disarms
// (the wind-down is silent by design, not a failure).
constexpr std::int64_t kDetectorDisarmSlots = 6;
// Lead time between launch and the shared epoch, so every role is up
// and parked on wait_slot(0) before slot 0 begins.
constexpr std::int64_t kEpochLeadNs = 30'000'000;

constexpr RuId kRu{1};
constexpr UeId kUe{1};

using Kv = std::vector<std::pair<std::string, std::string>>;

void put(Kv& kv, const std::string& key, std::int64_t value) {
  kv.emplace_back(key, std::to_string(value));
}

std::int64_t get_i64(const Kv& kv, const std::string& key,
                     std::int64_t fallback) {
  for (const auto& [k, v] : kv) {
    if (k == key) {
      return std::strtoll(v.c_str(), nullptr, 10);
    }
  }
  return fallback;
}

// Everything the launcher wires up before spawning roles. Endpoints are
// value members opened pre-fork (children inherit the descriptors);
// rings are MAP_SHARED handles valid in every process.
struct Net {
  UdpEndpoint l2;
  UdpEndpoint orion;
  std::vector<UdpEndpoint> phys;
  ShmRing l2_to_orion;
  ShmRing orion_to_l2;
  std::vector<ShmRing> orion_to_phy;
  std::vector<ShmRing> phy_to_orion;
};

void send_fapi(UdpEndpoint& from, std::uint16_t to_port,
               const FapiMessage& msg, std::vector<std::uint8_t>& scratch) {
  serialize_fapi_into(msg, scratch);
  from.send_to(to_port, scratch);
}

FapiMessage make_real_dl_tti(std::int64_t slot) {
  DlTtiRequest req;
  req.pdus.push_back(TtiPdu{kUe, 10, 64, HarqId{0}, true});
  return FapiMessage{kRu, slot, std::move(req)};
}

FapiMessage make_real_ul_tti(std::int64_t slot) {
  UlTtiRequest req;
  req.pdus.push_back(TtiPdu{kUe, 10, 64, HarqId{0}, true});
  return FapiMessage{kRu, slot, std::move(req)};
}

// ---- L2 role ----------------------------------------------------------
// Paces the run: one DL_TTI + UL_TTI pair per wall slot plus a TX_DATA
// record on the SHM ring, while draining indications and measuring the
// CRC-flow gaps that define the user-visible outage.
Kv l2_role(const RealTestbedConfig& cfg, Net& net, std::int64_t epoch) {
  WallclockPacer pacer{{epoch, cfg.tti_ns}};
  std::vector<std::uint8_t> scratch;
  const std::uint16_t orion_port = net.orion.port();

  send_fapi(net.l2, orion_port,
            FapiMessage{kRu, 0, ConfigRequest{CarrierConfig{kRu}}}, scratch);
  send_fapi(net.l2, orion_port, FapiMessage{kRu, 0, StartRequest{kRu}},
            scratch);

  std::uint64_t crcs = 0;
  std::uint64_t rx_records = 0;
  std::uint64_t error_inds = 0;
  std::int64_t last_crc_wall = -1;
  std::int64_t last_crc_slot = -1;
  std::int64_t max_gap = 0;
  std::vector<std::uint8_t> rx;
  std::vector<std::uint8_t> record;

  auto drain = [&](int timeout_ms) {
    for (;;) {
      const int n = net.l2.recv(rx, timeout_ms);
      timeout_ms = 0;  // only the first receive of a batch may block
      if (n <= 0) {
        break;
      }
      FapiMessage msg;
      if (!try_parse_fapi(rx, msg)) {
        continue;  // corrupt bytes already counted process-wide
      }
      if (msg.type() == FapiMsgType::kCrcIndication) {
        const std::int64_t now = WallclockPacer::now_ns();
        if (last_crc_wall >= 0 && now - last_crc_wall > max_gap) {
          max_gap = now - last_crc_wall;
        }
        last_crc_wall = now;
        last_crc_slot = msg.slot;
        ++crcs;
      } else if (msg.type() == FapiMsgType::kErrorIndication) {
        ++error_inds;
      }
    }
    while (net.orion_to_l2.pop(record)) {
      ++rx_records;
    }
  };

  const std::vector<std::uint8_t> payload(64, 0xAB);
  for (std::int64_t slot = 0; slot < cfg.run_slots; ++slot) {
    pacer.wait_slot(std::uint64_t(slot));
    send_fapi(net.l2, orion_port, make_real_dl_tti(slot), scratch);
    send_fapi(net.l2, orion_port, make_real_ul_tti(slot), scratch);
    net.l2_to_orion.push(payload);
    drain(0);
  }
  const std::int64_t last_send_slot =
      (WallclockPacer::now_ns() - epoch) / cfg.tti_ns;
  const std::int64_t end =
      epoch + (cfg.run_slots + kGraceSlots) * cfg.tti_ns;
  while (WallclockPacer::now_ns() < end) {
    drain(1);
  }

  Kv kv;
  put(kv, "crcs", std::int64_t(crcs));
  put(kv, "rx_records", std::int64_t(rx_records));
  put(kv, "error_inds", std::int64_t(error_inds));
  put(kv, "last_crc_slot", last_crc_slot);
  put(kv, "last_send_slot", last_send_slot);
  put(kv, "max_gap_ns", max_gap);
  put(kv, "overruns", std::int64_t(pacer.overruns()));
  return kv;
}

// ---- PHY role ---------------------------------------------------------
// Event-driven: answers real UL_TTI with a CRC indication plus an
// RX_DATA ring record, nulls with a slot indication, and drains its TX
// ring. `frozen` is the inproc analogue of SIGKILL: once set the role
// stops touching its socket and rings, so the outside world sees the
// exact silence a dead process produces.
Kv phy_role(const RealTestbedConfig& cfg, Net& net, std::size_t index,
            std::int64_t epoch, const std::atomic<bool>* frozen) {
  const std::int64_t end =
      epoch + (cfg.run_slots + kGraceSlots) * cfg.tti_ns;
  std::vector<std::uint8_t> scratch;
  std::vector<std::uint8_t> rx;
  std::vector<std::uint8_t> record;
  const std::vector<std::uint8_t> rx_payload(32, 0xCD);
  std::uint64_t real_ul = 0;
  std::uint64_t nulls = 0;
  std::uint64_t tx_records = 0;
  std::int64_t killed = 0;
  UdpEndpoint& ep = net.phys[index];
  const std::uint16_t orion_port = net.orion.port();

  while (WallclockPacer::now_ns() < end) {
    if (frozen != nullptr && frozen->load(std::memory_order_acquire)) {
      killed = 1;
      break;
    }
    const int n = ep.recv(rx, 1);
    while (net.orion_to_phy[index].pop(record)) {
      ++tx_records;
    }
    if (n <= 0) {
      continue;
    }
    if (frozen != nullptr && frozen->load(std::memory_order_acquire)) {
      killed = 1;  // died while the datagram was in flight: never reply
      break;
    }
    FapiMessage msg;
    if (!try_parse_fapi(rx, msg)) {
      continue;
    }
    switch (msg.type()) {
      case FapiMsgType::kUlTtiRequest: {
        const auto& req = std::get<UlTtiRequest>(msg.body);
        if (req.pdus.empty()) {
          ++nulls;
          send_fapi(ep, orion_port,
                    FapiMessage{msg.ru, msg.slot, SlotIndication{}}, scratch);
        } else {
          ++real_ul;
          CrcIndication crc;
          crc.entries.push_back(CrcEntry{kUe, HarqId{0}, true, 20.0F});
          send_fapi(ep, orion_port,
                    FapiMessage{msg.ru, msg.slot, std::move(crc)}, scratch);
          net.phy_to_orion[index].push(rx_payload);
        }
        break;
      }
      case FapiMsgType::kConfigRequest: {
        send_fapi(ep, orion_port,
                  FapiMessage{msg.ru, msg.slot, ConfigResponse{msg.ru, true}},
                  scratch);
        break;
      }
      default:
        break;  // DL_TTI/START/STOP consume no reply in this harness
    }
  }

  Kv kv;
  put(kv, "real_ul", std::int64_t(real_ul));
  put(kv, "nulls", std::int64_t(nulls));
  put(kv, "tx_records", std::int64_t(tx_records));
  put(kv, "killed", killed);
  return kv;
}

// ---- Orion role -------------------------------------------------------
Kv orion_role(const RealTestbedConfig& cfg, Net& net, std::int64_t epoch) {
  RealOrionConfig oc;
  oc.ru = kRu;
  oc.l2_port = net.l2.port();
  for (const auto& ep : net.phys) {
    oc.phy_ports.push_back(ep.port());
  }
  oc.detect_timeout_ns = cfg.detect_timeout_ns;
  oc.detect_deadline_ns =
      epoch + (cfg.run_slots - kDetectorDisarmSlots) * cfg.tti_ns;
  oc.pacer = {epoch, cfg.tti_ns};
  RealOrionRelay relay(oc, &net.orion, net.l2_to_orion, net.orion_to_l2,
                       net.orion_to_phy, net.phy_to_orion);
  const std::int64_t end =
      epoch + (cfg.run_slots + kGraceSlots) * cfg.tti_ns;
  while (WallclockPacer::now_ns() < end) {
    relay.poll_once(1);
  }

  Kv kv;
  put(kv, "parse_errors", std::int64_t(relay.core().stats().parse_errors));
  for (const auto& e : relay.ledger()) {
    std::ostringstream enc;
    enc << int(e.kind) << ':' << unsigned(e.ru.value()) << ':'
        << unsigned(e.phy.value()) << ':' << e.slot << ':' << e.at;
    kv.emplace_back("episode", enc.str());
  }
  return kv;
}

std::vector<EpisodeEvent> decode_ledger(const Kv& kv) {
  std::vector<EpisodeEvent> ledger;
  for (const auto& [k, v] : kv) {
    if (k != "episode") {
      continue;
    }
    EpisodeEvent e;
    unsigned kind = 0;
    unsigned ru = 0;
    unsigned phy = 0;
    char sep = 0;
    std::istringstream dec(v);
    dec >> kind >> sep >> ru >> sep >> phy >> sep >> e.slot >> sep >> e.at;
    e.kind = EpisodeEventKind(kind);
    e.ru = RuId{std::uint8_t(ru)};
    e.phy = PhyId{std::uint8_t(phy)};
    ledger.push_back(e);
  }
  return ledger;
}

void write_kv_file(const std::filesystem::path& path, const Kv& kv) {
  std::ofstream out(path);
  for (const auto& [k, v] : kv) {
    out << k << '=' << v << '\n';
  }
}

Kv read_kv_file(const std::filesystem::path& path) {
  Kv kv;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) {
      kv.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
  }
  return kv;
}

}  // namespace

RealRunResult RealTestbed::run() {
  RealRunResult result;
  const std::size_t num_phys = config_.num_phys < 2 ? 2 : config_.num_phys;

  Net net;
  if (!net.l2.open_loopback() || !net.orion.open_loopback()) {
    result.error = "failed to open L2/Orion sockets";
    return result;
  }
  net.phys.resize(num_phys);
  for (auto& ep : net.phys) {
    if (!ep.open_loopback()) {
      result.error = "failed to open PHY socket";
      return result;
    }
  }
  net.l2_to_orion = ShmRing::create(config_.ring_bytes);
  net.orion_to_l2 = ShmRing::create(config_.ring_bytes);
  for (std::size_t i = 0; i < num_phys; ++i) {
    net.orion_to_phy.push_back(ShmRing::create(config_.ring_bytes));
    net.phy_to_orion.push_back(ShmRing::create(config_.ring_bytes));
  }
  for (const auto& ring : net.orion_to_phy) {
    if (!ring.valid()) {
      result.error = "failed to map SHM ring";
      return result;
    }
  }
  if (!net.l2_to_orion.valid() || !net.orion_to_l2.valid()) {
    result.error = "failed to map SHM ring";
    return result;
  }

  const std::int64_t epoch = WallclockPacer::now_ns() + kEpochLeadNs;
  const bool fault = !config_.kills.empty();
  // Execute the kill plan in order: wait for each kill's wall instant,
  // then take that PHY down.
  const auto run_kills = [&](const auto& take_down) {
    for (const PhyKill& k : config_.kills) {
      const std::int64_t target = epoch + k.slot * config_.tti_ns;
      while (WallclockPacer::now_ns() < target) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      if (result.kill_wall_ns < 0) {
        result.kill_wall_ns = WallclockPacer::now_ns();
        result.kill_slot = (result.kill_wall_ns - epoch) / config_.tti_ns;
      }
      if (k.phy < num_phys) {
        take_down(k.phy);
      }
    }
  };

  Kv l2_kv;
  Kv orion_kv;
  std::vector<Kv> phy_kv(num_phys);

  if (config_.inproc) {
    std::vector<std::atomic<bool>> frozen(num_phys);
    std::vector<std::thread> threads;
    threads.emplace_back(
        [&] { orion_kv = orion_role(config_, net, epoch); });
    for (std::size_t i = 0; i < num_phys; ++i) {
      threads.emplace_back([&, i] {
        phy_kv[i] = phy_role(config_, net, i, epoch, &frozen[i]);
      });
    }
    threads.emplace_back([&] { l2_kv = l2_role(config_, net, epoch); });
    run_kills([&](std::size_t phy) {
      frozen[phy].store(true, std::memory_order_release);
    });
    for (auto& t : threads) {
      t.join();
    }
  } else {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("slingshot_rt_" + std::to_string(::getpid()));
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      result.error = "failed to create result dir";
      return result;
    }
    auto spawn = [&](const std::string& name, auto&& fn) -> pid_t {
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Child: inherited thread_local pools belong to parent threads
        // that do not exist here — collapse the registry to this
        // thread's own pool before doing any work.
        BufferPools::reset_after_fork();
        write_kv_file(dir / (name + ".kv"), fn());
        ::_exit(0);
      }
      return pid;
    };
    const pid_t orion_pid =
        spawn("orion", [&] { return orion_role(config_, net, epoch); });
    std::vector<pid_t> phy_pids;
    for (std::size_t i = 0; i < num_phys; ++i) {
      phy_pids.push_back(spawn("phy" + std::to_string(i), [&, i] {
        return phy_role(config_, net, i, epoch, nullptr);
      }));
    }
    const pid_t l2_pid =
        spawn("l2", [&] { return l2_role(config_, net, epoch); });
    if (orion_pid < 0 || l2_pid < 0 ||
        std::any_of(phy_pids.begin(), phy_pids.end(),
                    [](pid_t p) { return p < 0; })) {
      result.error = "fork failed";
      return result;
    }

    // The scripted kill -9: terminate each PHY process outright.
    run_kills([&](std::size_t phy) { ::kill(phy_pids[phy], SIGKILL); });

    auto reap = [](pid_t pid) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      return status;
    };
    reap(orion_pid);
    reap(l2_pid);
    for (std::size_t i = 0; i < num_phys; ++i) {
      reap(phy_pids[i]);
    }
    orion_kv = read_kv_file(dir / "orion.kv");
    l2_kv = read_kv_file(dir / "l2.kv");
    for (std::size_t i = 0; i < num_phys; ++i) {
      phy_kv[i] = read_kv_file(dir / ("phy" + std::to_string(i) + ".kv"));
    }
    std::filesystem::remove_all(dir, ec);
  }

  net.l2_to_orion.destroy();
  net.orion_to_l2.destroy();
  for (auto& ring : net.orion_to_phy) {
    ring.destroy();
  }
  for (auto& ring : net.phy_to_orion) {
    ring.destroy();
  }

  if (l2_kv.empty() || orion_kv.empty()) {
    result.error = "missing role results";
    return result;
  }

  result.l2_crcs = std::uint64_t(get_i64(l2_kv, "crcs", 0));
  result.l2_rx_records = std::uint64_t(get_i64(l2_kv, "rx_records", 0));
  result.l2_error_inds = std::uint64_t(get_i64(l2_kv, "error_inds", 0));
  result.max_ind_gap_ns = get_i64(l2_kv, "max_gap_ns", 0);
  result.last_crc_slot = get_i64(l2_kv, "last_crc_slot", -1);
  result.last_l2_slot = get_i64(l2_kv, "last_send_slot", -1);
  result.pacer_overruns = std::uint64_t(get_i64(l2_kv, "overruns", 0));
  result.parse_errors = std::uint64_t(get_i64(orion_kv, "parse_errors", 0));
  result.ledger = decode_ledger(orion_kv);
  // "Restored" means the CRC stream reached the end of the pacing
  // window — the stack was serving again, not merely detected-and-
  // swapped.
  result.restored = result.last_crc_slot >= config_.run_slots - 5;
  if (fault) {
    result.outage_ns = result.max_ind_gap_ns;
    for (const auto& e : result.ledger) {
      if (e.kind == EpisodeEventKind::kDetected) {
        // Ledger times are the core's clock: ns since the epoch.
        result.detection_ns = epoch + e.at - result.kill_wall_ns;
        break;
      }
    }
  }
  result.ok = true;
  return result;
}

std::vector<EpisodeEvent> run_sim_fault_plan(const PhyKillPlan& plan,
                                             std::size_t num_phys) {
  TestbedConfig cfg;
  cfg.seed = 7;
  cfg.cells = {CellSpec{}};  // one cell, one UE: the real testbed's shape
  cfg.num_phys = int(num_phys);
  Testbed tb{cfg};
  EpisodeLedger ledger{tb.orion()};
  tb.orion().set_tap(&ledger);
  tb.start();
  tb.run_for(50_ms);  // settle window before measuring, as everywhere
  const Nanos t0 = tb.sim().now();
  for (const PhyKill& k : plan) {
    tb.run_until(t0 + Nanos(k.slot) * tb.config().slots.slot_duration);
    tb.kill_phy(tb.phy_id(int(k.phy)));
  }
  tb.run_for(100_ms);
  tb.orion().set_tap(nullptr);
  return ledger.events();
}

bool ledgers_conform(const std::vector<EpisodeEvent>& lhs,
                     const std::vector<EpisodeEvent>& rhs) {
  if (lhs.size() != rhs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i].kind != rhs[i].kind || lhs[i].ru != rhs[i].ru ||
        lhs[i].phy != rhs[i].phy) {
      return false;
    }
  }
  return true;
}

}  // namespace slingshot
