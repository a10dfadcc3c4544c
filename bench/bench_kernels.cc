// google-benchmark microbenchmarks of the PHY signal-processing kernels
// and wire codecs — the per-TTI work the real-time budget pays for.
//
// Before any benchmark runs, main() verifies the SIMD kernels
// (phy/simd.h) bit-exactly match the scalar reference on randomized
// inputs, and the slicing-by-8 CRCs match a local bitwise oracle —
// exiting nonzero on any divergence, so a CI bench run doubles as a
// numerical-parity gate. The BM_Simd* benchmarks then report
// per-level (scalar/sse2/avx2) throughput side by side.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/crc.h"
#include "common/rng.h"
#include "fapi/fapi.h"
#include "fronthaul/bfp.h"
#include "fronthaul/oran.h"
#include "phy/ldpc.h"
#include "phy/modulation.h"
#include "phy/simd.h"
#include "phy/tb_codec.h"

namespace slingshot {
namespace {

std::vector<std::uint8_t> random_bits(int n, std::uint64_t seed) {
  auto rng = RngRegistry{seed}.stream("bench");
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(n));
  for (auto& b : bits) {
    b = std::uint8_t(rng.next_u64() & 1U);
  }
  return bits;
}

void BM_LdpcEncode(benchmark::State& state) {
  const auto& code = LdpcCode::standard();
  const auto info = random_bits(code.k(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(info));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LdpcEncode);

void BM_LdpcDecode(benchmark::State& state) {
  const auto& code = LdpcCode::standard();
  const auto cw = code.encode(random_bits(code.k(), 2));
  auto rng = RngRegistry{3}.stream("noise");
  const double snr_db = 3.0;
  const double sigma2 = std::pow(10.0, -snr_db / 10.0);
  std::vector<float> llrs(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    const double x = cw[i] ? -1.0 : 1.0;
    llrs[i] = float(2.0 * (x + rng.gaussian(0, std::sqrt(sigma2))) / sigma2);
  }
  const int iters = int(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(llrs, iters));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LdpcDecode)->Arg(2)->Arg(8)->Arg(16)->Arg(32);

// Shared noisy-channel LLR generator for the decode benchmarks below.
std::vector<float> noisy_llrs(const LdpcCode& code, std::uint64_t seed) {
  const auto cw = code.encode(random_bits(code.k(), seed));
  auto rng = RngRegistry{seed + 1}.stream("noise");
  const double sigma2 = std::pow(10.0, -3.0 / 10.0);
  std::vector<float> llrs(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    const double x = cw[i] ? -1.0 : 1.0;
    llrs[i] = float(2.0 * (x + rng.gaussian(0, std::sqrt(sigma2))) / sigma2);
  }
  return llrs;
}

// Batched flooding per decode at the iteration budgets the PHY uses
// (1, 4 and the default 8). The `iters_used` counter shows how many ran
// before the early exit.
void BM_LdpcDecodeSchedule(benchmark::State& state) {
  const auto& code = LdpcCode::standard();
  const auto llrs = noisy_llrs(code, 12);
  const int iters = int(state.range(0));
  LdpcCode::DecodeWorkspace ws;
  int iters_used = 0;
  for (auto _ : state) {
    const auto status = code.decode_into(llrs, iters, ws);
    iters_used = status.iterations_used;
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["iters_used"] = iters_used;
}
BENCHMARK(BM_LdpcDecodeSchedule)->ArgNames({"iters"})->Arg(1)->Arg(4)->Arg(8);

// Workspace reuse vs the allocating wrapper: the same algorithm, with
// and without per-decode heap traffic.
void BM_LdpcDecodeWorkspaceReuse(benchmark::State& state) {
  const auto& code = LdpcCode::standard();
  const auto llrs = noisy_llrs(code, 13);
  const bool reuse = state.range(0) != 0;
  LdpcCode::DecodeWorkspace ws;
  for (auto _ : state) {
    if (reuse) {
      benchmark::DoNotOptimize(code.decode_into(llrs, 8, ws));
    } else {
      // Fresh workspace per decode: every scratch vector reallocates.
      LdpcCode::DecodeWorkspace fresh;
      benchmark::DoNotOptimize(code.decode_into(llrs, 8, fresh));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LdpcDecodeWorkspaceReuse)
    ->ArgNames({"reuse"})
    ->Arg(0)
    ->Arg(1);

void BM_Modulate(benchmark::State& state) {
  const Modulator mod{Modulation(state.range(0))};
  const auto bits = random_bits(648, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod.modulate(bits));
  }
}
BENCHMARK(BM_Modulate)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_Demap(benchmark::State& state) {
  const Modulator mod{Modulation(state.range(0))};
  const auto bits = random_bits(648, 5);
  const auto syms = mod.modulate(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod.demap(syms, 0.05));
  }
}
BENCHMARK(BM_Demap)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_TbEncodeFullChain(benchmark::State& state) {
  auto rng = RngRegistry{6}.stream("payload");
  std::vector<std::uint8_t> payload(1500);
  for (auto& b : payload) {
    b = std::uint8_t(rng.next_u64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_tb(payload, Modulation::kQam64));
  }
}
BENCHMARK(BM_TbEncodeFullChain);

void BM_TbDecodeFullChain(benchmark::State& state) {
  auto rng = RngRegistry{7}.stream("payload");
  std::vector<std::uint8_t> payload(1500);
  for (auto& b : payload) {
    b = std::uint8_t(rng.next_u64());
  }
  const auto enc = encode_tb(payload, Modulation::kQam64);
  TbDecodeWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_tb(enc.iq, Modulation::kQam64, payload, 8,
                                       nullptr, LdpcCode::standard(), &ws));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TbDecodeFullChain);

void BM_FapiRoundtrip(benchmark::State& state) {
  UlTtiRequest req;
  for (int i = 0; i < 4; ++i) {
    req.pdus.push_back(
        TtiPdu{UeId{std::uint16_t(i)}, 2, 5000, HarqId{std::uint8_t(i)}, true});
  }
  const FapiMessage msg{RuId{1}, 12345, req};
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_fapi(serialize_fapi(msg)));
  }
}
BENCHMARK(BM_FapiRoundtrip);

void BM_FronthaulHeaderPeek(benchmark::State& state) {
  FronthaulPacket p;
  p.header.slot = SlotPoint{100, 5, 1};
  p.header.ru = RuId{3};
  const auto bytes = serialize_fronthaul(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(peek_fronthaul_header(bytes));
  }
}
BENCHMARK(BM_FronthaulHeaderPeek);

// ---------------------------------------------------------------------
// SIMD kernel throughput, per dispatch level. Levels the CPU lacks
// fall back to scalar in kernels_for(), so rows always render.
// ---------------------------------------------------------------------

const char* simd_arg_name(std::int64_t level) {
  return simd::level_name(simd::Level(level));
}

// One flooding check-node sweep as the batched decoder runs it over a
// standard-code-sized message slab: 324 checks of degree ~6 in blocks
// of kBlockLanes, one cn_minsum_block call per block.
void BM_SimdCnMinsumBlock(benchmark::State& state) {
  const auto& kernels = simd::kernels_for(simd::Level(state.range(0)));
  const auto& code = LdpcCode::standard();
  const int deg = code.num_edges() / code.num_checks();
  const int blocks =
      (code.num_checks() + simd::kBlockLanes - 1) / simd::kBlockLanes;
  const std::size_t block_msgs = std::size_t(deg) * simd::kBlockLanes;
  auto rng = RngRegistry{41}.stream("cn");
  std::vector<float> q(std::size_t(blocks) * block_msgs);
  std::vector<float> r(q.size());
  for (auto& v : q) {
    v = float(rng.gaussian(0.0, 4.0));
  }
  for (auto _ : state) {
    for (std::size_t base = 0; base < q.size(); base += block_msgs) {
      kernels.cn_minsum_block(&q[base], &r[base], deg, 0.8F);
    }
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(code.num_checks()));
  state.SetLabel(simd_arg_name(state.range(0)));
}
BENCHMARK(BM_SimdCnMinsumBlock)
    ->ArgNames({"level"})
    ->Arg(int(simd::Level::kScalar))
    ->Arg(int(simd::Level::kSse2))
    ->Arg(int(simd::Level::kAvx2));

// Random slot table of the standard code's shape (648 variables of
// column weight 3); items are variables.
std::vector<std::int32_t> random_vn_slots(int n, int w, std::uint64_t seed) {
  std::vector<std::int32_t> perm(std::size_t(n) * std::size_t(w));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = std::int32_t(i);
  }
  auto rng = RngRegistry{seed}.stream("slots");
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.next_u64() % (i + 1)]);
  }
  std::vector<std::int32_t> slots(
      std::size_t((n + simd::kBlockLanes - 1) / simd::kBlockLanes) *
          std::size_t(w) * simd::kBlockLanes,
      0);
  for (int v = 0; v < n; ++v) {
    for (int i = 0; i < w; ++i) {
      slots[simd::vn_slot(v, i, w)] = perm[std::size_t(v * w + i)];
    }
  }
  return slots;
}

void BM_SimdVnUpdate(benchmark::State& state) {
  const auto& kernels = simd::kernels_for(simd::Level(state.range(0)));
  constexpr int kN = 648;
  constexpr int kW = 3;
  const auto slots = random_vn_slots(kN, kW, 44);
  auto rng = RngRegistry{45}.stream("vn");
  std::vector<float> llr(kN);
  std::vector<float> c2v(std::size_t(kN * kW));
  std::vector<float> v2c(c2v.size());
  std::vector<float> total(kN);
  for (auto& v : llr) {
    v = float(rng.gaussian(0.0, 4.0));
  }
  for (auto& v : c2v) {
    v = float(rng.gaussian(0.0, 2.0));
  }
  for (auto _ : state) {
    kernels.vn_update(llr.data(), kN, kW, slots.data(), c2v.data(), v2c.data(),
                      total.data());
    benchmark::DoNotOptimize(v2c.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
  state.SetLabel(simd_arg_name(state.range(0)));
}
BENCHMARK(BM_SimdVnUpdate)
    ->ArgNames({"level"})
    ->Arg(int(simd::Level::kScalar))
    ->Arg(int(simd::Level::kSse2))
    ->Arg(int(simd::Level::kAvx2));

void BM_SimdDemapSoft(benchmark::State& state) {
  const auto& kernels = simd::kernels_for(simd::Level(state.range(0)));
  const auto mod = Modulation(state.range(1));
  const Modulator modulator{mod};
  const auto bits = random_bits(648, 42);
  const auto syms = modulator.modulate(bits);
  std::vector<float> out(bits.size());
  // Reach the PAM level table through a demap of the real Modulator —
  // the kernel benchmark uses the same tables as production.
  const int bits_per_dim = bits_per_symbol(mod) / 2;
  std::vector<float> levels(std::size_t(1) << bits_per_dim);
  {
    // Recover levels: modulate each pattern pair and read the I value.
    std::vector<std::uint8_t> pat_bits(std::size_t(bits_per_symbol(mod)));
    for (std::size_t pattern = 0; pattern < levels.size(); ++pattern) {
      for (int b = 0; b < bits_per_dim; ++b) {
        pat_bits[std::size_t(b)] =
            std::uint8_t((pattern >> (bits_per_dim - 1 - b)) & 1U);
        pat_bits[std::size_t(bits_per_dim + b)] = pat_bits[std::size_t(b)];
      }
      levels[pattern] = modulator.modulate(pat_bits)[0].real();
    }
  }
  for (auto _ : state) {
    kernels.demap_soft(syms.data(), syms.size(), levels.data(), bits_per_dim,
                       0.025, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(syms.size()));
  state.SetLabel(simd_arg_name(state.range(0)));
}
BENCHMARK(BM_SimdDemapSoft)
    ->ArgNames({"level", "mod"})
    ->Args({int(simd::Level::kScalar), 6})
    ->Args({int(simd::Level::kSse2), 6})
    ->Args({int(simd::Level::kAvx2), 6})
    ->Args({int(simd::Level::kScalar), 8})
    ->Args({int(simd::Level::kAvx2), 8});

// One TTI of a fleet cell's UE batch: 5 000 lanes of LCG draws, AR(1)
// fading and credit accrual in one pass.
void BM_SimdUeLaneStep(benchmark::State& state) {
  const auto& kernels = simd::kernels_for(simd::Level(state.range(0)));
  constexpr std::size_t kLanes = 5'000;
  std::vector<float> snr(kLanes, 20.0F);
  std::vector<std::uint32_t> lcg(kLanes);
  std::vector<float> credits(kLanes, 0.0F);
  std::vector<float> rate(kLanes, 3.0F);
  for (std::size_t i = 0; i < kLanes; ++i) {
    lcg[i] = std::uint32_t(i * 2654435761U) | 1U;
  }
  for (auto _ : state) {
    kernels.ue_lane_step(snr.data(), lcg.data(), credits.data(), rate.data(),
                         kLanes, 20.0F, 0.98F, 1.47F);
    benchmark::DoNotOptimize(snr.data());
    benchmark::DoNotOptimize(credits.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kLanes));
  state.SetLabel(simd_arg_name(state.range(0)));
}
BENCHMARK(BM_SimdUeLaneStep)
    ->ArgNames({"level"})
    ->Arg(int(simd::Level::kScalar))
    ->Arg(int(simd::Level::kSse2))
    ->Arg(int(simd::Level::kAvx2));

// ---------------------------------------------------------------------
// BFP fronthaul codec, per dispatch level. The kernel-pinned entry
// points (fronthaul/bfp.h) run the exact production block loop with a
// caller-chosen kernel table, so these rows isolate the ISA effect.
// ---------------------------------------------------------------------

std::vector<std::complex<float>> random_iq(std::size_t n, std::uint64_t seed) {
  auto rng = RngRegistry{seed}.stream("iq");
  std::vector<std::complex<float>> iq(n);
  for (auto& s : iq) {
    s = {float(rng.gaussian(0.0, 1.0)), float(rng.gaussian(0.0, 1.0))};
  }
  return iq;
}

// One 100 MHz OFDM symbol: 273 PRBs x 12 subcarriers.
constexpr std::size_t kBfpBenchSamples = 3276;

void BM_BfpCompress(benchmark::State& state) {
  const auto& kernels = simd::kernels_for(simd::Level(state.range(0)));
  const int m = int(state.range(1));
  const auto iq = random_iq(kBfpBenchSamples, 91);
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    bfp_compress_into(iq, m, out, kernels);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kBfpBenchSamples));
  state.SetLabel(simd_arg_name(state.range(0)));
}
BENCHMARK(BM_BfpCompress)
    ->ArgNames({"level", "mantissa"})
    ->Args({int(simd::Level::kScalar), 9})
    ->Args({int(simd::Level::kSse2), 9})
    ->Args({int(simd::Level::kAvx2), 9})
    ->Args({int(simd::Level::kScalar), 8})
    ->Args({int(simd::Level::kAvx2), 8})
    ->Args({int(simd::Level::kAvx2), 14});

void BM_BfpDecompress(benchmark::State& state) {
  const auto& kernels = simd::kernels_for(simd::Level(state.range(0)));
  const int m = int(state.range(1));
  const auto bytes = bfp_compress(random_iq(kBfpBenchSamples, 92), m);
  std::vector<std::complex<float>> iq;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bfp_try_decompress_into(bytes, kBfpBenchSamples, m, iq, kernels));
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(kBfpBenchSamples));
  state.SetLabel(simd_arg_name(state.range(0)));
}
BENCHMARK(BM_BfpDecompress)
    ->ArgNames({"level", "mantissa"})
    ->Args({int(simd::Level::kScalar), 9})
    ->Args({int(simd::Level::kSse2), 9})
    ->Args({int(simd::Level::kAvx2), 9})
    ->Args({int(simd::Level::kScalar), 8})
    ->Args({int(simd::Level::kAvx2), 8})
    ->Args({int(simd::Level::kAvx2), 14});

// ---------------------------------------------------------------------
// CRC: slicing-by-8 production path vs the bitwise reference oracle.
// ---------------------------------------------------------------------

std::uint32_t crc24a_bitwise_ref(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0;
  for (const auto byte : data) {
    crc ^= std::uint32_t(byte) << 16;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x800000) ? ((crc << 1) ^ 0x864CFB) & 0xFFFFFF
                             : (crc << 1) & 0xFFFFFF;
    }
  }
  return crc;
}

std::uint16_t crc16_bitwise_ref(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0;
  for (const auto byte : data) {
    crc = std::uint16_t(crc ^ (std::uint16_t(byte) << 8));
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) ? std::uint16_t((crc << 1) ^ 0x1021)
                           : std::uint16_t(crc << 1);
    }
  }
  return crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  auto rng = RngRegistry{seed}.stream("bytes");
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) {
    b = std::uint8_t(rng.next_u64());
  }
  return bytes;
}

void BM_Crc24a(benchmark::State& state) {
  const bool sliced = state.range(0) != 0;
  const auto data = random_bytes(std::size_t(state.range(1)), 43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sliced ? crc24a(data)
                                    : crc24a_bitwise_ref(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(1));
  state.SetLabel(sliced ? "slicing8" : "bitwise");
}
BENCHMARK(BM_Crc24a)
    ->ArgNames({"sliced", "bytes"})
    ->Args({0, 1500})
    ->Args({1, 1500})
    ->Args({1, 64});

// ---------------------------------------------------------------------
// Exact-parity gate, run before any benchmark (see file header).
// ---------------------------------------------------------------------

bool check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "PARITY FAILURE: %s\n", what);
  }
  return ok;
}

// Check blocks of random per-lane degrees (0 = padded tail lane), ties
// and signed zeros: every lane of cn_minsum_block, at every level, must
// equal scalar cn_minsum over that lane's messages.
bool verify_cn_minsum_block_parity() {
  constexpr auto kLanes = std::size_t(simd::kBlockLanes);
  auto rng = RngRegistry{1235}.stream("parity");
  bool ok = true;
  for (int trial = 0; trial < 500; ++trial) {
    const auto rows = std::size_t(1 + rng.next_u64() % 19);
    std::vector<float> q(rows * kLanes, simd::kBlockPad);
    std::vector<std::size_t> degs(kLanes);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      degs[lane] = rng.next_u64() % 4 == 0 ? rng.next_u64() % (rows + 1) : rows;
      for (std::size_t j = 0; j < degs[lane]; ++j) {
        float& v = q[j * kLanes + lane];
        switch (rng.next_u64() % 6) {
          case 0: v = 0.0F; break;
          case 1: v = -0.0F; break;
          case 2: v = (rng.next_u64() & 1U) ? 1.25F : -1.25F; break;
          default: v = float(rng.gaussian(0.0, 5.0)); break;
        }
      }
    }
    for (const auto level :
         {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
      if (!simd::level_supported(level)) {
        continue;
      }
      std::vector<float> r(q.size(), -999.0F);
      simd::kernels_for(level).cn_minsum_block(q.data(), r.data(), int(rows),
                                               0.8F);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if (degs[lane] == 0) {
          continue;  // a padded tail lane: its output is never read
        }
        std::vector<float> col(degs[lane]);
        std::vector<float> want(degs[lane]);
        std::vector<float> got(degs[lane]);
        for (std::size_t j = 0; j < degs[lane]; ++j) {
          col[j] = q[j * kLanes + lane];
          got[j] = r[j * kLanes + lane];
        }
        simd::cn_minsum(col.data(), want.data(), int(col.size()), 0.8F);
        ok &= check(std::memcmp(want.data(), got.data(),
                                want.size() * sizeof(float)) == 0,
                    "cn_minsum_block lane mismatch vs scalar cn_minsum");
      }
    }
  }
  return ok;
}

bool verify_demap_parity() {
  auto rng = RngRegistry{5678}.stream("parity");
  bool ok = true;
  for (const auto mod : {Modulation::kQpsk, Modulation::kQam16,
                         Modulation::kQam64, Modulation::kQam256}) {
    const Modulator modulator{mod};
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t count = 1 + rng.next_u64() % 40;
      std::vector<std::complex<float>> syms(count);
      for (auto& s : syms) {
        s = {float(rng.gaussian(0.0, 1.0)), float(rng.gaussian(0.0, 1.0))};
      }
      const double noise_var = 0.01 + double(rng.next_u64() % 100) / 200.0;
      // demap_into dispatches to the active level; compare it against
      // a forced-scalar demap through the kernel table.
      std::vector<float> got;
      modulator.demap_into(syms, noise_var, got);
      for (const auto level :
           {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
        if (!simd::level_supported(level)) {
          continue;
        }
        std::vector<float> want(got.size(), -999.0F);
        const int bits_per_dim = bits_per_symbol(mod) / 2;
        std::vector<float> levels(std::size_t(1) << bits_per_dim);
        std::vector<std::uint8_t> pat_bits(
            std::size_t(bits_per_symbol(mod)));
        for (std::size_t pattern = 0; pattern < levels.size(); ++pattern) {
          for (int b = 0; b < bits_per_dim; ++b) {
            pat_bits[std::size_t(b)] =
                std::uint8_t((pattern >> (bits_per_dim - 1 - b)) & 1U);
            pat_bits[std::size_t(bits_per_dim + b)] =
                pat_bits[std::size_t(b)];
          }
          levels[pattern] = modulator.modulate(pat_bits)[0].real();
        }
        simd::kernels_for(level).demap_soft(
            syms.data(), syms.size(), levels.data(), bits_per_dim,
            std::max(noise_var / 2.0, 1e-9), want.data());
        ok &= check(std::memcmp(want.data(), got.data(),
                                want.size() * sizeof(float)) == 0,
                    "demap_soft bitwise mismatch across levels");
      }
    }
  }
  return ok;
}

bool verify_crc_parity() {
  auto rng = RngRegistry{91011}.stream("parity");
  bool ok = true;
  for (int trial = 0; trial < 300; ++trial) {
    const auto data =
        random_bytes(std::size_t(rng.next_u64() % 600), 9000 + trial);
    ok &= check(crc24a(data) == crc24a_bitwise_ref(data),
                "crc24a slicing-by-8 != bitwise oracle");
    ok &= check(crc16(data) == crc16_bitwise_ref(data),
                "crc16 slicing-by-8 != bitwise oracle");
  }
  return ok;
}

// The whole BFP codec — exponent scan, quantize, word-level pack and
// the inverse — must be bit-exact across every compiled-in kernel
// table: identical wire bytes out of compress, identical floats out of
// decompress. Widths cover byte-aligned and odd mantissas; counts cover
// whole blocks, a partial final block, and symbol-sized streams.
bool verify_bfp_parity() {
  auto rng = RngRegistry{1213}.stream("parity");
  bool ok = true;
  const auto& scalar = simd::kernels_for(simd::Level::kScalar);
  for (const int m : {2, 3, 5, 7, 8, 9, 12, 15, 16}) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{11}, std::size_t{12}, std::size_t{36},
          std::size_t{340}}) {
      std::vector<std::complex<float>> iq(n);
      for (auto& s : iq) {
        switch (rng.next_u64() % 8) {
          case 0: s = {0.0F, -0.0F}; break;  // silent-sample path
          case 1:                             // tiny vs huge dynamic range
            s = {float(rng.gaussian(0.0, 1e4)), float(rng.gaussian(0.0, 1e-3))};
            break;
          default:
            s = {float(rng.gaussian(0.0, 1.0)), float(rng.gaussian(0.0, 1.0))};
            break;
        }
      }
      std::vector<std::uint8_t> want_bytes;
      bfp_compress_into(iq, m, want_bytes, scalar);
      std::vector<std::complex<float>> want_iq;
      ok &= check(bfp_try_decompress_into(want_bytes, n, m, want_iq, scalar),
                  "bfp scalar decompress rejected its own bytes");
      for (const auto level : {simd::Level::kSse2, simd::Level::kAvx2}) {
        if (!simd::level_supported(level)) {
          continue;
        }
        const auto& kernels = simd::kernels_for(level);
        std::vector<std::uint8_t> got_bytes;
        bfp_compress_into(iq, m, got_bytes, kernels);
        ok &= check(got_bytes == want_bytes,
                    "bfp_compress bytes mismatch vs scalar");
        std::vector<std::complex<float>> got_iq;
        ok &= check(bfp_try_decompress_into(got_bytes, n, m, got_iq, kernels),
                    "bfp decompress rejected valid bytes");
        ok &= check(got_iq.size() == want_iq.size() &&
                        (n == 0 ||
                         std::memcmp(want_iq.data(), got_iq.data(),
                                     n * sizeof(want_iq[0])) == 0),
                    "bfp_decompress floats mismatch vs scalar");
      }
      // The runtime-dispatched production codec must match the pinned
      // scalar composition too — ties the dispatch path into the gate.
      ok &= check(bfp_compress(iq, m) == want_bytes,
                  "dispatched bfp_compress != scalar composition");
    }
  }
  return ok;
}

// The variable-node update and block parity of the flooding decoder:
// identical floats and verdicts across levels on random slot tables,
// with a partial last group of variables.
bool verify_vn_update_parity() {
  auto rng = RngRegistry{1236}.stream("parity");
  const auto& scalar = simd::kernels_for(simd::Level::kScalar);
  bool ok = true;
  for (const int n : {5, 64, 101}) {
    for (const int w : {2, 3, 4}) {
      const auto slots = random_vn_slots(n, w, rng.next_u64());
      std::vector<float> llr(static_cast<std::size_t>(n));
      std::vector<float> c2v(std::size_t(n * w));
      for (auto& v : llr) {
        v = float(rng.gaussian(0.0, 6.0));
      }
      for (auto& v : c2v) {
        v = float(rng.gaussian(0.0, 3.0));
      }
      std::vector<float> want_v2c(c2v.size());
      std::vector<float> want_total(llr.size());
      scalar.vn_update(llr.data(), n, w, slots.data(), c2v.data(),
                       want_v2c.data(), want_total.data());
      std::vector<std::int32_t> vars(std::size_t(w * simd::kBlockLanes));
      for (auto& v : vars) {
        v = std::int32_t(rng.next_u64() % std::uint64_t(n));
      }
      const bool want_parity =
          scalar.block_parity_ok(want_total.data(), vars.data(), w);
      for (const auto level : {simd::Level::kSse2, simd::Level::kAvx2}) {
        if (!simd::level_supported(level)) {
          continue;
        }
        const auto& kernels = simd::kernels_for(level);
        std::vector<float> v2c(c2v.size(), -999.0F);
        std::vector<float> total(llr.size(), -999.0F);
        kernels.vn_update(llr.data(), n, w, slots.data(), c2v.data(),
                          v2c.data(), total.data());
        ok &= check(std::memcmp(v2c.data(), want_v2c.data(),
                                v2c.size() * sizeof(float)) == 0 &&
                        std::memcmp(total.data(), want_total.data(),
                                    total.size() * sizeof(float)) == 0,
                    "vn_update mismatch vs scalar");
        ok &= check(kernels.block_parity_ok(want_total.data(), vars.data(),
                                            w) == want_parity,
                    "block_parity_ok mismatch vs scalar");
      }
    }
  }
  return ok;
}

// The UE batch's lane step: identical SNR, LCG and credit lanes across
// levels over several TTIs, at lengths that leave every vector tail.
bool verify_ue_lane_step_parity() {
  auto rng = RngRegistry{1237}.stream("parity");
  bool ok = true;
  constexpr std::size_t kLengths[] = {1, 9, 5'003};
  for (const std::size_t n : kLengths) {
    std::vector<float> snr(n);
    std::vector<std::uint32_t> lcg(n);
    std::vector<float> credits(n);
    std::vector<float> rate(n);
    for (std::size_t i = 0; i < n; ++i) {
      snr[i] = float(rng.gaussian(20.0, 10.0));
      lcg[i] = std::uint32_t(rng.next_u64());
      credits[i] = float(rng.gaussian(0.0, 50.0));
      rate[i] = float(rng.next_u64() % 4);
    }
    // The three lanes, concatenated as raw bytes so the comparison is
    // bitwise (signed zeros included).
    auto run = [&](simd::Level level) {
      auto s = snr;
      auto l = lcg;
      auto c = credits;
      for (int tti = 0; tti < 4; ++tti) {
        simd::kernels_for(level).ue_lane_step(s.data(), l.data(), c.data(),
                                              rate.data(), n, 20.0F, 0.98F,
                                              1.47F);
      }
      std::string bytes(3 * n * 4, '\0');
      std::memcpy(bytes.data(), s.data(), n * 4);
      std::memcpy(bytes.data() + n * 4, l.data(), n * 4);
      std::memcpy(bytes.data() + 2 * n * 4, c.data(), n * 4);
      return bytes;
    };
    const auto want = run(simd::Level::kScalar);
    for (const auto level : {simd::Level::kSse2, simd::Level::kAvx2}) {
      if (simd::level_supported(level)) {
        ok &= check(run(level) == want, "ue_lane_step mismatch vs scalar");
      }
    }
  }
  return ok;
}

bool verify_kernel_parity() {
  const bool ok = verify_cn_minsum_block_parity() & verify_vn_update_parity() &
                  verify_demap_parity() & verify_crc_parity() &
                  verify_bfp_parity() & verify_ue_lane_step_parity();
  std::printf("kernel parity gate: %s (active simd level: %s)\n",
              ok ? "PASS" : "FAIL",
              simd::level_name(simd::active_level()));
  return ok;
}

// --json <path>: append per-ISA BFP codec throughput rows in the flat
// BENCH_*.json schema (bench_util.h), independent of google-benchmark's
// own reporters, so the validate_bench_json gate and downstream sweep
// tooling can key on samples_per_s / mantissa_bits / isa.
void emit_bfp_json_rows(const std::string& path) {
  using bench::JsonRow;
  const auto iq = random_iq(kBfpBenchSamples, 93);
  std::vector<std::uint8_t> bytes;
  std::vector<std::complex<float>> out;
  const auto measure = [](auto&& fn) {
    fn();  // warm caches and the output buffers
    constexpr int kReps = 64;
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      fn();
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return double(kReps) * double(kBfpBenchSamples) / dt.count();
  };
  for (const auto level :
       {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
    if (!simd::level_supported(level)) {
      continue;
    }
    const auto& kernels = simd::kernels_for(level);
    for (const int m : {8, 9, 14}) {
      const double compress_per_s =
          measure([&] { bfp_compress_into(iq, m, bytes, kernels); });
      const double decompress_per_s = measure([&] {
        benchmark::DoNotOptimize(bfp_try_decompress_into(
            bytes, kBfpBenchSamples, m, out, kernels));
      });
      for (const auto& [direction, samples_per_s] :
           {std::pair{"compress", compress_per_s},
            std::pair{"decompress", decompress_per_s}}) {
        JsonRow row{"bench_kernels_bfp"};
        row.str("isa", simd::level_name(level))
            .str("direction", direction)
            .integer("mantissa_bits", m)
            .integer("samples", std::int64_t(kBfpBenchSamples))
            .num("samples_per_s", samples_per_s);
        bench::append_bench_json(path, row);
      }
    }
  }
  std::printf("bfp throughput rows appended to %s\n", path.c_str());
}

}  // namespace
}  // namespace slingshot

int main(int argc, char** argv) {
  // Parity before performance: a fast wrong kernel must fail the run.
  if (!slingshot::verify_kernel_parity()) {
    return 1;
  }
  // Peel off --json <path> (a bench_util.h extension) before handing the
  // remaining flags to google-benchmark.
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) {
        argv[j] = argv[j + 2];
      }
      argc -= 2;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) {
    slingshot::emit_bfp_json_rows(json_path);
  }
  benchmark::Shutdown();
  return 0;
}
