// Bit-exactness of the runtime-dispatched SIMD kernels (phy/simd.h).
//
// The golden-trace tests pin LDPC iteration counts and CRC verdicts, so
// the vector kernels must match the scalar reference to the last bit —
// not "close", identical. These tests memcmp the outputs of every
// compiled-in dispatch level against scalar on randomized inputs salted
// with the adversarial cases (ties in magnitude, signed zeros, degrees
// that land on every vector-width tail).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "phy/modulation.h"
#include "phy/simd.h"

namespace slingshot {
namespace {

std::vector<simd::Level> supported_vector_levels() {
  std::vector<simd::Level> levels;
  for (const auto level : {simd::Level::kSse2, simd::Level::kAvx2}) {
    if (simd::level_supported(level)) {
      levels.push_back(level);
    }
  }
  return levels;
}

// ---- check-block kernels: the batched flooding decoder's phases ----

std::vector<simd::Level> all_levels() {
  auto levels = supported_vector_levels();
  levels.insert(levels.begin(), simd::Level::kScalar);
  return levels;
}

// Lane l holds a check of degree degs[l] (0 = a fully padded tail lane
// past the code's last check); its column is padded with kBlockPad up
// to the block's row count. Each real lane must equal scalar cn_minsum
// over its own messages, at every level.
void expect_block_matches_per_check(
    const std::vector<std::vector<float>>& checks, float scale) {
  constexpr auto kLanes = std::size_t(simd::kBlockLanes);
  ASSERT_EQ(checks.size(), kLanes);
  std::size_t rows = 0;
  for (const auto& c : checks) {
    rows = std::max(rows, c.size());
  }
  std::vector<float> q(rows * kLanes, simd::kBlockPad);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    for (std::size_t j = 0; j < checks[lane].size(); ++j) {
      q[j * kLanes + lane] = checks[lane][j];
    }
  }
  for (const auto level : all_levels()) {
    std::vector<float> r(q.size(), -999.0F);
    simd::kernels_for(level).cn_minsum_block(q.data(), r.data(), int(rows),
                                             scale);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const auto& c = checks[lane];
      if (c.empty()) {
        continue;  // a padded tail lane: its output is never read
      }
      std::vector<float> want(c.size());
      simd::cn_minsum(c.data(), want.data(), int(c.size()), scale);
      std::vector<float> got(c.size());
      for (std::size_t j = 0; j < c.size(); ++j) {
        got[j] = r[j * kLanes + lane];
      }
      EXPECT_EQ(std::memcmp(want.data(), got.data(), c.size() * sizeof(float)),
                0)
          << "level " << simd::level_name(level) << " lane " << lane
          << " deg " << c.size() << " rows " << rows;
    }
  }
}

TEST(SimdKernels, CnMinsumBlockMatchesScalarCnMinsumPerLane) {
  auto rng = RngRegistry{2025}.stream("cn-block");
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::vector<float>> checks(simd::kBlockLanes);
    const int max_deg = 1 + int(rng.next_u64() % 20);
    for (auto& c : checks) {
      // Mostly full columns, some short ones, some padded tail lanes.
      const auto pick = rng.next_u64() % 8;
      const int deg = pick == 0 ? 0
                      : pick == 1 ? 1 + int(rng.next_u64() % std::uint64_t(max_deg))
                                  : max_deg;
      c.resize(std::size_t(deg));
      for (auto& v : c) {
        switch (rng.next_u64() % 8) {
          case 0: v = 0.0F; break;
          case 1: v = -0.0F; break;
          case 2: v = (rng.next_u64() & 1U) ? 1.25F : -1.25F; break;  // ties
          case 3: v = float(rng.gaussian(0.0, 1e-4)); break;
          case 4: v = float(rng.gaussian(0.0, 1e6)); break;
          default: v = float(rng.gaussian(0.0, 5.0)); break;
        }
      }
    }
    expect_block_matches_per_check(checks, 0.8F);
  }
}

TEST(SimdKernels, CnMinsumBlockMatchesScalarWhenAllMagnitudesTie) {
  for (const int deg : {1, 2, 3, 6, 7, 8, 9, 17}) {
    std::vector<std::vector<float>> checks(simd::kBlockLanes);
    for (std::size_t lane = 0; lane < checks.size(); ++lane) {
      // Lane 7 is a padded tail lane; lane 6 a shorter check.
      const int lane_deg = lane == 7 ? 0 : lane == 6 ? (deg + 1) / 2 : deg;
      for (int i = 0; i < lane_deg; ++i) {
        checks[lane].push_back(((i + int(lane)) % 2 != 0) ? -2.5F : 2.5F);
      }
    }
    expect_block_matches_per_check(checks, 0.8F);
  }
}

// A random vn_update slot table: n variables of weight w over a
// shuffled message space of n * w slots.
std::vector<std::int32_t> random_slots(int n, int w, RngStream& rng) {
  std::vector<std::int32_t> perm(std::size_t(n * w));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = std::int32_t(i);
  }
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_u64() % i]);
  }
  std::vector<std::int32_t> slots(
      std::size_t((n + simd::kBlockLanes - 1) / simd::kBlockLanes * w *
                  simd::kBlockLanes),
      0);
  for (int v = 0; v < n; ++v) {
    for (int i = 0; i < w; ++i) {
      slots[simd::vn_slot(v, i, w)] = perm[std::size_t(v * w + i)];
    }
  }
  return slots;
}

TEST(SimdKernels, VnUpdateSumsInEdgeOrderAtEveryTailLength) {
  auto rng = RngRegistry{2026}.stream("vn");
  for (const int w : {2, 3, 4, 5}) {
    for (int n = 1; n <= 33; ++n) {
      const auto slots = random_slots(n, w, rng);
      std::vector<float> llr(static_cast<std::size_t>(n));
      std::vector<float> c2v(std::size_t(n * w));
      for (auto& v : llr) {
        v = float(rng.gaussian(0.0, 8.0));
      }
      for (auto& v : c2v) {
        // Wide dynamic range: a reordered sum would round differently.
        v = float(rng.gaussian(0.0, 1.0) *
                  std::pow(10.0, double(rng.next_u64() % 7) - 3.0));
      }
      // The contract, spelled out.
      std::vector<float> want_v2c(c2v.size());
      std::vector<float> want_total(llr.size());
      for (int v = 0; v < n; ++v) {
        float sum = llr[std::size_t(v)];
        for (int i = 0; i < w; ++i) {
          sum += c2v[std::size_t(slots[simd::vn_slot(v, i, w)])];
        }
        want_total[std::size_t(v)] = sum;
        for (int i = 0; i < w; ++i) {
          const auto s = std::size_t(slots[simd::vn_slot(v, i, w)]);
          want_v2c[s] = sum - c2v[s];
        }
      }
      for (const auto level : all_levels()) {
        std::vector<float> v2c(c2v.size(), -999.0F);
        std::vector<float> total(llr.size(), -999.0F);
        simd::kernels_for(level).vn_update(llr.data(), n, w, slots.data(),
                                           c2v.data(), v2c.data(),
                                           total.data());
        EXPECT_EQ(std::memcmp(want_v2c.data(), v2c.data(),
                              v2c.size() * sizeof(float)),
                  0)
            << "level " << simd::level_name(level) << " n " << n << " w " << w;
        EXPECT_EQ(std::memcmp(want_total.data(), total.data(),
                              total.size() * sizeof(float)),
                  0)
            << "level " << simd::level_name(level) << " n " << n << " w " << w;
      }
    }
  }
}

TEST(SimdKernels, BlockParityMatchesPerLaneSignParity) {
  auto rng = RngRegistry{2027}.stream("parity");
  constexpr int kVars = 40;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<float> total(kVars + 1);
    for (auto& t : total) {
      switch (rng.next_u64() % 4) {
        case 0: t = 0.0F; break;
        case 1: t = -0.0F; break;  // not negative: decides bit 0
        default: t = float(rng.gaussian(0.0, 3.0)); break;
      }
    }
    total[kVars] = simd::kBlockPad;  // the pad entry
    const int deg = 1 + int(rng.next_u64() % 12);
    std::vector<std::int32_t> vars(std::size_t(deg * simd::kBlockLanes));
    for (auto& v : vars) {
      v = std::int32_t(rng.next_u64() % (kVars + 1));
    }
    bool want = true;
    for (int lane = 0; lane < simd::kBlockLanes; ++lane) {
      unsigned parity = 0;
      for (int j = 0; j < deg; ++j) {
        parity ^= total[std::size_t(vars[std::size_t(
                      j * simd::kBlockLanes + lane)])] < 0.0F
                      ? 1U
                      : 0U;
      }
      want = want && parity == 0;
    }
    for (const auto level : all_levels()) {
      EXPECT_EQ(simd::kernels_for(level).block_parity_ok(total.data(),
                                                         vars.data(), deg),
                want)
          << "level " << simd::level_name(level) << " trial " << trial;
    }
  }
}

#if defined(__x86_64__)
// XINUSE (xgetbv with ecx = 1) bit 2 is clear iff the upper halves of
// the YMM registers are in their initial (zero) state.
bool upper_ymm_dirty() {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & 4U) != 0;
}

bool xinuse_supported() {
  std::uint32_t a = 0xD;
  std::uint32_t b = 0;
  std::uint32_t c = 1;
  std::uint32_t d = 0;
  asm volatile("cpuid" : "+a"(a), "=b"(b), "+c"(c), "=d"(d));
  return (a & 4U) != 0;
}

// Every AVX2 kernel must return with the upper YMM state clean.
// Otherwise each legacy-SSE instruction the (baseline-compiled) rest of
// the program runs afterwards pays for a merge with the dirty upper
// halves: a compiler that drops a vzeroupper shows up as a slowdown
// far from the kernel, in code that never touches AVX.
TEST(SimdKernels, Avx2KernelsReturnWithUpperYmmStateClean) {
  if (!simd::level_supported(simd::Level::kAvx2) || !xinuse_supported()) {
    GTEST_SKIP() << "needs AVX2 and xgetbv(1)";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Instrumented kernels call into the sanitizer runtime mid-kernel,
  // where the compiler leaves the upper state dirty.
  GTEST_SKIP() << "not meaningful under sanitizer instrumentation";
#endif
  const auto& k = simd::kernels_for(simd::Level::kAvx2);
  auto rng = RngRegistry{2028}.stream("upper");
  // Sizes that leave a remainder past the last full vector, so every
  // kernel's scalar tail runs too.
  constexpr int kN = 27;
  constexpr int kW = 3;
  const auto slots = random_slots(kN, kW, rng);
  std::vector<float> x(std::size_t(kN * kW), -0.25F);
  std::vector<float> y(x.size(), 1.5F);
  std::vector<float> v2c(x.size());
  std::vector<float> total(kN + 1, 0.5F);
  std::vector<std::int32_t> vars(std::size_t(6 * simd::kBlockLanes), 3);
  std::vector<std::int32_t> ints(x.size(), 5);
  std::vector<std::int64_t> deadlines(x.size(), 7);
  std::vector<std::uint32_t> hits(x.size());
  std::vector<std::uint8_t> bytes(x.size() * 2);
  const std::vector<std::complex<float>> syms(kN, {0.3F, -0.7F});
  const float levels[2] = {-1.0F, 1.0F};
  const std::pair<const char*, std::function<void()>> calls[] = {
      {"cn_minsum_block",
       [&] { k.cn_minsum_block(x.data(), y.data(), 6, 0.8F); }},
      {"vn_update",
       [&] {
         k.vn_update(y.data(), kN, kW, slots.data(), x.data(), v2c.data(),
                     total.data());
       }},
      {"block_parity_ok",
       [&] { (void)k.block_parity_ok(total.data(), vars.data(), 6); }},
      {"demap_soft",
       [&] { k.demap_soft(syms.data(), syms.size(), levels, 1, 0.1, y.data()); }},
      {"deadline_scan",
       [&] {
         (void)k.deadline_scan(deadlines.data(), deadlines.size(), 9,
                               hits.data());
       }},
      {"ue_lane_step",
       [&] {
         k.ue_lane_step(y.data(), hits.data(), v2c.data(), x.data(), kN,
                        0.5F, 0.9F, 1.5F);
       }},
      {"peak_abs", [&] { (void)k.peak_abs(x.data(), x.size()); }},
      {"bfp_quantize",
       [&] { k.bfp_quantize(x.data(), x.size(), 0.25, 255, ints.data()); }},
      {"bfp_dequantize",
       [&] { k.bfp_dequantize(ints.data(), ints.size(), 0.5F, y.data()); }},
      {"bfp_pack",
       [&] { (void)k.bfp_pack(ints.data(), ints.size(), 16, bytes.data()); }},
      {"bfp_unpack",
       [&] { k.bfp_unpack(bytes.data(), ints.size(), 16, ints.data()); }},
  };
  for (const auto& [name, call] : calls) {
    call();
    EXPECT_FALSE(upper_ymm_dirty()) << name;
  }
}
#endif

// Recover the Modulator's PAM level table by modulating each bit
// pattern (duplicated into both dimensions) and reading the I value —
// the kernels then run against the exact production tables.
std::vector<float> recover_levels(const Modulator& modulator, Modulation mod) {
  const int bits_per_dim = bits_per_symbol(mod) / 2;
  std::vector<float> levels(std::size_t(1) << bits_per_dim);
  std::vector<std::uint8_t> pat_bits(std::size_t(bits_per_symbol(mod)));
  for (std::size_t pattern = 0; pattern < levels.size(); ++pattern) {
    for (int b = 0; b < bits_per_dim; ++b) {
      pat_bits[std::size_t(b)] =
          std::uint8_t((pattern >> (bits_per_dim - 1 - b)) & 1U);
      pat_bits[std::size_t(bits_per_dim + b)] = pat_bits[std::size_t(b)];
    }
    levels[pattern] = modulator.modulate(pat_bits)[0].real();
  }
  return levels;
}

TEST(SimdKernels, DemapSoftMatchesScalarAcrossModulationsAndCounts) {
  auto rng = RngRegistry{99}.stream("demap-parity");
  for (const auto mod : {Modulation::kQpsk, Modulation::kQam16,
                         Modulation::kQam64, Modulation::kQam256}) {
    const Modulator& modulator = modulator_for(mod);
    const auto levels = recover_levels(modulator, mod);
    const int bits_per_dim = bits_per_symbol(mod) / 2;
    // Counts 1..17 cover every 4- and 8-symbol remainder.
    for (std::size_t count = 1; count <= 17; ++count) {
      std::vector<std::complex<float>> syms(count);
      for (auto& s : syms) {
        s = {float(rng.gaussian(0.0, 1.2)), float(rng.gaussian(0.0, 1.2))};
      }
      const double sigma2 = 0.003 + double(rng.next_u64() % 64) / 100.0;
      const std::size_t n_llrs = count * std::size_t(bits_per_symbol(mod));
      std::vector<float> want(n_llrs, -999.0F);
      simd::kernels_for(simd::Level::kScalar)
          .demap_soft(syms.data(), count, levels.data(), bits_per_dim, sigma2,
                      want.data());
      for (const auto level : supported_vector_levels()) {
        std::vector<float> got(n_llrs, -999.0F);
        simd::kernels_for(level).demap_soft(syms.data(), count, levels.data(),
                                            bits_per_dim, sigma2, got.data());
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              n_llrs * sizeof(float)),
                  0)
            << "level " << simd::level_name(level) << " mod "
            << modulation_name(mod) << " count " << count;
      }
    }
  }
}

// demap_into is the production entry point; whatever level is active,
// its output must equal the forced-scalar kernel fed the same tables
// and the same per-dimension variance clamp.
TEST(SimdKernels, DemapIntoMatchesForcedScalarKernel) {
  auto rng = RngRegistry{123}.stream("demap-into");
  for (const auto mod : {Modulation::kQpsk, Modulation::kQam64}) {
    const Modulator& modulator = modulator_for(mod);
    const auto levels = recover_levels(modulator, mod);
    const int bits_per_dim = bits_per_symbol(mod) / 2;
    std::vector<std::complex<float>> syms(37);
    for (auto& s : syms) {
      s = {float(rng.gaussian(0.0, 1.0)), float(rng.gaussian(0.0, 1.0))};
    }
    const double noise_var = 0.08;
    std::vector<float> got;
    modulator.demap_into(syms, noise_var, got);
    std::vector<float> want(got.size(), -999.0F);
    simd::kernels_for(simd::Level::kScalar)
        .demap_soft(syms.data(), syms.size(), levels.data(), bits_per_dim,
                    std::max(noise_var / 2.0, 1e-9), want.data());
    EXPECT_EQ(
        std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << modulation_name(mod);
  }
}

// ---- deadline_scan: the massive-UE batch's RLF/reattach sweep ----

void expect_deadline_scan_parity(const std::vector<std::int64_t>& deadlines,
                                 std::int64_t now) {
  std::vector<std::uint32_t> want(deadlines.size() + 1, 0xFFFFFFFFU);
  const std::size_t want_n =
      simd::kernels_for(simd::Level::kScalar)
          .deadline_scan(deadlines.data(), deadlines.size(), now, want.data());
  for (const auto level : supported_vector_levels()) {
    std::vector<std::uint32_t> got(deadlines.size() + 1, 0xFFFFFFFFU);
    const std::size_t got_n = simd::kernels_for(level).deadline_scan(
        deadlines.data(), deadlines.size(), now, got.data());
    ASSERT_EQ(want_n, got_n)
        << "level " << simd::level_name(level) << " n " << deadlines.size();
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          want_n * sizeof(std::uint32_t)),
              0)
        << "level " << simd::level_name(level) << " n " << deadlines.size();
  }
}

TEST(SimdKernels, DeadlineScanSemanticsOnScalar) {
  // Negative lanes are unarmed; hits are expired lanes in ascending
  // index order.
  const std::vector<std::int64_t> deadlines = {5, -1, 0, 100, 7, -42, 6};
  std::vector<std::uint32_t> hits(deadlines.size(), 0);
  const std::size_t n = simd::kernels_for(simd::Level::kScalar)
                            .deadline_scan(deadlines.data(), deadlines.size(),
                                           /*now=*/6, hits.data());
  ASSERT_EQ(n, 3U);
  EXPECT_EQ(hits[0], 0U);  // 5 <= 6
  EXPECT_EQ(hits[1], 2U);  // 0 <= 6
  EXPECT_EQ(hits[2], 6U);  // 6 <= 6 (boundary inclusive)
}

TEST(SimdKernels, DeadlineScanMatchesScalarOnRandomInputs) {
  auto rng = RngRegistry{31}.stream("deadline-parity");
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.next_u64() % 40;
    std::vector<std::int64_t> deadlines(n);
    for (auto& d : deadlines) {
      switch (rng.next_u64() % 5) {
        case 0: d = -1; break;                               // unarmed
        case 1: d = std::int64_t(rng.next_u64() % 8); break;  // near now
        case 2: d = INT64_MAX; break;
        case 3: d = INT64_MIN; break;  // negative: must NOT hit
        default: d = std::int64_t(rng.next_u64() % 1000); break;
      }
    }
    expect_deadline_scan_parity(deadlines, std::int64_t(rng.next_u64() % 16));
  }
}

TEST(SimdKernels, DeadlineScanMatchesScalarAtEveryTailLength) {
  auto rng = RngRegistry{32}.stream("deadline-tails");
  for (std::size_t n = 1; n <= 33; ++n) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<std::int64_t> deadlines(n);
      for (auto& d : deadlines) {
        d = std::int64_t(rng.next_u64() % 20) - 4;  // mix of negatives
      }
      expect_deadline_scan_parity(deadlines, 8);
    }
  }
}

// ---- ue_lane_step: the batch's fused LCG / fading / credit kernel ----

struct Lanes {
  std::vector<float> snr;
  std::vector<std::uint32_t> lcg;
  std::vector<float> credits;
  std::vector<float> rate;
};

void lane_step(simd::Level level, Lanes& l, float mean, float rho,
               float scale) {
  simd::kernels_for(level).ue_lane_step(l.snr.data(), l.lcg.data(),
                                        l.credits.data(), l.rate.data(),
                                        l.snr.size(), mean, rho, scale);
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Three consecutive TTIs, so every level also carries the LCG state it
// wrote into the next step.
void expect_lane_step_parity(const Lanes& start, float mean, float rho,
                             float scale) {
  Lanes want = start;
  for (int tti = 0; tti < 3; ++tti) {
    lane_step(simd::Level::kScalar, want, mean, rho, scale);
  }
  for (const auto level : supported_vector_levels()) {
    Lanes got = start;
    for (int tti = 0; tti < 3; ++tti) {
      lane_step(level, got, mean, rho, scale);
    }
    const auto where = std::string("level ") + simd::level_name(level) +
                       " n " + std::to_string(start.snr.size());
    EXPECT_TRUE(same_bits(want.snr, got.snr)) << where;
    EXPECT_TRUE(same_bits(want.lcg, got.lcg)) << where;
    EXPECT_TRUE(same_bits(want.credits, got.credits)) << where;
  }
}

// Random lanes salted with the edge cases: LCG states 0, 1 and
// 0xFFFFFFFF, negative and signed-zero credits, zero rates.
Lanes random_lanes(std::size_t n, RngStream& rng) {
  Lanes l{std::vector<float>(n), std::vector<std::uint32_t>(n),
          std::vector<float>(n), std::vector<float>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    l.snr[i] = float(rng.gaussian(20.0, 15.0));
    switch (rng.next_u64() % 4) {
      case 0: l.lcg[i] = 0U; break;
      case 1: l.lcg[i] = 1U; break;
      case 2: l.lcg[i] = 0xFFFFFFFFU; break;
      default: l.lcg[i] = std::uint32_t(rng.next_u64()); break;
    }
    switch (rng.next_u64() % 4) {
      case 0: l.credits[i] = -0.0F; break;
      case 1: l.credits[i] = -float(rng.uniform(0.0, 100.0)); break;
      default: l.credits[i] = float(rng.uniform(0.0, 1e4)); break;
    }
    l.rate[i] = rng.next_u64() % 3 == 0 ? 0.0F : float(rng.uniform(0.0, 8.0));
  }
  return l;
}

TEST(SimdKernels, UeLaneStepSemanticsOnScalar) {
  // Two LCG draws, the triangular innovation, the AR(1) step and the
  // credit accrual, in exactly the documented operation order.
  Lanes l{{10.0F, -3.5F, 0.0F},
          {0U, 1U, 0xFFFFFFFFU},
          {1.5F, -2.0F, -0.0F},
          {3.0F, 0.76F, 0.0F}};
  const Lanes start = l;
  lane_step(simd::Level::kScalar, l, 20.0F, 0.5F, 2.0F);
  for (std::size_t i = 0; i < 3; ++i) {
    std::uint32_t s = start.lcg[i] * 1664525U + 1013904223U;
    const float u1 = float(s >> 8) * 0x1.0p-24F;
    s = s * 1664525U + 1013904223U;
    const float u2 = float(s >> 8) * 0x1.0p-24F;
    const float innov = 2.0F * (u1 + u2 - 1.0F);
    EXPECT_EQ(l.lcg[i], s) << i;
    EXPECT_EQ(l.snr[i], 20.0F + 0.5F * (start.snr[i] - 20.0F) + innov) << i;
    EXPECT_EQ(l.credits[i], start.credits[i] + start.rate[i]) << i;
  }
}

TEST(SimdKernels, UeLaneStepCreditFormMatchesUnitRhoZeroMeanAr1) {
  // The credit accrual used to be the AR(1) step with mean 0 and rho 1;
  // `credits + rate` must give the same bits, signed zeros included.
  const std::vector<float> credits = {0.0F,  -0.0F, -0.0F, -7.25F,
                                      -3.0F, 1.5F,  1024.0F, 0.1F};
  const std::vector<float> rate = {0.0F, 0.0F, 3.0F, 0.0F,
                                   3.0F, 0.76F, 0.0F, 0.1F};
  for (const auto level : all_levels()) {
    Lanes l{std::vector<float>(credits.size(), 20.0F),
            std::vector<std::uint32_t>(credits.size(), 1U), credits, rate};
    lane_step(level, l, 20.0F, 0.9F, 1.0F);
    for (std::size_t i = 0; i < credits.size(); ++i) {
      const float old_form = 0.0F + 1.0F * (credits[i] - 0.0F) + rate[i];
      EXPECT_EQ(std::memcmp(&l.credits[i], &old_form, sizeof(float)), 0)
          << simd::level_name(level) << " lane " << i;
    }
  }
}

TEST(SimdKernels, UeLaneStepMatchesScalarOnRandomInputs) {
  auto rng = RngRegistry{33}.stream("lane-step-parity");
  for (int trial = 0; trial < 2000; ++trial) {
    const Lanes l = random_lanes(1 + rng.next_u64() % 40, rng);
    const float mean = float(rng.gaussian(10.0, 10.0));
    const float rho = float(rng.uniform(0.0, 1.0));
    const float scale = float(rng.uniform(0.0, 4.0));
    expect_lane_step_parity(l, mean, rho, scale);
  }
}

TEST(SimdKernels, UeLaneStepMatchesScalarAtEveryTailLength) {
  auto rng = RngRegistry{34}.stream("lane-step-tails");
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 9, 5000};
  for (std::size_t n = 2; n <= 33; ++n) {
    lengths.push_back(n);
  }
  for (const std::size_t n : lengths) {
    expect_lane_step_parity(random_lanes(n, rng), 20.0F, 0.98F, 1.47F);
  }
}

TEST(SimdKernels, ScalarLevelIsAlwaysSupported) {
  EXPECT_TRUE(simd::level_supported(simd::Level::kScalar));
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kSse2), "sse2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

TEST(SimdKernels, ActiveLevelIsSupportedAndStable) {
  const auto level = simd::active_level();
  EXPECT_TRUE(simd::level_supported(level));
  // Dispatch is decided once; repeated calls must agree.
  EXPECT_EQ(simd::active_level(), level);
  EXPECT_EQ(&simd::kernels(), &simd::kernels_for(level));
}

TEST(SimdKernels, UnsupportedLevelFallsBackToScalar) {
  for (const auto level : {simd::Level::kSse2, simd::Level::kAvx2}) {
    if (!simd::level_supported(level)) {
      EXPECT_EQ(&simd::kernels_for(level),
                &simd::kernels_for(simd::Level::kScalar))
          << simd::level_name(level);
    }
  }
}

}  // namespace
}  // namespace slingshot
