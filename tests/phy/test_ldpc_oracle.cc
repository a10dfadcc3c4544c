// Bit-exactness oracle for the check-block batched flooding decoder.
//
// reference_flooding() below is the per-check flooding loop the decoder
// used before check blocks: one cn_minsum call per check over the flat
// (check, position) edge arrays, then a variable pass in var_edges order
// with the syndrome tracked by hard-decision flips. The batched decoder
// must reproduce it exactly — codeword, parity_ok, iterations_used and
// the posterior floats — at every SIMD level, on the standard code over modulations, SNRs,
// iteration budgets and HARQ-combined priors, and on irregular codes
// whose padding (m not a multiple of 8, uneven check degrees, duplicate
// edges) would show if it were not neutral.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "phy/ldpc.h"
#include "phy/modulation.h"
#include "phy/simd.h"

namespace slingshot {
namespace {

constexpr float kMinSumScale = 0.8F;  // the decoder's normalization

// Also returns each variable's last posterior total in `posterior`.
LdpcCode::DecodeStatus reference_flooding(const LdpcCode& code,
                                          std::span<const float> llr,
                                          int max_iterations,
                                          std::vector<std::uint8_t>& codeword,
                                          std::vector<float>& posterior) {
  const auto g = code.graph();
  const int n = code.n();
  const int m = code.num_checks();
  const auto num_edges = std::size_t(code.num_edges());
  std::vector<int> edge_check(num_edges);
  for (int c = 0; c < m; ++c) {
    for (int e = g.check_edge_offset[std::size_t(c)];
         e < g.check_edge_offset[std::size_t(c) + 1]; ++e) {
      edge_check[std::size_t(e)] = c;
    }
  }
  std::vector<float> var_to_check(num_edges);
  std::vector<float> check_to_var(num_edges);
  std::vector<std::uint8_t> syndrome(std::size_t(m), 0);
  codeword.assign(std::size_t(n), 0);
  posterior.assign(std::size_t(n), 0.0F);
  int unsatisfied = 0;
  const auto flip_bit = [&](int v) {
    for (int i = g.var_edge_offset[std::size_t(v)];
         i < g.var_edge_offset[std::size_t(v) + 1]; ++i) {
      const int c = edge_check[std::size_t(g.var_edges[std::size_t(i)])];
      syndrome[std::size_t(c)] ^= 1U;
      unsatisfied += syndrome[std::size_t(c)] ? 1 : -1;
    }
  };

  LdpcCode::DecodeStatus status;
  for (std::size_t e = 0; e < num_edges; ++e) {
    var_to_check[e] = llr[std::size_t(g.edge_var[e])];
  }
  for (int iter = 1; iter <= max_iterations; ++iter) {
    for (int c = 0; c < m; ++c) {
      const int base = g.check_edge_offset[std::size_t(c)];
      const int deg = g.check_edge_offset[std::size_t(c) + 1] - base;
      simd::cn_minsum(&var_to_check[std::size_t(base)],
                      &check_to_var[std::size_t(base)], deg, kMinSumScale);
    }
    for (int v = 0; v < n; ++v) {
      float total = llr[std::size_t(v)];
      const int begin = g.var_edge_offset[std::size_t(v)];
      const int end = g.var_edge_offset[std::size_t(v) + 1];
      for (int i = begin; i < end; ++i) {
        total += check_to_var[std::size_t(g.var_edges[std::size_t(i)])];
      }
      posterior[std::size_t(v)] = total;
      for (int i = begin; i < end; ++i) {
        const auto e = std::size_t(g.var_edges[std::size_t(i)]);
        var_to_check[e] = total - check_to_var[e];
      }
      const std::uint8_t bit = total < 0.0F ? 1 : 0;
      if (bit != codeword[std::size_t(v)]) {
        codeword[std::size_t(v)] = bit;
        flip_bit(v);
      }
    }
    status.iterations_used = iter;
    if (unsatisfied == 0) {
      status.parity_ok = true;
      return status;
    }
  }
  status.parity_ok = unsatisfied == 0;
  return status;
}

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels;
  for (const auto level :
       {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
    if (simd::level_supported(level)) {
      levels.push_back(level);
    }
  }
  return levels;
}

// Decodes `llr` with the oracle once and with decode_into at every
// supported level, expecting identical outcomes — and, when an
// iteration ran, bit-identical posterior totals, which catches a float
// reordering even where it flips no decision. Returns the number of
// decodes compared.
int expect_matches_oracle(const LdpcCode& code, const std::vector<float>& llr,
                          int max_iterations, LdpcCode::DecodeWorkspace& ws,
                          const std::string& what) {
  std::vector<std::uint8_t> want_cw;
  std::vector<float> want_posterior;
  const auto want =
      reference_flooding(code, llr, max_iterations, want_cw, want_posterior);
  int compared = 0;
  for (const auto level : supported_levels()) {
    const auto got =
        code.decode_into(llr, max_iterations, ws, simd::kernels_for(level));
    const std::string where = what + " level " + simd::level_name(level);
    EXPECT_EQ(got.iterations_used, want.iterations_used) << where;
    EXPECT_EQ(got.parity_ok, want.parity_ok) << where;
    EXPECT_EQ(ws.codeword, want_cw) << where;
    if (want.iterations_used > 0) {
      EXPECT_TRUE(ws.posterior.size() >= want_posterior.size() &&
                  std::memcmp(ws.posterior.data(), want_posterior.data(),
                              want_posterior.size() * sizeof(float)) == 0)
          << where;
    }
    ++compared;
  }
  return compared;
}

std::vector<std::uint8_t> random_codeword(const LdpcCode& code,
                                          RngStream& rng) {
  std::vector<std::uint8_t> info(std::size_t(code.k()));
  for (auto& b : info) {
    b = std::uint8_t(rng.next_u64() & 1U);
  }
  return code.encode(info);
}

// Modulate, add complex AWGN at `snr_db` (unit-energy symbols), demap.
std::vector<float> channel_llrs(std::span<const std::uint8_t> cw,
                                Modulation mod, double snr_db,
                                RngStream& rng) {
  const Modulator& modulator = modulator_for(mod);
  auto symbols = modulator.modulate(cw);
  const double noise_var = std::pow(10.0, -snr_db / 10.0);
  const double sigma = std::sqrt(noise_var / 2.0);
  for (auto& s : symbols) {
    s += std::complex<float>(float(rng.gaussian(0.0, sigma)),
                             float(rng.gaussian(0.0, sigma)));
  }
  return modulator.demap(symbols, noise_var);
}

constexpr int kIterationBudgets[] = {0, 1, 4, 8, 20};

TEST(LdpcFloodingOracle, StandardCodeAcrossModulationsSnrsBudgetsAndHarq) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{1201}.stream("oracle");
  LdpcCode::DecodeWorkspace ws;
  int compared = 0;
  int converged = 0;
  int failed = 0;
  for (const auto mod : {Modulation::kQpsk, Modulation::kQam16,
                         Modulation::kQam64, Modulation::kQam256}) {
    for (int point = 0; point < 30; ++point) {
      const double snr_db = -2.0 + point;  // -2..27 dB
      const auto cw = random_codeword(code, rng);
      const auto first = channel_llrs(cw, mod, snr_db, rng);
      // HARQ chase combining: the prior transmission's LLRs plus this
      // one's, summed as decode_tb does.
      auto combined = channel_llrs(cw, mod, snr_db, rng);
      for (std::size_t i = 0; i < combined.size(); ++i) {
        combined[i] += first[i];
      }
      for (const int iters : kIterationBudgets) {
        for (const bool harq : {false, true}) {
          const std::string what = std::string(modulation_name(mod)) +
                                   " snr " + std::to_string(snr_db) +
                                   " iters " + std::to_string(iters) +
                                   (harq ? " harq" : "");
          compared += expect_matches_oracle(code, harq ? combined : first,
                                            iters, ws, what);
          if (iters == 20 && code.check_parity(ws.codeword)) {
            ++converged;
          } else if (iters == 20) {
            ++failed;
          }
        }
      }
    }
  }
  // The sweep spans both regimes, so both outcomes are compared.
  EXPECT_GT(converged, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GE(compared, 4 * 30 * 5 * 2);
}

struct Shape {
  int min_degree = 0;
  int max_degree = 0;
  bool duplicate_edge = false;
};

Shape shape_of(const LdpcCode& code) {
  const auto g = code.graph();
  Shape s{1 << 30, 0, false};
  for (int c = 0; c < code.num_checks(); ++c) {
    const int deg = g.check_edge_offset[std::size_t(c) + 1] -
                    g.check_edge_offset[std::size_t(c)];
    s.min_degree = std::min(s.min_degree, deg);
    s.max_degree = std::max(s.max_degree, deg);
    std::vector<int> vars(g.edge_var.begin() + g.check_edge_offset[std::size_t(c)],
                          g.edge_var.begin() +
                              g.check_edge_offset[std::size_t(c) + 1]);
    std::sort(vars.begin(), vars.end());
    s.duplicate_edge |=
        std::adjacent_find(vars.begin(), vars.end()) != vars.end();
  }
  return s;
}

void sweep_bpsk(const LdpcCode& code, std::uint64_t seed,
                LdpcCode::DecodeWorkspace& ws, const std::string& name) {
  auto rng = RngRegistry{seed}.stream("irregular");
  for (const double snr_db : {-1.0, 1.0, 3.0, 6.0}) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto cw = random_codeword(code, rng);
      const double sigma2 = std::pow(10.0, -snr_db / 10.0);
      std::vector<float> llr(cw.size());
      for (std::size_t i = 0; i < cw.size(); ++i) {
        const double x = cw[i] ? -1.0 : 1.0;
        llr[i] = float(2.0 * (x + rng.gaussian(0.0, std::sqrt(sigma2))) /
                       sigma2);
      }
      for (const int iters : kIterationBudgets) {
        expect_matches_oracle(code, llr, iters, ws,
                              name + " snr " + std::to_string(snr_db) +
                                  " iters " + std::to_string(iters));
      }
    }
  }
}

TEST(LdpcFloodingOracle, IrregularCodesPadNeutrally) {
  LdpcCode::DecodeWorkspace ws;  // shared across codes of every size

  // m not a multiple of 8 with an uneven check-degree spread.
  const LdpcCode uneven{101, 43, 7};
  const auto uneven_shape = shape_of(uneven);
  ASSERT_NE(uneven.num_checks() % simd::kBlockLanes, 0);
  ASSERT_LT(uneven_shape.min_degree, uneven_shape.max_degree);
  sweep_bpsk(uneven, 1, ws, "n101 m43");

  // Column weight 4, a wider degree spread, a short last block.
  const LdpcCode weight4{150, 61, 11, 4};
  ASSERT_LT(shape_of(weight4).min_degree, shape_of(weight4).max_degree);
  sweep_bpsk(weight4, 2, ws, "n150 m61 wc4");

  // A column whose duplicate edge the construction guard kept: the
  // check then holds the same variable twice. Search seeds for one.
  bool found = false;
  for (std::uint64_t seed = 1; seed < 200 && !found; ++seed) {
    const LdpcCode dup{60, 13, seed};
    if (shape_of(dup).duplicate_edge) {
      found = true;
      sweep_bpsk(dup, 3, ws, "n60 m13 dup seed " + std::to_string(seed));
    }
  }
  EXPECT_TRUE(found) << "no seed produced a duplicate edge";

  // The standard code after the small ones: the workspace grows back.
  sweep_bpsk(LdpcCode::standard(), 4, ws, "standard");
}

}  // namespace
}  // namespace slingshot
