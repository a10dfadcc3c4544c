#include "phy/ldpc.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace slingshot {
namespace {

std::vector<std::uint8_t> random_bits(int n, RngStream& rng) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(n));
  for (auto& b : bits) {
    b = std::uint8_t(rng.next_u64() & 1U);
  }
  return bits;
}

// Transmit a codeword over BPSK + AWGN, produce channel LLRs.
std::vector<float> bpsk_llrs(std::span<const std::uint8_t> cw, double snr_db,
                             RngStream& rng) {
  const double sigma2 = std::pow(10.0, -snr_db / 10.0);
  const double sigma = std::sqrt(sigma2);
  std::vector<float> llrs(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    const double x = cw[i] ? -1.0 : 1.0;
    const double y = x + rng.gaussian(0.0, sigma);
    llrs[i] = float(2.0 * y / sigma2);
  }
  return llrs;
}

TEST(LdpcCode, DimensionsAreSane) {
  const auto& code = LdpcCode::standard();
  EXPECT_EQ(code.n(), 648);
  // Rate ~1/2; a few dependent checks may shift k slightly upward.
  EXPECT_GE(code.k(), 320);
  EXPECT_LE(code.k(), 340);
}

TEST(LdpcCode, EncodedWordsSatisfyParity) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{1}.stream("ldpc");
  for (int trial = 0; trial < 20; ++trial) {
    const auto info = random_bits(code.k(), rng);
    const auto cw = code.encode(info);
    ASSERT_EQ(int(cw.size()), code.n());
    EXPECT_TRUE(code.check_parity(cw));
  }
}

TEST(LdpcCode, EncodeIsSystematicInExtraction) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{2}.stream("ldpc");
  const auto info = random_bits(code.k(), rng);
  const auto cw = code.encode(info);
  EXPECT_EQ(code.extract_info(cw), info);
}

TEST(LdpcCode, CorruptedWordFailsParity) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{3}.stream("ldpc");
  auto cw = code.encode(random_bits(code.k(), rng));
  cw[100] ^= 1U;
  EXPECT_FALSE(code.check_parity(cw));
}

TEST(LdpcCode, DecodesCleanChannelInOneIteration) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{4}.stream("ldpc");
  const auto info = random_bits(code.k(), rng);
  const auto cw = code.encode(info);
  std::vector<float> llrs(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    llrs[i] = cw[i] ? -10.0F : 10.0F;
  }
  const auto result = code.decode(llrs, 8);
  EXPECT_TRUE(result.parity_ok);
  EXPECT_EQ(result.iterations_used, 1);
  EXPECT_EQ(code.extract_info(result.codeword), info);
}

TEST(LdpcCode, DecodesNoisyChannelAtModerateSnr) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{5}.stream("ldpc");
  int successes = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const auto info = random_bits(code.k(), rng);
    const auto cw = code.encode(info);
    const auto llrs = bpsk_llrs(cw, 4.0, rng);  // comfortable SNR
    const auto result = code.decode(llrs, 20);
    if (result.parity_ok && code.extract_info(result.codeword) == info) {
      ++successes;
    }
  }
  EXPECT_EQ(successes, trials);
}

TEST(LdpcCode, FailsAtVeryLowSnr) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{6}.stream("ldpc");
  int successes = 0;
  for (int t = 0; t < 20; ++t) {
    const auto info = random_bits(code.k(), rng);
    const auto cw = code.encode(info);
    const auto llrs = bpsk_llrs(cw, -4.0, rng);
    const auto result = code.decode(llrs, 20);
    if (result.parity_ok) {
      ++successes;
    }
  }
  EXPECT_LT(successes, 3);
}

// The property behind the paper's Fig 11 live-upgrade experiment: more
// BP iterations decode at SNRs where fewer iterations fail.
TEST(LdpcCode, MoreIterationsImproveNearThresholdDecoding) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{7}.stream("ldpc");
  const int trials = 60;
  int ok_few = 0;
  int ok_many = 0;
  for (int t = 0; t < trials; ++t) {
    const auto info = random_bits(code.k(), rng);
    const auto cw = code.encode(info);
    const auto llrs = bpsk_llrs(cw, 1.4, rng);  // near threshold
    ok_few += code.decode(llrs, 3).parity_ok ? 1 : 0;
    ok_many += code.decode(llrs, 40).parity_ok ? 1 : 0;
  }
  EXPECT_GT(ok_many, ok_few + trials / 10)
      << "few=" << ok_few << " many=" << ok_many;
}

TEST(LdpcCode, EarlyTerminationReportsIterations) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{8}.stream("ldpc");
  const auto cw = code.encode(random_bits(code.k(), rng));
  const auto llrs = bpsk_llrs(cw, 6.0, rng);
  const auto result = code.decode(llrs, 50);
  EXPECT_TRUE(result.parity_ok);
  EXPECT_LT(result.iterations_used, 10);  // early exit, not 50
}

TEST(LdpcCode, WrongInputSizesThrow) {
  const auto& code = LdpcCode::standard();
  EXPECT_THROW((void)code.encode(std::vector<std::uint8_t>(10)),
               std::invalid_argument);
  EXPECT_THROW((void)code.decode(std::vector<float>(10), 5),
               std::invalid_argument);
  EXPECT_THROW(LdpcCode(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(LdpcCode(100, 100, 1), std::invalid_argument);
}

TEST(LdpcCode, DeterministicForSeed) {
  const LdpcCode a{324, 162, 77};
  const LdpcCode b{324, 162, 77};
  auto rng = RngRegistry{9}.stream("ldpc");
  const auto info = random_bits(a.k(), rng);
  ASSERT_EQ(a.k(), b.k());
  EXPECT_EQ(a.encode(info), b.encode(info));
}

TEST(LdpcCode, DecodeIntoMatchesDecode) {
  // The workspace entry point is the same algorithm as the allocating
  // wrapper — byte-identical outcomes.
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{11}.stream("ldpc");
  LdpcCode::DecodeWorkspace ws;
  for (int t = 0; t < 10; ++t) {
    const auto cw = code.encode(random_bits(code.k(), rng));
    const auto llrs = bpsk_llrs(cw, 2.0, rng);
    const auto via_wrapper = code.decode(llrs, 8);
    const auto via_ws = code.decode_into(llrs, 8, ws);
    EXPECT_EQ(via_wrapper.parity_ok, via_ws.parity_ok);
    EXPECT_EQ(via_wrapper.iterations_used, via_ws.iterations_used);
    EXPECT_EQ(via_wrapper.codeword, ws.codeword);
  }
}

}  // namespace
}  // namespace slingshot
