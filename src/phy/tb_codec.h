// Transport-block <-> representative-codeword codec: the complete
// bit-level transmit and receive chains.
//
// Transmit: CRC24A over the whole TB payload + the payload's leading
// bits form the LDPC info block; encode; Gray-QAM modulate; prepend
// known pilot symbols.
//
// Receive: least-squares channel estimation from the pilots, single-tap
// MMSE equalization, max-log LLR demapping, optional HARQ chase
// combining with a prior LLR buffer, LDPC belief-propagation decoding,
// and CRC verification against the shadow payload. The receiver also
// produces a post-equalization SNR estimate — the quantity the PHY's
// per-UE moving-average filter tracks (§4.2).
#pragma once

#include <complex>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "phy/ldpc.h"
#include "phy/modulation.h"

namespace slingshot {

inline constexpr int kNumPilotSymbols = 16;

struct TbEncodeResult {
  std::vector<std::complex<float>> iq;  // pilots + data symbols
  std::uint32_t codeword_bits = 0;
};

// Encode a TB payload into over-the-air symbols.
[[nodiscard]] TbEncodeResult encode_tb(std::span<const std::uint8_t> payload,
                                       Modulation mod,
                                       const LdpcCode& code = LdpcCode::standard());

struct TbDecodeResult {
  bool crc_ok = false;
  bool parity_ok = false;
  double est_snr_db = 0.0;  // post-equalization estimate from pilots
  int iterations_used = 0;
  // Post-combining channel LLRs, the soft state a HARQ receiver keeps
  // for a retransmission. Filled only when the LDPC decode ran and the
  // CRC failed: a passing TB needs no soft state, so it is not copied.
  std::vector<float> combined_llrs;
};

// Caller-owned scratch for decode_tb(): equalized symbols, LLRs, the
// decoded/expected info blocks, and the LDPC decoder's workspace. A
// long-lived receiver (PHY process, UE modem) keeps one and decodes
// every TB through it without per-TB heap traffic.
struct TbDecodeWorkspace {
  std::vector<std::complex<float>> eq;
  std::vector<float> llrs;
  std::vector<std::uint8_t> info;
  std::vector<std::uint8_t> payload_bits;
  LdpcCode::DecodeWorkspace ldpc;
};

// Decode received symbols. `shadow_payload` is the TB's byte content
// (travelling losslessly alongside the codeword); CRC verification
// checks the decoded info block against it. If `prior_llrs` is
// non-null, its values are chase-combined with this transmission's LLRs
// (HARQ). On a CRC failure the combined LLRs are returned so the caller
// can store them in its soft buffer. Passing a reusable `ws` removes
// the per-TB scratch allocations (a thread-local workspace is used
// otherwise).
[[nodiscard]] TbDecodeResult decode_tb(
    std::span<const std::complex<float>> iq, Modulation mod,
    std::span<const std::uint8_t> shadow_payload, int max_ldpc_iterations,
    const std::vector<float>* prior_llrs = nullptr,
    const LdpcCode& code = LdpcCode::standard(),
    TbDecodeWorkspace* ws = nullptr);

// The fixed pilot sequence (unit-energy QPSK, pseudo-random).
[[nodiscard]] std::span<const std::complex<float>> pilot_sequence();

// Build the LDPC info block for a payload: CRC24A followed by the
// payload's leading bits, zero-padded to k bits.
[[nodiscard]] std::vector<std::uint8_t> build_info_block(
    std::span<const std::uint8_t> payload, const LdpcCode& code);

}  // namespace slingshot
