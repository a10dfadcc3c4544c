#include "phy/tb_codec.h"

#include <cmath>
#include <stdexcept>

#include "common/bits.h"
#include "common/crc.h"
#include "common/rng.h"

namespace slingshot {
namespace {

std::vector<std::complex<float>> make_pilots() {
  // Deterministic pseudo-random QPSK pilots, unit energy.
  std::vector<std::complex<float>> pilots;
  pilots.reserve(kNumPilotSymbols);
  std::uint64_t state = 0xC0FFEE123456789ULL;
  const float a = float(1.0 / std::sqrt(2.0));
  for (int i = 0; i < kNumPilotSymbols; ++i) {
    state = splitmix64(state);
    const float re = (state & 1) ? a : -a;
    const float im = (state & 2) ? a : -a;
    pilots.emplace_back(re, im);
  }
  return pilots;
}

const std::vector<std::complex<float>>& pilots_storage() {
  static const auto pilots = make_pilots();
  return pilots;
}

}  // namespace

std::span<const std::complex<float>> pilot_sequence() {
  return pilots_storage();
}

std::vector<std::uint8_t> build_info_block(
    std::span<const std::uint8_t> payload, const LdpcCode& code) {
  const int k = code.k();
  if (k <= 24) {
    throw std::invalid_argument{"build_info_block: code too short for CRC"};
  }
  std::vector<std::uint8_t> info(std::size_t(k), 0);
  const std::uint32_t crc = crc24a(payload);
  for (int b = 0; b < 24; ++b) {
    info[std::size_t(b)] = std::uint8_t((crc >> (23 - b)) & 1U);
  }
  // Only the payload's leading k-24 bits ride in the info block: convert
  // just those, not the whole (potentially kilobytes-long) payload.
  thread_local std::vector<std::uint8_t> payload_bits;
  bytes_to_bits_into(payload, std::size_t(k - 24), payload_bits);
  for (std::size_t b = 0; b < payload_bits.size(); ++b) {
    info[24 + b] = payload_bits[b];
  }
  return info;
}

TbEncodeResult encode_tb(std::span<const std::uint8_t> payload, Modulation mod,
                         const LdpcCode& code) {
  const auto info = build_info_block(payload, code);
  auto codeword = code.encode(info);
  // Pad the codeword to a whole number of symbols (no-op for the
  // standard code, whose length divides all modulation orders).
  const int bps = bits_per_symbol(mod);
  while (codeword.size() % std::size_t(bps) != 0) {
    codeword.push_back(0);
  }
  const Modulator& modulator = modulator_for(mod);
  auto data_syms = modulator.modulate(codeword);

  TbEncodeResult result;
  result.codeword_bits = std::uint32_t(codeword.size());
  const auto pilots = pilot_sequence();
  result.iq.reserve(pilots.size() + data_syms.size());
  result.iq.insert(result.iq.end(), pilots.begin(), pilots.end());
  result.iq.insert(result.iq.end(), data_syms.begin(), data_syms.end());
  return result;
}

TbDecodeResult decode_tb(std::span<const std::complex<float>> iq,
                         Modulation mod,
                         std::span<const std::uint8_t> shadow_payload,
                         int max_ldpc_iterations,
                         const std::vector<float>* prior_llrs,
                         const LdpcCode& code, TbDecodeWorkspace* ws) {
  thread_local TbDecodeWorkspace fallback_ws;
  if (ws == nullptr) {
    ws = &fallback_ws;
  }
  TbDecodeResult result;
  const auto pilots = pilot_sequence();
  if (iq.size() <= pilots.size()) {
    return result;  // garbage/truncated block: decode failure
  }

  // --- Channel estimation: LS estimate averaged over pilots.
  std::complex<double> h_acc{0.0, 0.0};
  for (std::size_t p = 0; p < pilots.size(); ++p) {
    h_acc += std::complex<double>(iq[p]) * std::conj(std::complex<double>(pilots[p]));
  }
  const std::complex<double> h = h_acc / double(pilots.size());
  const double h_pow = std::norm(h);

  // --- Noise variance estimate from pilot residuals.
  double noise_acc = 0.0;
  for (std::size_t p = 0; p < pilots.size(); ++p) {
    const auto r = std::complex<double>(iq[p]) - h * std::complex<double>(pilots[p]);
    noise_acc += std::norm(r);
  }
  const double sigma2 = std::max(noise_acc / double(pilots.size()), 1e-9);
  result.est_snr_db = 10.0 * std::log10(std::max(h_pow / sigma2, 1e-9));

  if (h_pow < 1e-12) {
    return result;  // unrecoverable: no channel
  }

  // --- Single-tap equalization; effective noise variance scales by
  // 1/|h|^2 after dividing by h.
  const std::size_t n_data = iq.size() - pilots.size();
  auto& eq = ws->eq;
  eq.resize(n_data);
  const std::complex<double> h_inv = std::conj(h) / h_pow;
  for (std::size_t s = 0; s < n_data; ++s) {
    eq[s] = std::complex<float>(std::complex<double>(iq[pilots.size() + s]) * h_inv);
  }
  const double eff_noise = sigma2 / h_pow;

  // --- Soft demapping.
  const Modulator& modulator = modulator_for(mod);
  auto& llrs = ws->llrs;
  modulator.demap_into(eq, eff_noise, llrs);
  if (int(llrs.size()) < code.n()) {
    return result;
  }
  llrs.resize(std::size_t(code.n()));

  // --- HARQ chase combining.
  if (prior_llrs != nullptr && prior_llrs->size() == llrs.size()) {
    for (std::size_t i = 0; i < llrs.size(); ++i) {
      llrs[i] += (*prior_llrs)[i];
    }
  }

  // --- LDPC decode + CRC check.
  const auto decoded = code.decode_into(llrs, max_ldpc_iterations, ws->ldpc);
  result.parity_ok = decoded.parity_ok;
  result.iterations_used = decoded.iterations_used;
  if (!decoded.parity_ok) {
    result.combined_llrs = llrs;
    return result;
  }
  auto& info = ws->info;
  code.extract_info_into(ws->ldpc.codeword, info);
  std::uint32_t crc_rx = 0;
  for (int b = 0; b < 24; ++b) {
    crc_rx = (crc_rx << 1) | (info[std::size_t(b)] & 1U);
  }
  // Equivalent to rebuilding the expected info block and comparing, but
  // without recomputing the CRC twice or converting the whole payload:
  // the decoded info bits must match the payload's leading bits and be
  // zero-padded past the payload's end.
  auto& payload_bits = ws->payload_bits;
  bytes_to_bits_into(shadow_payload, std::size_t(code.k() - 24),
                     payload_bits);
  bool body_ok = std::equal(payload_bits.begin(), payload_bits.end(),
                            info.begin() + 24);
  for (std::size_t b = 24 + payload_bits.size(); body_ok && b < info.size();
       ++b) {
    body_ok = info[b] == 0;
  }
  result.crc_ok = body_ok && crc_rx == crc24a(shadow_payload);
  if (!result.crc_ok) {
    result.combined_llrs = llrs;
  }
  return result;
}

}  // namespace slingshot
