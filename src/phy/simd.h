// Runtime-dispatched SIMD kernels for the PHY's hottest inner loops:
// the LDPC decoder's check-node and variable-node updates (ldpc.cc)
// and the max-log soft demapper (modulation.cc).
//
// Contract: every implementation is BIT-EXACT against the scalar
// reference on all finite inputs — same floats out, down to the sign
// bit. The golden-trace determinism test pins decode iteration counts
// and CRC outcomes, so a kernel that drifted by one ULP would change
// simulation results between machines. The implementations stay exact
// by construction:
//  * min/max/fabs/compare and sign manipulation are exact in IEEE-754;
//    no reassociated sums or FMA contractions are used. Sums that do
//    occur (the variable-node total) are evaluated lane-wise in the
//    scalar reference's operand order.
//  * the min-sum magnitude is selected by value equality
//    (mag == min1 ? min2 : min1), which provably matches the scalar
//    code's position-based selection: when a non-minimal position ties
//    with min1, min2 == min1 and both forms emit the same value.
//  * the lane-wise two-smallest update min2 = min(min2, max(min1, mag));
//    min1 = min(min1, mag) yields the same (min1, min2) values as the
//    scalar if/else-if chain, ties included.
//  * the demapper replicates the scalar path's double-precision
//    division (cvtps_pd -> div_pd -> cvtpd_ps) instead of multiplying
//    by a reciprocal.
//
// AVX2 kernels are whole target("avx2") functions: VEX-encoded
// throughout and ending in vzeroupper, so callers compiled for the
// SSE2 baseline never run legacy-SSE code with dirty upper YMM state.
// Vector code belongs behind this table, not inline in its callers.
//
// Dispatch happens once, at first use: the highest level the CPU
// supports (AVX2 > SSE2 > scalar), overridable with
// SLINGSHOT_SIMD=scalar|sse2|avx2 for A/B benchmarking and tests.
// kernels_for() exposes every compiled-in level so tests can assert
// exact parity between all of them on randomized inputs.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace slingshot::simd {

enum class Level { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

// Check-block geometry of cn_minsum_block: one AVX2 register of checks,
// and the padding value that fills unused lanes and slots.
inline constexpr int kBlockLanes = 8;
inline constexpr float kBlockPad = 1e30F;

// Position of variable v's i-th edge in vn_update's slot table for
// column weight w: groups of kBlockLanes variables, edge-major inside a
// group, so one vector load yields the group's i-th message indices.
[[nodiscard]] constexpr std::size_t vn_slot(int v, int i, int w) {
  return std::size_t(((v / kBlockLanes) * w + i) * kBlockLanes +
                     v % kBlockLanes);
}

[[nodiscard]] const char* level_name(Level level);

// Normalized min-sum check-node update over one check's `deg` incoming
// messages q[0..deg): r[j] gets the sign-excluded product
// sign * scale * mag, where mag is the smallest |q| excluding position j
// (i.e. min2 at the argmin position, min1 elsewhere). q and r must not
// alias. Scalar only: it is the per-check reference that
// Kernels::cn_minsum_block and the flooding-decoder oracle test are
// held bit-exact against.
void cn_minsum(const float* q, float* r, int deg, float scale);

struct Kernels {
  // cn_minsum over one check block: kBlockLanes checks side by side,
  // messages stored slot-major (q[j * kBlockLanes + lane] is the lane's
  // j-th message). Each lane's output equals cn_minsum over that lane's
  // deg messages; a shorter check pads its column with kBlockPad, which
  // can never displace a real minimum or flip a sign, so padding is
  // neutral. q and r must not alias.
  void (*cn_minsum_block)(const float* q, float* r, int deg, float scale);

  // Flooding variable-node update over n variables of column weight w.
  // slots[vn_slot(v, i, w)] is the message index s_i of v's i-th edge
  // (the last group may be partial). For each v: total[v] = llr[v] +
  // c2v[s_0] + ... + c2v[s_{w-1}], summed left to right, then
  // v2c[s_i] = total[v] - c2v[s_i]. The hard decision of v is
  // total[v] < 0. c2v, v2c and total must not alias.
  void (*vn_update)(const float* llr, int n, int w, const std::int32_t* slots,
                    const float* c2v, float* v2c, float* total);

  // Parity of one check block's hard decisions: vars[j * kBlockLanes +
  // lane] is the variable on the lane's j-th edge (a padded slot names
  // any variable whose total is >= 0). True iff every lane has an even
  // number of edges with total[var] < 0, i.e. all 8 checks are met.
  bool (*block_parity_ok)(const float* total, const std::int32_t* vars,
                          int deg);

  // Max-log LLR soft demap of `count` Gray-mapped square-QAM symbols.
  // `levels` holds the 1 << bits_per_dim PAM amplitudes indexed by
  // MSB-first bit pattern; `sigma2` is the per-dimension noise
  // variance. Writes 2 * bits_per_dim LLRs per symbol to `out`
  // (I-dimension bits first, then Q), positive = bit 0.
  void (*demap_soft)(const std::complex<float>* symbols, std::size_t count,
                     const float* levels, int bits_per_dim, double sigma2,
                     float* out);

  // Deadline scan over `n` signed 64-bit deadlines: appends every index
  // i with 0 <= deadlines[i] <= now to `hits` (caller-sized to at least
  // n) and returns the number appended, in ascending index order.
  // Negative deadlines mean "unarmed" and never fire. Used by the
  // massive-UE batch to sweep RLF / reattach timer lanes once per TTI
  // instead of scheduling per-UE events.
  std::size_t (*deadline_scan)(const std::int64_t* deadlines, std::size_t n,
                               std::int64_t now, std::uint32_t* hits);

  // One TTI of the massive-UE batch over `n` lanes, each lane loaded
  // and stored once. Per lane, in exactly this operation order:
  //   lcg = lcg * 1664525 + 1013904223      (u32, wrapping)
  //   u1  = float(lcg >> 8) * 2^-24
  //   lcg = lcg * 1664525 + 1013904223
  //   u2  = float(lcg >> 8) * 2^-24
  //   snr = (mean + rho * (snr - mean)) + innov_scale * ((u1 + u2) - 1)
  //   credits = credits + rate
  // No FMA contraction, so every level is bit-exact vs scalar. The
  // triangular innovation is the batch's stand-in for a gaussian fading
  // step; the credit form equals the AR(1) step with mean 0, rho 1 for
  // every rate except -0.0.
  void (*ue_lane_step)(float* snr, std::uint32_t* lcg, float* credits,
                       const float* rate, std::size_t n, float mean,
                       float rho, float innov_scale);

  // ---- BFP codec kernels (fronthaul/bfp.cc fast lane) ----
  // These four cover one O-RAN BFP block: exponent scan, quantize,
  // mantissa pack/unpack, dequantize. All are bit-exact vs scalar:
  // abs/max are exact; the quantizer works in double where division
  // and multiplication by a power of two are exact and emulates
  // lround's half-away-from-zero via trunc(x + copysign(0.5, x)),
  // which is provably identical for |x| small enough to survive the
  // mantissa clamp; the dequantizer multiplies a <=16-bit integer by a
  // power of two, which is exact in float.

  // Max |x[i]| over n floats (0 for n == 0). The BFP shared-exponent
  // scan over one block's 2*n real components.
  float (*peak_abs)(const float* x, std::size_t n);

  // q[i] = clamp(lround(double(x[i]) * inv_scale), -max_m, max_m).
  // inv_scale must be a power of two (it is 2^-exponent).
  void (*bfp_quantize)(const float* x, std::size_t n, double inv_scale,
                       std::int32_t max_m, std::int32_t* q);

  // out[i] = float(q[i]) * scale. scale is a power of two, so the
  // product is exact whenever it is representable.
  void (*bfp_dequantize)(const std::int32_t* q, std::size_t n, float scale,
                         float* out);

  // Pack n two's-complement mantissas (the low m bits of q[i],
  // m in [2,16]) MSB-first into dst; returns the (n*m+7)/8 bytes
  // written, zero-padding the final partial byte's low bits. Values
  // must already be in [-(2^(m-1)-1), 2^(m-1)-1]. SIMD levels
  // specialize the byte-aligned widths (m == 8, 16) and fall back to
  // the shared 64-bit word-level core elsewhere — never to a per-bit
  // loop.
  std::size_t (*bfp_pack)(const std::int32_t* q, std::size_t n, int m,
                          std::uint8_t* dst);

  // Inverse of bfp_pack: sign-extend n m-bit mantissas from src (which
  // must hold at least (n*m+7)/8 bytes) into q.
  void (*bfp_unpack)(const std::uint8_t* src, std::size_t n, int m,
                     std::int32_t* q);
};

// The active kernel set, chosen once on first call (thread-safe) from
// CPU capabilities and the optional SLINGSHOT_SIMD env override.
[[nodiscard]] const Kernels& kernels();
[[nodiscard]] Level active_level();

// Kernel set for a specific level, for parity tests and benchmarks.
// Returns the scalar set when `level` is not supported on this CPU.
[[nodiscard]] const Kernels& kernels_for(Level level);
[[nodiscard]] bool level_supported(Level level);

}  // namespace slingshot::simd
