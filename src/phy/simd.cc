#include "phy/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#define SLINGSHOT_SIMD_X86 1
#include <immintrin.h>
#endif

namespace slingshot::simd {

// ---------------------------------------------------------------------
// Scalar reference kernels. These ARE the semantics: every vector
// implementation below must match them bit-for-bit on finite inputs.
// ---------------------------------------------------------------------

void cn_minsum(const float* q, float* r, int deg, float scale) {
  float min1 = 1e30F;
  float min2 = 1e30F;
  int min_pos = -1;
  unsigned sign_all = 0;
  for (int j = 0; j < deg; ++j) {
    const float v = q[std::size_t(j)];
    const float mag = std::fabs(v);
    if (v < 0.0F) {
      sign_all ^= 1U;
    }
    if (mag < min1) {
      min2 = min1;
      min1 = mag;
      min_pos = j;
    } else if (mag < min2) {
      min2 = mag;
    }
  }
  for (int j = 0; j < deg; ++j) {
    const float v = q[std::size_t(j)];
    const unsigned sign_excl = sign_all ^ (v < 0.0F ? 1U : 0U);
    const float mag = (j == min_pos) ? min2 : min1;
    r[std::size_t(j)] = (sign_excl ? -1.0F : 1.0F) * scale * mag;
  }
}

namespace {

void cn_minsum_block_scalar(const float* q, float* r, int deg, float scale) {
  constexpr std::size_t kLanes = kBlockLanes;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    float min1 = kBlockPad;
    float min2 = kBlockPad;
    unsigned sign_all = 0;
    for (int j = 0; j < deg; ++j) {
      const float v = q[std::size_t(j) * kLanes + lane];
      const float mag = std::fabs(v);
      sign_all ^= v < 0.0F ? 1U : 0U;
      min2 = std::min(min2, std::max(min1, mag));
      min1 = std::min(min1, mag);
    }
    for (int j = 0; j < deg; ++j) {
      const float v = q[std::size_t(j) * kLanes + lane];
      const unsigned sign_excl = sign_all ^ (v < 0.0F ? 1U : 0U);
      const float mag = std::fabs(v) == min1 ? min2 : min1;
      r[std::size_t(j) * kLanes + lane] =
          (sign_excl ? -1.0F : 1.0F) * scale * mag;
    }
  }
}

void vn_update_scalar(const float* llr, int n, int w,
                      const std::int32_t* slots, const float* c2v, float* v2c,
                      float* total) {
  for (int v = 0; v < n; ++v) {
    float sum = llr[v];
    for (int i = 0; i < w; ++i) {
      sum += c2v[slots[vn_slot(v, i, w)]];
    }
    for (int i = 0; i < w; ++i) {
      const std::int32_t s = slots[vn_slot(v, i, w)];
      v2c[s] = sum - c2v[s];
    }
    total[v] = sum;
  }
}

bool block_parity_ok_scalar(const float* total, const std::int32_t* vars,
                            int deg) {
  unsigned odd = 0;
  for (int lane = 0; lane < kBlockLanes; ++lane) {
    unsigned parity = 0;
    for (int j = 0; j < deg; ++j) {
      parity ^= total[vars[j * kBlockLanes + lane]] < 0.0F ? 1U : 0U;
    }
    odd |= parity;
  }
  return odd == 0;
}

// One PAM dimension of one symbol: max-log LLR per bit position.
void demap_dim_scalar(float y, const float* levels, int bits_per_dim,
                      double sigma2, float* dst) {
  const int num_levels = 1 << bits_per_dim;
  for (int b = 0; b < bits_per_dim; ++b) {
    float best0 = 1e30F;
    float best1 = 1e30F;
    for (int pattern = 0; pattern < num_levels; ++pattern) {
      const float d = y - levels[std::size_t(pattern)];
      const float metric = d * d;
      const bool bit = (pattern >> (bits_per_dim - 1 - b)) & 1;
      if (bit) {
        best1 = std::min(best1, metric);
      } else {
        best0 = std::min(best0, metric);
      }
    }
    dst[std::size_t(b)] = float((best1 - best0) / (2.0 * sigma2));
  }
}

void demap_soft_scalar(const std::complex<float>* symbols, std::size_t count,
                       const float* levels, int bits_per_dim, double sigma2,
                       float* out) {
  const std::size_t bps = 2 * std::size_t(bits_per_dim);
  for (std::size_t s = 0; s < count; ++s) {
    float* dst = out + s * bps;
    demap_dim_scalar(symbols[s].real(), levels, bits_per_dim, sigma2, dst);
    demap_dim_scalar(symbols[s].imag(), levels, bits_per_dim, sigma2,
                     dst + bits_per_dim);
  }
}

std::size_t deadline_scan_scalar(const std::int64_t* deadlines, std::size_t n,
                                 std::int64_t now, std::uint32_t* hits) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t d = deadlines[i];
    if (d >= 0 && d <= now) {
      hits[count++] = std::uint32_t(i);
    }
  }
  return count;
}

// The batch's per-lane RNG: a 32-bit LCG whose top 24 bits make a
// uniform in [0, 1). The shifted value is below 2^24, so the int-to-
// float conversion (signed in the vector kernels) is exact.
constexpr std::uint32_t kLcgMul = 1664525U;
constexpr std::uint32_t kLcgAdd = 1013904223U;
constexpr float kLcgUnit = 0x1.0p-24F;

// One lane of ue_lane_step; the vector kernels' tails run it too.
[[gnu::always_inline]] inline void ue_lane_step_one(
    float& snr, std::uint32_t& lcg, float& credits, float rate, float mean,
    float rho, float innov_scale) {
  std::uint32_t s = lcg * kLcgMul + kLcgAdd;
  const float u1 = float(s >> 8) * kLcgUnit;
  s = s * kLcgMul + kLcgAdd;
  const float u2 = float(s >> 8) * kLcgUnit;
  lcg = s;
  const float innov = innov_scale * (u1 + u2 - 1.0F);
  snr = mean + rho * (snr - mean) + innov;
  credits = credits + rate;
}

void ue_lane_step_scalar(float* snr, std::uint32_t* lcg, float* credits,
                         const float* rate, std::size_t n, float mean,
                         float rho, float innov_scale) {
  for (std::size_t i = 0; i < n; ++i) {
    ue_lane_step_one(snr[i], lcg[i], credits[i], rate[i], mean, rho,
                     innov_scale);
  }
}

float peak_abs_scalar(const float* x, std::size_t n) {
  float peak = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    peak = std::max(peak, std::fabs(x[i]));
  }
  return peak;
}

void bfp_quantize_scalar(const float* x, std::size_t n, double inv_scale,
                         std::int32_t max_m, std::int32_t* q) {
  for (std::size_t i = 0; i < n; ++i) {
    // inv_scale is 2^-e, so the product equals double(x[i]) / 2^e
    // exactly: both forms are a pure exponent shift.
    const long v = std::lround(double(x[i]) * inv_scale);
    q[i] = std::int32_t(std::clamp<long>(v, -long(max_m), long(max_m)));
  }
}

void bfp_dequantize_scalar(const std::int32_t* q, std::size_t n, float scale,
                           float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = float(q[i]) * scale;
  }
}

// 64-bit word-level MSB-first packer: accumulate mantissas into a shift
// register and flush whole bytes. The accumulator never exceeds
// 7 + 16 bits, and the only per-element control flow is the byte flush
// (at most two iterations) — no per-bit branches. Templated on the
// width so every shift and the flush trip count are compile-time
// constants; the public entry points dispatch once per call, which for
// a PRB block amortizes over 24 mantissas.
template <int M>
std::size_t bfp_pack_words(const std::int32_t* q, std::size_t n,
                           std::uint8_t* dst) {
  constexpr auto kMask = std::uint32_t((1U << M) - 1U);
  std::uint64_t acc = 0;
  int bits = 0;
  std::uint8_t* p = dst;
  for (std::size_t i = 0; i < n; ++i) {
    acc = (acc << M) | (std::uint32_t(q[i]) & kMask);
    bits += M;
    while (bits >= 8) {
      bits -= 8;
      *p++ = std::uint8_t(acc >> bits);
    }
  }
  if (bits > 0) {
    *p++ = std::uint8_t(acc << (8 - bits));
  }
  return std::size_t(p - dst);
}

template <int M>
void bfp_unpack_words(const std::uint8_t* src, std::size_t n,
                      std::int32_t* q) {
  constexpr auto kMask = std::uint32_t((1U << M) - 1U);
  constexpr int kShift = 32 - M;
  std::uint64_t acc = 0;
  int bits = 0;
  const std::uint8_t* p = src;
  for (std::size_t i = 0; i < n; ++i) {
    while (bits < M) {
      acc = (acc << 8) | *p++;
      bits += 8;
    }
    bits -= M;
    const auto raw = std::uint32_t(acc >> bits) & kMask;
    // Sign-extend the M-bit value (arithmetic shift; C++20 guarantees
    // two's complement).
    q[i] = std::int32_t(raw << kShift) >> kShift;
  }
}

template <typename F>
decltype(auto) with_bfp_width(int m, F&& f) {
  switch (m) {
    case 2: return f(std::integral_constant<int, 2>{});
    case 3: return f(std::integral_constant<int, 3>{});
    case 4: return f(std::integral_constant<int, 4>{});
    case 5: return f(std::integral_constant<int, 5>{});
    case 6: return f(std::integral_constant<int, 6>{});
    case 7: return f(std::integral_constant<int, 7>{});
    case 8: return f(std::integral_constant<int, 8>{});
    case 9: return f(std::integral_constant<int, 9>{});
    case 10: return f(std::integral_constant<int, 10>{});
    case 11: return f(std::integral_constant<int, 11>{});
    case 12: return f(std::integral_constant<int, 12>{});
    case 13: return f(std::integral_constant<int, 13>{});
    case 14: return f(std::integral_constant<int, 14>{});
    case 15: return f(std::integral_constant<int, 15>{});
    default: return f(std::integral_constant<int, 16>{});
  }
}

std::size_t bfp_pack_scalar(const std::int32_t* q, std::size_t n, int m,
                            std::uint8_t* dst) {
  return with_bfp_width(m, [&](auto width) {
    return bfp_pack_words<decltype(width)::value>(q, n, dst);
  });
}

void bfp_unpack_scalar(const std::uint8_t* src, std::size_t n, int m,
                       std::int32_t* q) {
  with_bfp_width(m, [&](auto width) {
    bfp_unpack_words<decltype(width)::value>(src, n, q);
  });
}

constexpr Kernels kScalarKernels{
    cn_minsum_block_scalar, vn_update_scalar,      block_parity_ok_scalar,
    demap_soft_scalar,      deadline_scan_scalar,  ue_lane_step_scalar,
    peak_abs_scalar,        bfp_quantize_scalar,   bfp_dequantize_scalar,
    bfp_pack_scalar,        bfp_unpack_scalar};

#if SLINGSHOT_SIMD_X86

// ---------------------------------------------------------------------
// SSE2 (x86-64 baseline).
// ---------------------------------------------------------------------

// Each lane is its own check, so the lane-wise two smallest ARE the
// check's (min1, min2). A block row is two 4-lane halves.
void cn_minsum_block_sse2(const float* q, float* r, int deg, float scale) {
  const __m128 sign_mask = _mm_set1_ps(-0.0F);
  const __m128 zero = _mm_setzero_ps();
  const __m128 vscale = _mm_set1_ps(scale);
  for (int half = 0; half < kBlockLanes; half += 4) {
    __m128 vmin1 = _mm_set1_ps(kBlockPad);
    __m128 vmin2 = vmin1;
    __m128 parity = zero;
    for (int j = 0; j < deg; ++j) {
      const __m128 v = _mm_loadu_ps(q + j * kBlockLanes + half);
      const __m128 mag = _mm_andnot_ps(sign_mask, v);
      parity = _mm_xor_ps(parity, _mm_cmplt_ps(v, zero));
      vmin2 = _mm_min_ps(vmin2, _mm_max_ps(vmin1, mag));
      vmin1 = _mm_min_ps(vmin1, mag);
    }
    const __m128 flip_bias = _mm_and_ps(parity, sign_mask);
    for (int j = 0; j < deg; ++j) {
      const __m128 v = _mm_loadu_ps(q + j * kBlockLanes + half);
      const __m128 mag = _mm_andnot_ps(sign_mask, v);
      const __m128 eq = _mm_cmpeq_ps(mag, vmin1);
      const __m128 sel =
          _mm_or_ps(_mm_and_ps(eq, vmin2), _mm_andnot_ps(eq, vmin1));
      const __m128 neg = _mm_and_ps(_mm_cmplt_ps(v, zero), sign_mask);
      const __m128 flip = _mm_xor_ps(neg, flip_bias);
      _mm_storeu_ps(r + j * kBlockLanes + half,
                    _mm_xor_ps(_mm_mul_ps(vscale, sel), flip));
    }
  }
}

void demap_soft_sse2(const std::complex<float>* symbols, std::size_t count,
                     const float* levels, int bits_per_dim, double sigma2,
                     float* out) {
  const std::size_t bps = 2 * std::size_t(bits_per_dim);
  const int num_levels = 1 << bits_per_dim;
  const __m128d vden = _mm_set1_pd(2.0 * sigma2);
  std::size_t s = 0;
  for (; s + 4 <= count; s += 4) {
    const float* p = reinterpret_cast<const float*>(symbols + s);
    const __m128 v0 = _mm_loadu_ps(p);      // r0 i0 r1 i1
    const __m128 v1 = _mm_loadu_ps(p + 4);  // r2 i2 r3 i3
    const __m128 dims[2] = {
        _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0)),   // re
        _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1))};  // im
    for (int dim = 0; dim < 2; ++dim) {
      const __m128 y = dims[dim];
      for (int b = 0; b < bits_per_dim; ++b) {
        __m128 best0 = _mm_set1_ps(1e30F);
        __m128 best1 = _mm_set1_ps(1e30F);
        for (int pattern = 0; pattern < num_levels; ++pattern) {
          const __m128 d =
              _mm_sub_ps(y, _mm_set1_ps(levels[std::size_t(pattern)]));
          const __m128 metric = _mm_mul_ps(d, d);
          if ((pattern >> (bits_per_dim - 1 - b)) & 1) {
            best1 = _mm_min_ps(best1, metric);
          } else {
            best0 = _mm_min_ps(best0, metric);
          }
        }
        // Replicate the scalar double-precision division exactly.
        const __m128 diff = _mm_sub_ps(best1, best0);
        const __m128d dlo = _mm_cvtps_pd(diff);
        const __m128d dhi =
            _mm_cvtps_pd(_mm_movehl_ps(diff, diff));
        const __m128 rlo = _mm_cvtpd_ps(_mm_div_pd(dlo, vden));
        const __m128 rhi = _mm_cvtpd_ps(_mm_div_pd(dhi, vden));
        alignas(16) float vals[4];
        _mm_store_ps(vals, _mm_movelh_ps(rlo, rhi));
        float* dst = out + s * bps + std::size_t(dim * bits_per_dim + b);
        dst[0 * bps] = vals[0];
        dst[1 * bps] = vals[1];
        dst[2 * bps] = vals[2];
        dst[3 * bps] = vals[3];
      }
    }
  }
  if (s < count) {
    demap_soft_scalar(symbols + s, count - s, levels, bits_per_dim, sigma2,
                      out + s * bps);
  }
}

// SSE2 has no 64-bit signed compare; the classic emulation compares the
// high dwords and borrows the 64-bit difference's sign where they tie.
// (b - a) cannot overflow when the high dwords are equal, so its sign
// bit is exact there.
inline __m128i cmpgt_epi64_sse2(__m128i a, __m128i b) {
  __m128i r = _mm_and_si128(_mm_cmpeq_epi32(a, b), _mm_sub_epi64(b, a));
  r = _mm_or_si128(r, _mm_cmpgt_epi32(a, b));
  return _mm_shuffle_epi32(r, _MM_SHUFFLE(3, 3, 1, 1));
}

std::size_t deadline_scan_sse2(const std::int64_t* deadlines, std::size_t n,
                               std::int64_t now, std::uint32_t* hits) {
  const __m128i vnow = _mm_set1_epi64x(now);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i d = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(deadlines + i));
    const unsigned m_gt = unsigned(
        _mm_movemask_pd(_mm_castsi128_pd(cmpgt_epi64_sse2(d, vnow))));
    const unsigned m_neg = unsigned(_mm_movemask_pd(_mm_castsi128_pd(d)));
    unsigned hit = ~(m_gt | m_neg) & 0x3U;
    while (hit != 0) {
      hits[count++] = std::uint32_t(i + unsigned(__builtin_ctz(hit)));
      hit &= hit - 1;
    }
  }
  for (; i < n; ++i) {
    const std::int64_t d = deadlines[i];
    if (d >= 0 && d <= now) {
      hits[count++] = std::uint32_t(i);
    }
  }
  return count;
}

// SSE2 has no 32-bit mullo: multiply the even and the odd lanes as
// 32x32->64 products and keep each product's low half. `b` is a
// broadcast, so its odd lanes need no shift.
inline __m128i mullo_epi32_sse2(__m128i a, __m128i b) {
  const __m128i even = _mm_mul_epu32(a, b);
  const __m128i odd = _mm_mul_epu32(_mm_srli_epi64(a, 32), b);
  return _mm_unpacklo_epi32(_mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
                            _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)));
}

void ue_lane_step_sse2(float* snr, std::uint32_t* lcg, float* credits,
                       const float* rate, std::size_t n, float mean,
                       float rho, float innov_scale) {
  const __m128i vmul = _mm_set1_epi32(int(kLcgMul));
  const __m128i vadd = _mm_set1_epi32(int(kLcgAdd));
  const __m128 vunit = _mm_set1_ps(kLcgUnit);
  const __m128 vone = _mm_set1_ps(1.0F);
  const __m128 vmean = _mm_set1_ps(mean);
  const __m128 vrho = _mm_set1_ps(rho);
  const __m128 vscale = _mm_set1_ps(innov_scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    auto* lanes = reinterpret_cast<__m128i*>(lcg + i);
    __m128i s = _mm_add_epi32(mullo_epi32_sse2(_mm_loadu_si128(lanes), vmul),
                              vadd);
    const __m128 u1 = _mm_mul_ps(_mm_cvtepi32_ps(_mm_srli_epi32(s, 8)), vunit);
    s = _mm_add_epi32(mullo_epi32_sse2(s, vmul), vadd);
    const __m128 u2 = _mm_mul_ps(_mm_cvtepi32_ps(_mm_srli_epi32(s, 8)), vunit);
    _mm_storeu_si128(lanes, s);
    const __m128 innov =
        _mm_mul_ps(vscale, _mm_sub_ps(_mm_add_ps(u1, u2), vone));
    const __m128 t = _mm_mul_ps(vrho, _mm_sub_ps(_mm_loadu_ps(snr + i), vmean));
    _mm_storeu_ps(snr + i, _mm_add_ps(_mm_add_ps(vmean, t), innov));
    _mm_storeu_ps(credits + i, _mm_add_ps(_mm_loadu_ps(credits + i),
                                          _mm_loadu_ps(rate + i)));
  }
  for (; i < n; ++i) {
    ue_lane_step_one(snr[i], lcg[i], credits[i], rate[i], mean, rho,
                     innov_scale);
  }
}

float peak_abs_sse2(const float* x, std::size_t n) {
  const __m128 sign_mask = _mm_set1_ps(-0.0F);
  __m128 acc = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm_max_ps(acc, _mm_andnot_ps(sign_mask, _mm_loadu_ps(x + i)));
  }
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, acc);
  float peak = std::max(std::max(lanes[0], lanes[1]),
                        std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) {
    peak = std::max(peak, std::fabs(x[i]));
  }
  return peak;
}

// Quantize two double lanes: v' = v * inv_scale (exact: power-of-two
// scale), round half-away-from-zero as trunc(v' + copysign(0.5, v')),
// clamp to [-max_m, max_m] in the double domain (so the truncating
// int conversion can never see an out-of-int32 value), and truncate.
// trunc(fl(v' + 0.5)) == lround(v') for every float-derived v' that is
// not clamped away: below the clamp bound |v'| < 2^16, where the
// addition of 0.5 is exact in double (<= 25 significant bits), and
// past it min/max pin the result to +/-max_m either way.
inline __m128i bfp_quantize_pair_sse2(__m128d v, __m128d vinv, __m128d vhalf,
                                      __m128d dsign, __m128d vmax,
                                      __m128d vmin) {
  v = _mm_mul_pd(v, vinv);
  const __m128d bias = _mm_or_pd(vhalf, _mm_and_pd(v, dsign));
  v = _mm_add_pd(v, bias);
  v = _mm_min_pd(v, vmax);
  v = _mm_max_pd(v, vmin);
  return _mm_cvttpd_epi32(v);
}

void bfp_quantize_sse2(const float* x, std::size_t n, double inv_scale,
                       std::int32_t max_m, std::int32_t* q) {
  const __m128d vinv = _mm_set1_pd(inv_scale);
  const __m128d vhalf = _mm_set1_pd(0.5);
  const __m128d dsign = _mm_set1_pd(-0.0);
  const __m128d vmax = _mm_set1_pd(double(max_m));
  const __m128d vmin = _mm_set1_pd(-double(max_m));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 f = _mm_loadu_ps(x + i);
    const __m128i lo = bfp_quantize_pair_sse2(_mm_cvtps_pd(f), vinv, vhalf,
                                              dsign, vmax, vmin);
    const __m128i hi = bfp_quantize_pair_sse2(
        _mm_cvtps_pd(_mm_movehl_ps(f, f)), vinv, vhalf, dsign, vmax, vmin);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_unpacklo_epi64(lo, hi));
  }
  if (i < n) {
    bfp_quantize_scalar(x + i, n - i, inv_scale, max_m, q + i);
  }
}

void bfp_dequantize_sse2(const std::int32_t* q, std::size_t n, float scale,
                         float* out) {
  const __m128 vscale = _mm_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    _mm_storeu_ps(out + i, _mm_mul_ps(_mm_cvtepi32_ps(v), vscale));
  }
  for (; i < n; ++i) {
    out[i] = float(q[i]) * scale;
  }
}

// Byte-aligned mantissa widths pack/unpack vectorially; other widths
// share the word-level scalar core. The saturating packs are inert:
// the quantizer already clamped values into the m-bit range.
std::size_t bfp_pack_sse2(const std::int32_t* q, std::size_t n, int m,
                          std::uint8_t* dst) {
  std::size_t i = 0;
  if (m == 8) {
    for (; i + 8 <= n; i += 8) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i + 4));
      const __m128i w = _mm_packs_epi32(a, b);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                       _mm_packs_epi16(w, w));
    }
    for (; i < n; ++i) {
      dst[i] = std::uint8_t(std::uint32_t(q[i]) & 0xFFU);
    }
    return n;
  }
  if (m == 16) {
    for (; i + 4 <= n; i += 4) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
      __m128i w = _mm_packs_epi32(a, a);
      // Big-endian within each 16-bit mantissa (MSB-first stream).
      w = _mm_or_si128(_mm_slli_epi16(w, 8), _mm_srli_epi16(w, 8));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + 2 * i), w);
    }
    for (; i < n; ++i) {
      const auto v = std::uint32_t(q[i]);
      dst[2 * i] = std::uint8_t(v >> 8);
      dst[2 * i + 1] = std::uint8_t(v);
    }
    return 2 * n;
  }
  return bfp_pack_scalar(q, n, m, dst);
}

void bfp_unpack_sse2(const std::uint8_t* src, std::size_t n, int m,
                     std::int32_t* q) {
  std::size_t i = 0;
  if (m == 8) {
    for (; i + 8 <= n; i += 8) {
      const __m128i b =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
      const __m128i w = _mm_srai_epi16(_mm_unpacklo_epi8(b, b), 8);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                       _mm_srai_epi32(_mm_unpacklo_epi16(w, w), 16));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i + 4),
                       _mm_srai_epi32(_mm_unpackhi_epi16(w, w), 16));
    }
    for (; i < n; ++i) {
      q[i] = std::int32_t(std::int8_t(src[i]));
    }
    return;
  }
  if (m == 16) {
    for (; i + 4 <= n; i += 4) {
      __m128i w =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + 2 * i));
      w = _mm_or_si128(_mm_slli_epi16(w, 8), _mm_srli_epi16(w, 8));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                       _mm_srai_epi32(_mm_unpacklo_epi16(w, w), 16));
    }
    for (; i < n; ++i) {
      const auto hi = std::uint32_t(src[2 * i]);
      const auto lo = std::uint32_t(src[2 * i + 1]);
      q[i] = std::int32_t(std::int16_t((hi << 8) | lo));
    }
    return;
  }
  bfp_unpack_scalar(src, n, m, q);
}

// SSE2 has no gather, so the variable-node update and the block parity
// stay scalar there.
constexpr Kernels kSse2Kernels{
    cn_minsum_block_sse2, vn_update_scalar,    block_parity_ok_scalar,
    demap_soft_sse2,      deadline_scan_sse2,  ue_lane_step_sse2,
    peak_abs_sse2,        bfp_quantize_sse2,   bfp_dequantize_sse2,
    bfp_pack_sse2,        bfp_unpack_sse2};

// ---------------------------------------------------------------------
// AVX2.
//
// A kernel that hands its tail to a scalar helper calls
// _mm256_zeroupper() first: GCC 12 does not reliably emit vzeroupper
// before such a call (nor before the return after it), and upper YMM
// state left dirty slows every legacy-SSE instruction the rest of the
// program runs afterwards. A unit test checks every kernel:
// SimdKernels.Avx2KernelsReturnWithUpperYmmStateClean.
// ---------------------------------------------------------------------

// One register per block row; as in the SSE2 kernel, the lane-wise
// two smallest are each check's (min1, min2).
__attribute__((target("avx2"))) void cn_minsum_block_avx2(const float* q,
                                                          float* r, int deg,
                                                          float scale) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0F);
  const __m256 zero = _mm256_setzero_ps();
  __m256 vmin1 = _mm256_set1_ps(kBlockPad);
  __m256 vmin2 = vmin1;
  __m256 parity = zero;
  for (int j = 0; j < deg; ++j) {
    const __m256 v = _mm256_loadu_ps(q + j * kBlockLanes);
    const __m256 mag = _mm256_andnot_ps(sign_mask, v);
    parity = _mm256_xor_ps(parity, _mm256_cmp_ps(v, zero, _CMP_LT_OQ));
    vmin2 = _mm256_min_ps(vmin2, _mm256_max_ps(vmin1, mag));
    vmin1 = _mm256_min_ps(vmin1, mag);
  }
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 flip_bias = _mm256_and_ps(parity, sign_mask);
  for (int j = 0; j < deg; ++j) {
    const __m256 v = _mm256_loadu_ps(q + j * kBlockLanes);
    const __m256 mag = _mm256_andnot_ps(sign_mask, v);
    const __m256 eq = _mm256_cmp_ps(mag, vmin1, _CMP_EQ_OQ);
    const __m256 sel = _mm256_blendv_ps(vmin1, vmin2, eq);
    const __m256 neg =
        _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ), sign_mask);
    const __m256 flip = _mm256_xor_ps(neg, flip_bias);
    _mm256_storeu_ps(r + j * kBlockLanes,
                     _mm256_xor_ps(_mm256_mul_ps(vscale, sel), flip));
  }
}

// Eight variables per pass: gather each edge's incoming message, add in
// edge order (one vaddps per edge is the scalar left-to-right sum,
// lane-wise), then scatter sum - c2v through a stack buffer, since
// AVX2 has no scatter. The partial last group runs the scalar loop.
__attribute__((target("avx2"))) void vn_update_avx2(
    const float* llr, int n, int w, const std::int32_t* slots,
    const float* c2v, float* v2c, float* total) {
  const int full = n - n % kBlockLanes;
  for (int v = 0; v < full; v += kBlockLanes) {
    const std::int32_t* group = slots + std::size_t(v) * std::size_t(w);
    __m256 sum = _mm256_loadu_ps(llr + v);
    for (int i = 0; i < w; ++i) {
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(group + i * kBlockLanes));
      sum = _mm256_add_ps(sum, _mm256_i32gather_ps(c2v, idx, 4));
    }
    _mm256_storeu_ps(total + v, sum);
    for (int i = 0; i < w; ++i) {
      const std::int32_t* idx = group + i * kBlockLanes;
      const __m256 in = _mm256_i32gather_ps(
          c2v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), 4);
      alignas(32) float out[kBlockLanes];
      _mm256_store_ps(out, _mm256_sub_ps(sum, in));
      for (int lane = 0; lane < kBlockLanes; ++lane) {
        v2c[idx[lane]] = out[lane];
      }
    }
  }
  // `full` is a group boundary, so the tail's slot table starts there.
  _mm256_zeroupper();
  vn_update_scalar(llr + full, n - full, w,
                   slots + std::size_t(full) * std::size_t(w), c2v, v2c,
                   total + full);
}

__attribute__((target("avx2"))) bool block_parity_ok_avx2(
    const float* total, const std::int32_t* vars, int deg) {
  const __m256 zero = _mm256_setzero_ps();
  __m256 parity = zero;
  for (int j = 0; j < deg; ++j) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(vars + j * kBlockLanes));
    parity = _mm256_xor_ps(
        parity,
        _mm256_cmp_ps(_mm256_i32gather_ps(total, idx, 4), zero, _CMP_LT_OQ));
  }
  return _mm256_movemask_ps(parity) == 0;
}

__attribute__((target("avx2"))) void demap_soft_avx2(
    const std::complex<float>* symbols, std::size_t count,
    const float* levels, int bits_per_dim, double sigma2, float* out) {
  const std::size_t bps = 2 * std::size_t(bits_per_dim);
  const int num_levels = 1 << bits_per_dim;
  const __m256d vden = _mm256_set1_pd(2.0 * sigma2);
  std::size_t s = 0;
  for (; s + 8 <= count; s += 8) {
    const float* p = reinterpret_cast<const float*>(symbols + s);
    const __m256 v0 = _mm256_loadu_ps(p);      // r0 i0 r1 i1 | r2 i2 r3 i3
    const __m256 v1 = _mm256_loadu_ps(p + 8);  // r4 i4 r5 i5 | r6 i6 r7 i7
    const __m256 t0 = _mm256_permute2f128_ps(v0, v1, 0x20);
    const __m256 t1 = _mm256_permute2f128_ps(v0, v1, 0x31);
    const __m256 dims[2] = {
        _mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(2, 0, 2, 0)),   // re
        _mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(3, 1, 3, 1))};  // im
    for (int dim = 0; dim < 2; ++dim) {
      const __m256 y = dims[dim];
      for (int b = 0; b < bits_per_dim; ++b) {
        __m256 best0 = _mm256_set1_ps(1e30F);
        __m256 best1 = _mm256_set1_ps(1e30F);
        for (int pattern = 0; pattern < num_levels; ++pattern) {
          const __m256 d =
              _mm256_sub_ps(y, _mm256_set1_ps(levels[std::size_t(pattern)]));
          const __m256 metric = _mm256_mul_ps(d, d);
          if ((pattern >> (bits_per_dim - 1 - b)) & 1) {
            best1 = _mm256_min_ps(best1, metric);
          } else {
            best0 = _mm256_min_ps(best0, metric);
          }
        }
        const __m256 diff = _mm256_sub_ps(best1, best0);
        const __m256d dlo = _mm256_cvtps_pd(_mm256_castps256_ps128(diff));
        const __m256d dhi = _mm256_cvtps_pd(_mm256_extractf128_ps(diff, 1));
        const __m128 rlo = _mm256_cvtpd_ps(_mm256_div_pd(dlo, vden));
        const __m128 rhi = _mm256_cvtpd_ps(_mm256_div_pd(dhi, vden));
        alignas(32) float vals[8];
        _mm_store_ps(vals, rlo);
        _mm_store_ps(vals + 4, rhi);
        float* dst = out + s * bps + std::size_t(dim * bits_per_dim + b);
        for (int lane = 0; lane < 8; ++lane) {
          dst[std::size_t(lane) * bps] = vals[std::size_t(lane)];
        }
      }
    }
  }
  if (s < count) {
    _mm256_zeroupper();
    demap_soft_scalar(symbols + s, count - s, levels, bits_per_dim, sigma2,
                      out + s * bps);
  }
}

__attribute__((target("avx2"))) std::size_t deadline_scan_avx2(
    const std::int64_t* deadlines, std::size_t n, std::int64_t now,
    std::uint32_t* hits) {
  const __m256i vnow = _mm256_set1_epi64x(now);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(deadlines + i));
    const unsigned m_gt = unsigned(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(d, vnow))));
    const unsigned m_neg =
        unsigned(_mm256_movemask_pd(_mm256_castsi256_pd(d)));
    unsigned hit = ~(m_gt | m_neg) & 0xFU;
    while (hit != 0) {
      hits[count++] = std::uint32_t(i + unsigned(__builtin_ctz(hit)));
      hit &= hit - 1;
    }
  }
  for (; i < n; ++i) {
    const std::int64_t d = deadlines[i];
    if (d >= 0 && d <= now) {
      hits[count++] = std::uint32_t(i);
    }
  }
  return count;
}

// Explicit mul + add throughout (no FMA) to stay bit-exact with the
// scalar form.
__attribute__((target("avx2"))) void ue_lane_step_avx2(
    float* snr, std::uint32_t* lcg, float* credits, const float* rate,
    std::size_t n, float mean, float rho, float innov_scale) {
  const __m256i vmul = _mm256_set1_epi32(int(kLcgMul));
  const __m256i vadd = _mm256_set1_epi32(int(kLcgAdd));
  const __m256 vunit = _mm256_set1_ps(kLcgUnit);
  const __m256 vone = _mm256_set1_ps(1.0F);
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vrho = _mm256_set1_ps(rho);
  const __m256 vscale = _mm256_set1_ps(innov_scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    auto* lanes = reinterpret_cast<__m256i*>(lcg + i);
    __m256i s = _mm256_add_epi32(
        _mm256_mullo_epi32(_mm256_loadu_si256(lanes), vmul), vadd);
    const __m256 u1 =
        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(s, 8)), vunit);
    s = _mm256_add_epi32(_mm256_mullo_epi32(s, vmul), vadd);
    const __m256 u2 =
        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(s, 8)), vunit);
    _mm256_storeu_si256(lanes, s);
    const __m256 innov =
        _mm256_mul_ps(vscale, _mm256_sub_ps(_mm256_add_ps(u1, u2), vone));
    const __m256 t =
        _mm256_mul_ps(vrho, _mm256_sub_ps(_mm256_loadu_ps(snr + i), vmean));
    _mm256_storeu_ps(snr + i, _mm256_add_ps(_mm256_add_ps(vmean, t), innov));
    _mm256_storeu_ps(credits + i, _mm256_add_ps(_mm256_loadu_ps(credits + i),
                                                _mm256_loadu_ps(rate + i)));
  }
  for (; i < n; ++i) {
    ue_lane_step_one(snr[i], lcg[i], credits[i], rate[i], mean, rho,
                     innov_scale);
  }
}

__attribute__((target("avx2"))) float peak_abs_avx2(const float* x,
                                                    std::size_t n) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0F);
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_max_ps(acc,
                        _mm256_andnot_ps(sign_mask, _mm256_loadu_ps(x + i)));
  }
  const __m128 folded = _mm_max_ps(_mm256_castps256_ps128(acc),
                                   _mm256_extractf128_ps(acc, 1));
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, folded);
  float peak = std::max(std::max(lanes[0], lanes[1]),
                        std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) {
    peak = std::max(peak, std::fabs(x[i]));
  }
  return peak;
}

// Same exactness argument as the SSE2 pair helper: power-of-two scale,
// exact +0.5 bias in double below the clamp bound, double-domain clamp
// before the truncating conversion.
__attribute__((target("avx2"))) inline __m128i bfp_quantize_quad_avx2(
    __m256d v, __m256d vinv, __m256d vhalf, __m256d dsign, __m256d vmax,
    __m256d vmin) {
  v = _mm256_mul_pd(v, vinv);
  const __m256d bias = _mm256_or_pd(vhalf, _mm256_and_pd(v, dsign));
  v = _mm256_add_pd(v, bias);
  v = _mm256_min_pd(v, vmax);
  v = _mm256_max_pd(v, vmin);
  return _mm256_cvttpd_epi32(v);
}

__attribute__((target("avx2"))) void bfp_quantize_avx2(
    const float* x, std::size_t n, double inv_scale, std::int32_t max_m,
    std::int32_t* q) {
  const __m256d vinv = _mm256_set1_pd(inv_scale);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  const __m256d dsign = _mm256_set1_pd(-0.0);
  const __m256d vmax = _mm256_set1_pd(double(max_m));
  const __m256d vmin = _mm256_set1_pd(-double(max_m));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm256_loadu_ps(x + i);
    const __m128i lo = bfp_quantize_quad_avx2(
        _mm256_cvtps_pd(_mm256_castps256_ps128(f)), vinv, vhalf, dsign, vmax,
        vmin);
    const __m128i hi = bfp_quantize_quad_avx2(
        _mm256_cvtps_pd(_mm256_extractf128_ps(f, 1)), vinv, vhalf, dsign,
        vmax, vmin);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                        _mm256_set_m128i(hi, lo));
  }
  if (i < n) {
    _mm256_zeroupper();
    bfp_quantize_scalar(x + i, n - i, inv_scale, max_m, q + i);
  }
}

__attribute__((target("avx2"))) void bfp_dequantize_avx2(
    const std::int32_t* q, std::size_t n, float scale, float* out) {
  const __m256 vscale = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_cvtepi32_ps(v), vscale));
  }
  for (; i < n; ++i) {
    out[i] = float(q[i]) * scale;
  }
}

__attribute__((target("avx2"))) std::size_t bfp_pack_avx2(
    const std::int32_t* q, std::size_t n, int m, std::uint8_t* dst) {
  std::size_t i = 0;
  if (m == 8) {
    for (; i + 8 <= n; i += 8) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i + 4));
      const __m128i w = _mm_packs_epi32(a, b);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                       _mm_packs_epi16(w, w));
    }
    for (; i < n; ++i) {
      dst[i] = std::uint8_t(std::uint32_t(q[i]) & 0xFFU);
    }
    return n;
  }
  if (m == 16) {
    for (; i + 8 <= n; i += 8) {
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
      // packs interleaves 128-bit halves; permute restores order.
      __m128i w = _mm256_castsi256_si128(_mm256_permute4x64_epi64(
          _mm256_packs_epi32(a, a), _MM_SHUFFLE(3, 1, 2, 0)));
      w = _mm_or_si128(_mm_slli_epi16(w, 8), _mm_srli_epi16(w, 8));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * i), w);
    }
    for (; i < n; ++i) {
      const auto v = std::uint32_t(q[i]);
      dst[2 * i] = std::uint8_t(v >> 8);
      dst[2 * i + 1] = std::uint8_t(v);
    }
    return 2 * n;
  }
  _mm256_zeroupper();
  return bfp_pack_scalar(q, n, m, dst);
}

__attribute__((target("avx2"))) void bfp_unpack_avx2(const std::uint8_t* src,
                                                     std::size_t n, int m,
                                                     std::int32_t* q) {
  std::size_t i = 0;
  if (m == 8) {
    for (; i + 8 <= n; i += 8) {
      const __m128i b =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                          _mm256_cvtepi8_epi32(b));
    }
    for (; i < n; ++i) {
      q[i] = std::int32_t(std::int8_t(src[i]));
    }
    return;
  }
  if (m == 16) {
    for (; i + 8 <= n; i += 8) {
      __m128i w =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 2 * i));
      w = _mm_or_si128(_mm_slli_epi16(w, 8), _mm_srli_epi16(w, 8));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                          _mm256_cvtepi16_epi32(w));
    }
    for (; i < n; ++i) {
      const auto hi = std::uint32_t(src[2 * i]);
      const auto lo = std::uint32_t(src[2 * i + 1]);
      q[i] = std::int32_t(std::int16_t((hi << 8) | lo));
    }
    return;
  }
  _mm256_zeroupper();
  bfp_unpack_scalar(src, n, m, q);
}

constexpr Kernels kAvx2Kernels{
    cn_minsum_block_avx2, vn_update_avx2,      block_parity_ok_avx2,
    demap_soft_avx2,      deadline_scan_avx2,  ue_lane_step_avx2,
    peak_abs_avx2,        bfp_quantize_avx2,   bfp_dequantize_avx2,
    bfp_pack_avx2,        bfp_unpack_avx2};

#endif  // SLINGSHOT_SIMD_X86

Level detect_level() {
#if SLINGSHOT_SIMD_X86
  Level best = Level::kSse2;  // x86-64 baseline
  if (__builtin_cpu_supports("avx2")) {
    best = Level::kAvx2;
  }
  const char* override_name = std::getenv("SLINGSHOT_SIMD");
  if (override_name != nullptr) {
    if (std::strcmp(override_name, "scalar") == 0) {
      return Level::kScalar;
    }
    if (std::strcmp(override_name, "sse2") == 0) {
      return Level::kSse2;
    }
    if (std::strcmp(override_name, "avx2") == 0 && best == Level::kAvx2) {
      return Level::kAvx2;
    }
    // Unknown or unsupported override: fall through to autodetect.
  }
  return best;
#else
  return Level::kScalar;
#endif
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
  }
  return "?";
}

bool level_supported(Level level) {
#if SLINGSHOT_SIMD_X86
  if (level == Level::kAvx2) {
    return __builtin_cpu_supports("avx2") != 0;
  }
  return true;
#else
  return level == Level::kScalar;
#endif
}

const Kernels& kernels_for(Level level) {
#if SLINGSHOT_SIMD_X86
  switch (level) {
    case Level::kScalar: return kScalarKernels;
    case Level::kSse2: return kSse2Kernels;
    case Level::kAvx2:
      if (level_supported(Level::kAvx2)) {
        return kAvx2Kernels;
      }
      return kScalarKernels;
  }
#endif
  return kScalarKernels;
}

Level active_level() {
  static const Level level = detect_level();
  return level;
}

const Kernels& kernels() {
  static const Kernels& active = kernels_for(active_level());
  return active;
}

}  // namespace slingshot::simd
