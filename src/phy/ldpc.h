// LDPC forward error correction.
//
// A regular Gallager LDPC code (column weight 3, rate ~1/2) with a
// systematic GF(2) encoder derived by Gaussian elimination and a
// normalized min-sum belief-propagation decoder. The decoder's maximum
// iteration count is a runtime knob — the paper's live-upgrade
// experiment (§8.3, Fig 11) upgrades the PHY to "more FEC iterations for
// decoding the signal", and with a real BP decoder iteration count
// genuinely moves the decoding threshold.
//
// The decoder runs the flooding schedule — all check nodes update, then
// all variable nodes — and its arithmetic is bit-identical across
// refactors, which the golden-trace determinism test relies on. It is
// check-block batched: checks are grouped into blocks of
// simd::kBlockLanes, messages are stored slot-major ([block][slot j]
// [lane], unused lanes and slots padded with the neutral
// simd::kBlockPad), one cn_minsum_block call updates a whole block with
// contiguous loads, and one vn_update call sums each variable's incoming
// messages in its original edge order (float order is what keeps the
// result exact). Parity is recomputed from the hard decisions after each
// iteration, block by block, stopping at the first block with an
// unsatisfied check.
//
// The hot decode path is allocation-free: callers own a reusable
// DecodeWorkspace whose buffers amortize to zero heap traffic, and the
// Tanner graph is stored as flat SoA edge arrays rather than
// vector<vector<int>> adjacency.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"

namespace slingshot {

namespace simd {
struct Kernels;
}  // namespace simd

class LdpcCode {
 public:
  // Build a pseudo-random regular code: n coded bits, m = n - k checks,
  // column weight `wc`. Deterministic for a given seed.
  LdpcCode(int n, int m, std::uint64_t seed, int wc = 3);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int num_checks() const { return m_; }
  [[nodiscard]] int num_edges() const { return num_edges_; }

  // Encode k info bits into an n-bit codeword (values 0/1).
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> info_bits) const;

  // Extract the k info bits from a (decoded) codeword.
  [[nodiscard]] std::vector<std::uint8_t> extract_info(
      std::span<const std::uint8_t> codeword) const;
  // Non-allocating variant (resizes `out` to k).
  void extract_info_into(std::span<const std::uint8_t> codeword,
                         std::vector<std::uint8_t>& out) const;

  struct DecodeResult {
    std::vector<std::uint8_t> codeword;  // hard decisions, n bits
    bool parity_ok = false;              // all checks satisfied
    int iterations_used = 0;
  };

  // Caller-owned scratch buffers for decode_into(). Reusing one
  // workspace across decodes makes the decode loop allocation-free
  // (asserted by a counting-allocator test). The decoded hard decisions
  // land in `codeword`.
  struct DecodeWorkspace {
    std::vector<std::uint8_t> codeword;   // n hard decisions (output)
    std::vector<float> var_to_check;      // v->c messages, block layout
    std::vector<float> check_to_var;      // c->v messages, block layout
    std::vector<float> posterior;         // per-variable posterior LLR
  };

  struct DecodeStatus {
    bool parity_ok = false;
    int iterations_used = 0;
  };

  // Normalized min-sum BP decode from channel LLRs (positive = bit 0).
  // Hard decisions are written to ws.codeword. Zero heap allocations
  // once the workspace has warmed up to this code's dimensions.
  DecodeStatus decode_into(std::span<const float> llr, int max_iterations,
                           DecodeWorkspace& ws) const;
  // Same decode on an explicit kernel table instead of the dispatched
  // simd::kernels(), so parity tests can pin every SIMD level.
  DecodeStatus decode_into(std::span<const float> llr, int max_iterations,
                           DecodeWorkspace& ws,
                           const simd::Kernels& kernels) const;

  // Convenience wrapper around decode_into() that returns an owned
  // codeword (message buffers come from a thread-local workspace).
  [[nodiscard]] DecodeResult decode(std::span<const float> llr,
                                    int max_iterations) const;

  [[nodiscard]] bool check_parity(std::span<const std::uint8_t> cw) const;

  // Read-only view of the Tanner graph's flat edge numbering, for
  // reference decoders: check c owns edges [check_edge_offset[c],
  // check_edge_offset[c+1]) touching variables edge_var[e]; variable v
  // lists its edge ids at var_edges[var_edge_offset[v] ..
  // var_edge_offset[v+1]), in the order its messages are summed.
  struct Graph {
    std::span<const int> check_edge_offset;
    std::span<const int> edge_var;
    std::span<const int> var_edge_offset;
    std::span<const int> var_edges;
  };
  [[nodiscard]] Graph graph() const {
    return {check_edge_offset_, edge_var_, var_edge_offset_, var_edges_};
  }

  // The codebase-wide default code: n = 648, rate 1/2 — one
  // representative codeword per transport block.
  static const LdpcCode& standard();

 private:
  int n_;
  int m_;
  int k_;
  // Flat SoA Tanner graph. Edges are numbered by (check, position):
  // check c owns edges [check_edge_offset_[c], check_edge_offset_[c+1]).
  std::vector<int> check_edge_offset_;  // m+1 offsets into edge arrays
  std::vector<int> edge_var_;           // variable at each edge (by check)
  std::vector<int> var_edge_offset_;    // n+1 offsets into var_edges_
  std::vector<int> var_edges_;          // edge ids touching each variable
  int num_edges_ = 0;
  int column_weight_ = 0;
  // Flooding check-block layout. Block b holds checks
  // [b * kBlockLanes, (b + 1) * kBlockLanes) in slots [block_slot_[b],
  // block_slot_[b+1]) — as many as its highest check degree — and the
  // message of (slot s, lane l) lives at s * kBlockLanes + l. var_slots_
  // is simd::Kernels::vn_update's table of each variable's message
  // indices, in var_edges_ order; msg_var_ maps each message back to its
  // variable, padding to n (the workspace's pad entry past the last
  // variable).
  std::vector<int> block_slot_;
  std::vector<std::int32_t> var_slots_;
  std::vector<std::int32_t> msg_var_;
  // Systematic encoder: after RREF, pivot (parity) columns and the
  // info columns, plus per-parity-row masks over info bits.
  std::vector<int> info_cols_;
  std::vector<int> parity_cols_;           // pivot column of each kept row
  std::vector<BitVector> parity_masks_;    // over info-bit indices
};

}  // namespace slingshot
