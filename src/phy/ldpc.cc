#include "phy/ldpc.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

#include "phy/simd.h"

namespace slingshot {
namespace {
constexpr float kMinSumScale = 0.8F;  // normalized min-sum correction
}  // namespace

LdpcCode::LdpcCode(int n, int m, std::uint64_t seed, int wc)
    : n_(n), m_(m), k_(0) {
  if (n <= 0 || m <= 0 || m >= n || wc < 2) {
    throw std::invalid_argument{"LdpcCode: bad parameters"};
  }
  std::mt19937_64 rng{seed};

  // --- Build a (near-)regular parity-check matrix via the permutation
  // construction: each of the n*wc column sockets is matched to a check
  // socket; checks get degree ~ n*wc/m.
  const int total_edges = n * wc;
  std::vector<int> sockets;
  sockets.reserve(std::size_t(total_edges));
  for (int e = 0; e < total_edges; ++e) {
    sockets.push_back(e % m);
  }
  std::shuffle(sockets.begin(), sockets.end(), rng);

  std::vector<std::vector<int>> col_rows{std::size_t(n)};
  int cursor = 0;
  for (int c = 0; c < n; ++c) {
    auto& rows = col_rows[std::size_t(c)];
    for (int j = 0; j < wc; ++j) {
      int row = sockets[std::size_t(cursor + j)];
      // Resolve duplicates within a column by swapping with a random
      // later socket (keeps the degree distribution intact).
      int guard = 0;
      while (std::find(rows.begin(), rows.end(), row) != rows.end() &&
             guard < 64) {
        const auto swap_with =
            cursor + wc +
            int(rng() % std::uint64_t(std::max(1, total_edges - cursor - wc)));
        if (swap_with < total_edges) {
          std::swap(sockets[std::size_t(cursor + j)],
                    sockets[std::size_t(swap_with)]);
          row = sockets[std::size_t(cursor + j)];
        }
        ++guard;
      }
      rows.push_back(row);
    }
    cursor += wc;
  }

  // Per-check variable lists (construction scratch; the decoder works
  // off the flat SoA arrays built below).
  std::vector<std::vector<int>> check_vars{std::size_t(m)};
  for (int c = 0; c < n; ++c) {
    for (const int row : col_rows[std::size_t(c)]) {
      check_vars[std::size_t(row)].push_back(c);
    }
  }

  // Flatten the Tanner graph into SoA edge arrays: edges numbered by
  // (check, position), plus per-variable edge-id lists and the reverse
  // edge->check map the check-block layout below is built from.
  check_edge_offset_.assign(std::size_t(m) + 1, 0);
  for (int c = 0; c < m; ++c) {
    check_edge_offset_[std::size_t(c) + 1] =
        check_edge_offset_[std::size_t(c)] +
        int(check_vars[std::size_t(c)].size());
  }
  num_edges_ = check_edge_offset_[std::size_t(m)];
  edge_var_.resize(std::size_t(num_edges_));
  std::vector<int> edge_check(static_cast<std::size_t>(num_edges_));
  std::vector<int> var_degree(std::size_t(n), 0);
  for (int c = 0; c < m; ++c) {
    const auto& vars = check_vars[std::size_t(c)];
    const int base = check_edge_offset_[std::size_t(c)];
    for (std::size_t j = 0; j < vars.size(); ++j) {
      edge_var_[std::size_t(base) + j] = vars[j];
      edge_check[std::size_t(base) + j] = c;
      ++var_degree[std::size_t(vars[j])];
    }
  }
  var_edge_offset_.assign(std::size_t(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    var_edge_offset_[std::size_t(v) + 1] =
        var_edge_offset_[std::size_t(v)] + var_degree[std::size_t(v)];
  }
  var_edges_.resize(std::size_t(num_edges_));
  std::vector<int> cursor_of_var(var_edge_offset_.begin(),
                                 var_edge_offset_.end() - 1);
  // Second pass in the same (check, position) order as the old
  // vector<vector> build, so each variable sees its edges in an
  // identical order — the flooding schedule's float-summation order
  // (and thus every decode outcome) is unchanged.
  for (int e = 0; e < num_edges_; ++e) {
    var_edges_[std::size_t(cursor_of_var[std::size_t(edge_var_[std::size_t(
        e)])]++)] = e;
  }

  // Check-block layout for the batched flooding decoder. Every column
  // gets exactly wc edges above (a duplicate the guard could not
  // resolve is kept as two edges), which is vn_update's fixed weight.
  column_weight_ = wc;
  constexpr int kLanes = simd::kBlockLanes;
  const int num_blocks = (m + kLanes - 1) / kLanes;
  block_slot_.assign(std::size_t(num_blocks) + 1, 0);
  for (int b = 0; b < num_blocks; ++b) {
    int slots = 0;
    for (int c = b * kLanes; c < std::min(m, (b + 1) * kLanes); ++c) {
      slots = std::max(slots, int(check_vars[std::size_t(c)].size()));
    }
    block_slot_[std::size_t(b) + 1] = block_slot_[std::size_t(b)] + slots;
  }
  var_slots_.assign(std::size_t((n + kLanes - 1) / kLanes * wc * kLanes), 0);
  msg_var_.assign(std::size_t(block_slot_.back()) * kLanes, n);
  for (int v = 0; v < n; ++v) {
    for (int i = 0; i < wc; ++i) {
      const int e =
          var_edges_[std::size_t(var_edge_offset_[std::size_t(v)] + i)];
      const int c = edge_check[std::size_t(e)];
      const int slot = block_slot_[std::size_t(c / kLanes)] +
                       (e - check_edge_offset_[std::size_t(c)]);
      const int msg = slot * kLanes + c % kLanes;
      var_slots_[simd::vn_slot(v, i, wc)] = msg;
      msg_var_[std::size_t(msg)] = v;
    }
  }

  // --- Derive a systematic encoder by Gaussian elimination (RREF) on a
  // dense copy of H. Pivot columns become parity positions.
  std::vector<BitVector> rows(static_cast<std::size_t>(m),
                              BitVector(static_cast<std::size_t>(n)));
  for (int c = 0; c < m; ++c) {
    for (const int v : check_vars[std::size_t(c)]) {
      rows[std::size_t(c)].flip(std::size_t(v));  // flip handles dup edges
    }
  }

  std::vector<bool> is_pivot_col(std::size_t(n), false);
  std::vector<int> pivot_col_of_row;
  int rank = 0;
  for (int col = n - 1; col >= 0 && rank < m; --col) {
    // Pivot from the high columns so low columns stay as info positions.
    int pivot_row = -1;
    for (int r = rank; r < m; ++r) {
      if (rows[std::size_t(r)].get(std::size_t(col))) {
        pivot_row = r;
        break;
      }
    }
    if (pivot_row < 0) {
      continue;
    }
    std::swap(rows[std::size_t(rank)], rows[std::size_t(pivot_row)]);
    for (int r = 0; r < m; ++r) {
      if (r != rank && rows[std::size_t(r)].get(std::size_t(col))) {
        rows[std::size_t(r)] ^= rows[std::size_t(rank)];
      }
    }
    is_pivot_col[std::size_t(col)] = true;
    pivot_col_of_row.push_back(col);
    ++rank;
  }

  info_cols_.clear();
  for (int c = 0; c < n; ++c) {
    if (!is_pivot_col[std::size_t(c)]) {
      info_cols_.push_back(c);
    }
  }
  k_ = int(info_cols_.size());

  // Map each kept row to a parity equation over info-bit indices.
  std::vector<int> info_index_of_col(std::size_t(n), -1);
  for (std::size_t i = 0; i < info_cols_.size(); ++i) {
    info_index_of_col[std::size_t(info_cols_[i])] = int(i);
  }
  parity_cols_ = pivot_col_of_row;
  parity_masks_.clear();
  parity_masks_.reserve(std::size_t(rank));
  for (int r = 0; r < rank; ++r) {
    BitVector mask(static_cast<std::size_t>(k_));
    for (int c = 0; c < n; ++c) {
      if (c != parity_cols_[std::size_t(r)] &&
          rows[std::size_t(r)].get(std::size_t(c))) {
        const int idx = info_index_of_col[std::size_t(c)];
        if (idx < 0) {
          throw std::logic_error{"LdpcCode: non-pivot RREF residue"};
        }
        mask.flip(std::size_t(idx));
      }
    }
    parity_masks_.push_back(std::move(mask));
  }
}

std::vector<std::uint8_t> LdpcCode::encode(
    std::span<const std::uint8_t> info_bits) const {
  if (int(info_bits.size()) != k_) {
    throw std::invalid_argument{"LdpcCode::encode: wrong info length"};
  }
  BitVector u(static_cast<std::size_t>(k_));
  for (int i = 0; i < k_; ++i) {
    if (info_bits[std::size_t(i)] & 1U) {
      u.set(std::size_t(i), true);
    }
  }
  std::vector<std::uint8_t> cw(std::size_t(n_), 0);
  for (int i = 0; i < k_; ++i) {
    cw[std::size_t(info_cols_[std::size_t(i)])] = info_bits[std::size_t(i)] & 1U;
  }
  for (std::size_t r = 0; r < parity_masks_.size(); ++r) {
    cw[std::size_t(parity_cols_[r])] =
        parity_masks_[r].dot(u) ? 1 : 0;
  }
  return cw;
}

std::vector<std::uint8_t> LdpcCode::extract_info(
    std::span<const std::uint8_t> codeword) const {
  std::vector<std::uint8_t> info;
  extract_info_into(codeword, info);
  return info;
}

void LdpcCode::extract_info_into(std::span<const std::uint8_t> codeword,
                                 std::vector<std::uint8_t>& out) const {
  out.resize(static_cast<std::size_t>(k_));
  for (int i = 0; i < k_; ++i) {
    out[std::size_t(i)] = codeword[std::size_t(info_cols_[std::size_t(i)])] & 1U;
  }
}

bool LdpcCode::check_parity(std::span<const std::uint8_t> cw) const {
  for (int c = 0; c < m_; ++c) {
    unsigned parity = 0;
    for (int e = check_edge_offset_[std::size_t(c)];
         e < check_edge_offset_[std::size_t(c) + 1]; ++e) {
      parity ^= cw[std::size_t(edge_var_[std::size_t(e)])] & 1U;
    }
    if (parity != 0) {
      return false;
    }
  }
  return true;
}

LdpcCode::DecodeStatus LdpcCode::decode_into(std::span<const float> llr,
                                             int max_iterations,
                                             DecodeWorkspace& ws) const {
  // SIMD-dispatched kernels; bit-exact against the scalar reference at
  // every level (see phy/simd.h), so decode outcomes — and the golden
  // trace that pins them — don't depend on the CPU.
  return decode_into(llr, max_iterations, ws, simd::kernels());
}

LdpcCode::DecodeStatus LdpcCode::decode_into(
    std::span<const float> llr, int max_iterations, DecodeWorkspace& ws,
    const simd::Kernels& kernels) const {
  if (int(llr.size()) != n_) {
    throw std::invalid_argument{"LdpcCode::decode: wrong LLR length"};
  }
  ws.codeword.assign(std::size_t(n_), 0);

  // Check-block batched flooding. posterior[n] is the pad entry that
  // msg_var_ names for padding messages: it seeds them with the neutral
  // kBlockPad, which vn_update (writing real edges' slots only) never
  // overwrites, and as a positive total it is parity neutral too.
  constexpr int kLanes = simd::kBlockLanes;
  const std::size_t num_msgs = msg_var_.size();
  ws.posterior.resize(std::size_t(n_) + 1);
  std::copy(llr.begin(), llr.end(), ws.posterior.begin());
  ws.posterior[std::size_t(n_)] = simd::kBlockPad;
  ws.var_to_check.resize(num_msgs);
  ws.check_to_var.resize(num_msgs);
  for (std::size_t s = 0; s < num_msgs; ++s) {
    ws.var_to_check[s] = ws.posterior[std::size_t(msg_var_[s])];
  }

  const auto all_checks_met = [&] {
    for (std::size_t b = 0; b + 1 < block_slot_.size(); ++b) {
      if (!kernels.block_parity_ok(
              ws.posterior.data(),
              &msg_var_[std::size_t(block_slot_[b]) * kLanes],
              block_slot_[b + 1] - block_slot_[b])) {
        return false;
      }
    }
    return true;
  };
  DecodeStatus status;
  for (int iter = 1; iter <= max_iterations && !status.parity_ok; ++iter) {
    for (std::size_t b = 0; b + 1 < block_slot_.size(); ++b) {
      const auto base = std::size_t(block_slot_[b]) * kLanes;
      kernels.cn_minsum_block(&ws.var_to_check[base], &ws.check_to_var[base],
                              block_slot_[b + 1] - block_slot_[b],
                              kMinSumScale);
    }
    kernels.vn_update(llr.data(), n_, column_weight_, var_slots_.data(),
                      ws.check_to_var.data(), ws.var_to_check.data(),
                      ws.posterior.data());
    status.iterations_used = iter;
    status.parity_ok = all_checks_met();
  }
  if (status.iterations_used == 0) {
    // All-zero decisions (no iteration ran) satisfy every check.
    status.parity_ok = true;
    return status;
  }
  for (int v = 0; v < n_; ++v) {
    ws.codeword[std::size_t(v)] = ws.posterior[std::size_t(v)] < 0.0F;
  }
  return status;
}

LdpcCode::DecodeResult LdpcCode::decode(std::span<const float> llr,
                                        int max_iterations) const {
  thread_local DecodeWorkspace ws;
  const auto status = decode_into(llr, max_iterations, ws);
  DecodeResult result;
  result.codeword = ws.codeword;
  result.parity_ok = status.parity_ok;
  result.iterations_used = status.iterations_used;
  return result;
}

const LdpcCode& LdpcCode::standard() {
  // n = 648, m = 324, rate ~1/2 (like the 802.11n short code size).
  static const LdpcCode code{648, 324, /*seed=*/0x5D1A9C0DEULL};
  return code;
}

}  // namespace slingshot
