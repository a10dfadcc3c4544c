// Counting-allocator proof that the hot decode path is allocation-free.
//
// This TU overrides global operator new/delete with counting shims (the
// reason it lives in its own test binary) and asserts that, once a
// DecodeWorkspace is warm, LdpcCode::decode_into performs ZERO heap
// allocations per decode. That is the contract that lets the PHY decode
// every uplink TB of a 10-second run without touching the allocator.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "phy/ldpc.h"

namespace {
// Plain counter; the simulation and tests are single-threaded.
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace slingshot {
namespace {

std::vector<float> make_noisy_llrs(const LdpcCode& code, RngStream& rng) {
  std::vector<std::uint8_t> info(std::size_t(code.k()));
  for (auto& b : info) {
    b = std::uint8_t(rng.next_u64() & 1U);
  }
  const auto cw = code.encode(info);
  std::vector<float> llrs(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    const double x = cw[i] ? -1.0 : 1.0;
    llrs[i] = float(2.0 * (x + rng.gaussian(0.0, 0.5)) / 0.25);
  }
  return llrs;
}

TEST(DecodeAlloc, WarmWorkspaceDecodeIsAllocationFree) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{2024}.stream("alloc");
  LdpcCode::DecodeWorkspace ws;

  // Pre-generate inputs and warm the workspace (first call sizes the
  // scratch vectors).
  std::vector<std::vector<float>> inputs;
  inputs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(make_noisy_llrs(code, rng));
  }
  (void)code.decode_into(inputs[0], 8, ws);

  const std::size_t before = g_alloc_count;
  for (const auto& llrs : inputs) {
    (void)code.decode_into(llrs, 8, ws);
  }
  const std::size_t after = g_alloc_count;
  EXPECT_EQ(after - before, 0U)
      << "decode_into allocated " << (after - before)
      << " times across " << inputs.size() << " warm decodes";
}

}  // namespace
}  // namespace slingshot
