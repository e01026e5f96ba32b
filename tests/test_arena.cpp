// Tests for the device-memory arena, DeviceBuffer hygiene, and the
// modeled-capacity OOM check (unit and as a recorded sweep outcome).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_util/harness.hpp"
#include "core/registry.hpp"
#include "vcuda/arena.hpp"
#include "vcuda/device_spec.hpp"
#include "vcuda/sim.hpp"

namespace indigo::vcuda {
namespace {

// --- alignment-class rounding -----------------------------------------------

TEST(Arena, RoundSizeAlignmentClasses) {
  // Small class: cache-line rounding.
  EXPECT_EQ(DeviceArena::round_size(1), DeviceArena::kSmallAlign);
  EXPECT_EQ(DeviceArena::round_size(64), 64u);
  EXPECT_EQ(DeviceArena::round_size(65), 128u);
  EXPECT_EQ(DeviceArena::round_size(DeviceArena::kPageClassBytes - 1),
            DeviceArena::kPageClassBytes);  // 64 KiB - 1 rounds up within 64
  // Page class: requests of kPageClassBytes or more round to whole pages.
  EXPECT_EQ(DeviceArena::round_size(DeviceArena::kPageClassBytes),
            DeviceArena::kPageClassBytes);
  EXPECT_EQ(DeviceArena::round_size(DeviceArena::kPageClassBytes + 1),
            DeviceArena::kPageClassBytes + DeviceArena::kPageAlign);
}

// --- same-shape reuse and coalescing ----------------------------------------

TEST(Arena, SameShapeFreeThenAllocReturnsSamePointer) {
  DeviceArena a;
  void* x = a.alloc(1000);
  // A live pin above x keeps the free below from melting back into the
  // region's bump frontier, so it must land in the exact-size bucket.
  void* pin = a.alloc(64);
  a.free(x);
  void* y = a.alloc(1000);
  EXPECT_EQ(x, y);
  EXPECT_EQ(a.stats().reuse_hits, 1u);
  a.free(y);
  a.free(pin);
}

TEST(Arena, CoalescesAdjacentFreeBlocks) {
  DeviceArena a;
  void* b0 = a.alloc(128);
  void* b1 = a.alloc(192);
  void* pin = a.alloc(64);
  const std::uint64_t coalesces0 = a.stats().coalesces;
  a.free(b0);
  a.free(b1);  // adjacent to b0 -> must merge into one 320-byte block
  EXPECT_EQ(a.stats().coalesces, coalesces0 + 1);
  // The merged block serves a request of the combined size at b0's address.
  void* merged = a.alloc(320);
  EXPECT_EQ(merged, b0);
  a.free(merged);
  a.free(pin);
}

TEST(Arena, StatsBalanceAfterChurn) {
  DeviceArena a;
  std::vector<void*> held;
  for (int i = 0; i < 100; ++i) held.push_back(a.alloc(64 + 64 * (i % 7)));
  for (void* p : held) a.free(p);
  const ArenaStats s = a.stats();
  EXPECT_EQ(s.live_bytes, 0u);
  EXPECT_EQ(s.allocs, 100u);
  EXPECT_EQ(s.frees, 100u);
  EXPECT_GT(s.peak_live_bytes, 0u);
  EXPECT_GE(s.regions, 1u);
}

// --- DeviceBuffer hygiene ---------------------------------------------------

TEST(Arena, DeviceBufferNeverLeaksPreviousContents) {
  // Dirty an arena block, free it, then construct a DeviceBuffer of the
  // same shape: the reused block must read back as value-filled.
  DeviceBuffer<std::uint32_t> dirty(256, 0xdeadbeefu);
  ASSERT_EQ(dirty[0], 0xdeadbeefu);
  DeviceBuffer<std::uint32_t> pin(16, 0u);  // keep the block off the frontier
  dirty.assign(0, 0u);  // releases the 1 KiB block
  DeviceBuffer<std::uint32_t> fresh(256);   // same shape -> same block
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(fresh[i], 0u) << "stale word at " << i;
  }
  DeviceBuffer<std::uint32_t> filled(256, 7u);
  for (std::size_t i = 0; i < filled.size(); ++i) {
    ASSERT_EQ(filled[i], 7u);
  }
}

// --- modeled capacity / OOM rejection ---------------------------------------

DeviceSpec tiny_device(std::uint64_t memory_bytes) {
  DeviceSpec s = rtx3090_like();
  s.name = "tiny";
  s.memory_bytes = memory_bytes;
  return s;
}

TEST(Capacity, ExactCapacityAcceptedOneByteOverRejected) {
  // One 4096-byte buffer is charged one data page + one guard page = 8192.
  std::vector<std::uint32_t> buf(1024, 0);
  {
    Device dev(tiny_device(8192));
    EXPECT_NO_THROW(dev.array(std::span<std::uint32_t>(buf)));
    EXPECT_EQ(dev.modeled_footprint_bytes(), 8192u);
  }
  {
    // 4097 bytes spills to a second data page: 12288 > 8192 must throw.
    std::vector<std::byte> big(4097);
    Device dev(tiny_device(8192));
    EXPECT_THROW(dev.array(std::span<std::byte>(big)), DeviceOomError);
  }
}

TEST(Capacity, OomCarriesFootprintAndDeterministicMessage) {
  std::vector<std::uint32_t> a(1024, 0), b(1024, 0);
  Device dev(tiny_device(8192));
  dev.array(std::span<std::uint32_t>(a));
  try {
    dev.array(std::span<std::uint32_t>(b));
    FAIL() << "second distinct buffer must exceed the 8192-byte capacity";
  } catch (const DeviceOomError& e) {
    EXPECT_EQ(e.requested_bytes(), 4096u);
    EXPECT_EQ(e.footprint_bytes(), 16384u);
    EXPECT_EQ(e.capacity_bytes(), 8192u);
    EXPECT_TRUE(std::string(e.what()).starts_with("device OOM:"))
        << e.what();
  }
  // Rewrapping the *same* buffer is free (it already has a virtual base).
  EXPECT_NO_THROW(dev.array(std::span<std::uint32_t>(a)));
}

// --- OOM as a sweep Validity outcome ----------------------------------------

class ArenaHarnessTest : public testing::Test {
 protected:
  void SetUp() override {
    setenv("REPRO_SCALE", "0", 1);
    setenv("REPRO_CACHE", "", 1);  // in-memory store
  }
  void TearDown() override {
    unsetenv("REPRO_CACHE");
    unsetenv("REPRO_SCALE");
  }
};

TEST_F(ArenaHarnessTest, OomRecordedAsValidityOutcomeNotCrash) {
  bench::Harness h;
  const auto cuda = Registry::instance().select(Model::Cuda, Algorithm::BFS);
  ASSERT_FALSE(cuda.empty());
  // 8 KiB of modeled memory cannot hold a CSR graph plus working buffers.
  const DeviceSpec tiny = tiny_device(8192);
  const Measurement m = h.measure_one(*cuda.front(), h.graphs()[0], &tiny, 1);
  EXPECT_FALSE(m.verified);
  ASSERT_EQ(m.metrics.count("validity.oom"), 1u);
  EXPECT_EQ(m.metrics.at("validity.oom"), 1.0);
  EXPECT_GT(m.metrics.at("validity.oom_footprint_bytes"), 8192.0);
  // Deterministic: the same cell OOMs with the identical modeled footprint.
  const Measurement m2 = h.measure_one(*cuda.front(), h.graphs()[0], &tiny, 1);
  EXPECT_EQ(m.metrics.at("validity.oom_footprint_bytes"),
            m2.metrics.at("validity.oom_footprint_bytes"));
}

}  // namespace
}  // namespace indigo::vcuda
