// Device-memory arena: a region/slab allocator for the simulator's
// device-resident buffers (value arrays, worklists).
//
// The sweep's hot loop allocates and frees the same handful of buffer
// shapes thousands of times. The arena keeps that memory mapped: blocks are
// carved from large bump regions per alignment class, freed blocks land on
// an exact-size free list for O(1) same-shape reuse, and address-adjacent
// free blocks coalesce so shape changes (a new graph scale) do not leak the
// old shapes forever. Regions are only returned to the OS when the arena
// dies with its thread. What it buys is peak RSS, not time: on the general
// heap, glibc's dynamic mmap threshold keeps freed multi-megabyte worklists
// in each thread's heap (docs/PERFORMANCE.md).
//
// The arena is purely a *host* allocator: modeled device capacity is
// accounted separately by Device's page-aligned virtual bases (sim.hpp),
// which depend only on wrap order and sizes, never on host addresses.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace indigo::vcuda {

/// Point-in-time accounting of one arena (relaxed-atomic snapshot: safe to
/// read from the telemetry publisher while the owning thread allocates).
struct ArenaStats {
  std::uint64_t live_bytes = 0;       // currently handed out
  std::uint64_t peak_live_bytes = 0;  // high-water mark of live_bytes
  std::uint64_t region_bytes = 0;     // total mapped region capacity
  std::uint64_t regions = 0;          // region count across both classes
  std::uint64_t region_growths = 0;   // cumulative grow_region calls (the
                                      // gauge above zeroes at thread death)
  std::uint64_t allocs = 0;           // alloc() calls served
  std::uint64_t reuse_hits = 0;       // O(1) exact-size free-list hits
  std::uint64_t split_allocs = 0;     // carved from a larger free block
  std::uint64_t bump_allocs = 0;      // served by a region bump pointer
  std::uint64_t frees = 0;            // free() calls
  std::uint64_t coalesces = 0;        // adjacent free blocks merged
};

/// pocl-bufalloc-style region allocator. Not thread-safe: one arena per
/// thread (thread_arena()), which also keeps reuse deterministic — a sweep
/// worker always replays its own alloc/free history.
class DeviceArena {
 public:
  /// Small-class blocks are cache-line aligned; blocks of kPageClassBytes
  /// or more live in page-aligned regions of their own (mixing them with
  /// small churn would defeat coalescing).
  static constexpr std::size_t kSmallAlign = 64;
  static constexpr std::size_t kPageAlign = 4096;
  static constexpr std::size_t kPageClassBytes = 64 * 1024;
  static constexpr std::size_t kMinRegionBytes = std::size_t{1} << 20;

  DeviceArena();
  ~DeviceArena();
  DeviceArena(const DeviceArena&) = delete;
  DeviceArena& operator=(const DeviceArena&) = delete;

  /// Never returns nullptr; the returned block is aligned to its class
  /// (kSmallAlign, or kPageAlign for requests >= kPageClassBytes).
  void* alloc(std::size_t bytes);
  void free(void* p);

  /// Size a request occupies after alignment-class rounding.
  [[nodiscard]] static std::size_t round_size(std::size_t bytes);

  [[nodiscard]] ArenaStats stats() const;

  /// Drops every region (all outstanding blocks become invalid). Tests only.
  void release_all();

 private:
  struct Region;
  struct Block {
    Region* region = nullptr;
    std::size_t offset = 0;
    std::size_t size = 0;
    bool is_free = false;
    std::size_t bucket_pos = 0;  // index in its free bucket while free
  };
  struct Region {
    std::byte* base = nullptr;
    std::size_t capacity = 0;
    std::size_t bump = 0;       // [bump, capacity) is virgin space
    std::size_t alignment = 0;  // kSmallAlign or kPageAlign
    std::map<std::size_t, Block*> blocks;  // by offset, for coalescing
  };

  Region* grow_region(std::size_t alignment, std::size_t need);
  void bucket_push(Block* b);
  void bucket_remove(Block* b);
  Block* take_free(std::size_t rounded, std::size_t alignment);

  std::vector<Region*> regions_;
  std::unordered_map<std::size_t, std::vector<Block*>> free_buckets_;
  std::unordered_map<const void*, Block*> by_ptr_;
  // Relaxed atomics: mutated only by the owning thread, read concurrently
  // by the telemetry section.
  struct {
    std::atomic<std::uint64_t> live_bytes{0}, peak_live_bytes{0},
        region_bytes{0}, regions{0}, region_growths{0}, allocs{0},
        reuse_hits{0}, split_allocs{0}, bump_allocs{0}, frees{0},
        coalesces{0};
  } st_;
};

/// The calling thread's arena (created on first use, registered with the
/// process-wide accounting the "mem" telemetry section publishes).
DeviceArena& thread_arena();

/// Sum of ArenaStats over every live thread arena in the process.
ArenaStats aggregate_arena_stats();

/// A device-side working buffer: the std::vector replacement the vcuda
/// variants hand to Device::array. Allocation goes through the thread's
/// arena; construction always value-fills, exactly like the vectors it replaces, so a reused arena
/// block can never leak a previous run's contents into this one.
template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "DeviceBuffer holds raw device words");

 public:
  DeviceBuffer() = default;
  explicit DeviceBuffer(std::size_t n) { resize(n); }
  DeviceBuffer(std::size_t n, T v) { assign(n, v); }
  ~DeviceBuffer() { release(); }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  void resize(std::size_t n) {
    if (n == n_) return;
    T* np = allocate(n);
    const std::size_t keep = n < n_ ? n : n_;
    if (keep > 0) std::memcpy(np, p_, keep * sizeof(T));
    if (n > keep) std::memset(np + keep, 0, (n - keep) * sizeof(T));
    release();
    p_ = np;
    n_ = n;
  }

  void assign(std::size_t n, T v) {
    if (n != n_) {
      release();
      p_ = allocate(n);
      n_ = n;
    }
    for (std::size_t i = 0; i < n_; ++i) p_[i] = v;
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] T* data() { return p_; }
  [[nodiscard]] const T* data() const { return p_; }
  [[nodiscard]] std::span<T> span() { return {p_, n_}; }
  T& operator[](std::size_t i) { return p_[i]; }
  const T& operator[](std::size_t i) const { return p_[i]; }

 private:
  static T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(thread_arena().alloc(n * sizeof(T)));
  }
  void release() {
    if (p_ == nullptr) return;
    thread_arena().free(p_);
    p_ = nullptr;
    n_ = 0;
  }

  T* p_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace indigo::vcuda
