#include "vcuda/arena.hpp"

#include <cassert>
#include <mutex>
#include <new>
#include <sstream>

#include "obs/counters.hpp"
#include "obs/telemetry.hpp"

namespace indigo::vcuda {

namespace {

/// Process-wide registry of live thread arenas, for aggregate stats. The
/// telemetry section reads through it while worker threads allocate, which
/// is why ArenaStats snapshots are relaxed-atomic loads.
struct ArenaRegistry {
  std::mutex mu;
  std::vector<const DeviceArena*> arenas;
  // Arenas of dead threads fold their final stats in here so the process
  // totals never go backwards when a pool retires.
  ArenaStats retired;

  static ArenaRegistry& instance() {
    static ArenaRegistry r;
    return r;
  }
};

void accumulate(ArenaStats& into, const ArenaStats& s) {
  into.live_bytes += s.live_bytes;
  into.peak_live_bytes += s.peak_live_bytes;
  into.region_bytes += s.region_bytes;
  into.regions += s.regions;
  into.region_growths += s.region_growths;
  into.allocs += s.allocs;
  into.reuse_hits += s.reuse_hits;
  into.split_allocs += s.split_allocs;
  into.bump_allocs += s.bump_allocs;
  into.frees += s.frees;
  into.coalesces += s.coalesces;
}

/// Registers the "mem" telemetry section (process-wide arena aggregates)
/// the first time an arena is constructed; idempotent.
void ensure_mem_telemetry_section() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::telemetry_register_section("mem", [] {
      const ArenaStats a = aggregate_arena_stats();
      std::ostringstream os;
      os << "{\"arena\":{"
         << "\"live_bytes\":" << a.live_bytes
         << ",\"peak_live_bytes\":" << a.peak_live_bytes
         << ",\"region_bytes\":" << a.region_bytes
         << ",\"regions\":" << a.regions
         << ",\"region_growths\":" << a.region_growths
         << ",\"allocs\":" << a.allocs
         << ",\"reuse_hits\":" << a.reuse_hits
         << ",\"split_allocs\":" << a.split_allocs
         << ",\"bump_allocs\":" << a.bump_allocs << ",\"frees\":" << a.frees
         << ",\"coalesces\":" << a.coalesces << "}}";
      return os.str();
    });
  });
}

}  // namespace

DeviceArena::DeviceArena() {
  ensure_mem_telemetry_section();
  auto& r = ArenaRegistry::instance();
  std::lock_guard lk(r.mu);
  r.arenas.push_back(this);
}

DeviceArena::~DeviceArena() {
  auto& r = ArenaRegistry::instance();
  {
    std::lock_guard lk(r.mu);
    std::erase(r.arenas, this);
    ArenaStats final = stats();
    final.live_bytes = 0;  // the thread died; nothing stays live
    final.region_bytes = 0;
    final.regions = 0;
    accumulate(r.retired, final);
  }
  release_all();
}

std::size_t DeviceArena::round_size(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes >= kPageClassBytes) {
    return (bytes + kPageAlign - 1) & ~(kPageAlign - 1);
  }
  return (bytes + kSmallAlign - 1) & ~(kSmallAlign - 1);
}

void DeviceArena::bucket_push(Block* b) {
  auto& v = free_buckets_[b->size];
  b->bucket_pos = v.size();
  v.push_back(b);
  b->is_free = true;
}

void DeviceArena::bucket_remove(Block* b) {
  auto it = free_buckets_.find(b->size);
  assert(it != free_buckets_.end());
  auto& v = it->second;
  // Swap-remove so eviction from the middle stays O(1).
  v[b->bucket_pos] = v.back();
  v[b->bucket_pos]->bucket_pos = b->bucket_pos;
  v.pop_back();
  b->is_free = false;
}

DeviceArena::Region* DeviceArena::grow_region(std::size_t alignment,
                                              std::size_t need) {
  // Geometric growth per class: big enough for the request, at least the
  // floor, at least as big as the class's previous region (so a sweep's
  // region count stays logarithmic in its total traffic).
  std::size_t cap = kMinRegionBytes;
  for (const Region* r : regions_) {
    if (r->alignment == alignment && r->capacity > cap) cap = r->capacity;
  }
  if (cap < need) cap = (need + kMinRegionBytes - 1) & ~(kMinRegionBytes - 1);
  auto* r = new Region;
  r->base = static_cast<std::byte*>(
      ::operator new(cap, std::align_val_t{alignment}));
  r->capacity = cap;
  r->alignment = alignment;
  regions_.push_back(r);
  st_.regions.fetch_add(1, std::memory_order_relaxed);
  st_.region_growths.fetch_add(1, std::memory_order_relaxed);
  st_.region_bytes.fetch_add(cap, std::memory_order_relaxed);
  if (obs::enabled()) {
    static obs::Counter& c =
        obs::CounterRegistry::instance().counter("mem.arena_regions");
    c.add(1);
  }
  return r;
}

DeviceArena::Block* DeviceArena::take_free(std::size_t rounded,
                                           std::size_t alignment) {
  // O(1) same-shape reuse: the sweep's dominant pattern is freeing a run's
  // buffers and allocating the exact shapes again for the next cell.
  if (auto it = free_buckets_.find(rounded);
      it != free_buckets_.end() && !it->second.empty()) {
    Block* b = it->second.back();
    if (b->region->alignment == alignment) {
      it->second.pop_back();
      b->is_free = false;
      st_.reuse_hits.fetch_add(1, std::memory_order_relaxed);
      return b;
    }
  }
  // Bounded best-fit over the (few) distinct free sizes: lets a coalesced
  // block serve a new, larger shape instead of forcing a fresh region.
  Block* best = nullptr;
  for (auto& [size, v] : free_buckets_) {
    if (size < rounded || v.empty()) continue;
    for (Block* b : v) {
      if (b->region->alignment != alignment) continue;
      if (best == nullptr || b->size < best->size) best = b;
      break;  // all blocks in one bucket share the size
    }
  }
  if (best == nullptr) return nullptr;
  bucket_remove(best);
  const std::size_t spare = best->size - rounded;
  if (spare >= (alignment == kPageAlign ? kPageAlign : kSmallAlign)) {
    // Split: give back the tail as its own free block.
    auto* tail = new Block;
    tail->region = best->region;
    tail->offset = best->offset + rounded;
    tail->size = spare;
    best->size = rounded;
    best->region->blocks.emplace(tail->offset, tail);
    by_ptr_.emplace(best->region->base + tail->offset, tail);
    bucket_push(tail);
  }
  st_.split_allocs.fetch_add(1, std::memory_order_relaxed);
  return best;
}

void* DeviceArena::alloc(std::size_t bytes) {
  const std::size_t rounded = round_size(bytes);
  const std::size_t alignment =
      bytes >= kPageClassBytes ? kPageAlign : kSmallAlign;
  st_.allocs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t reuse0 = st_.reuse_hits.load(std::memory_order_relaxed);

  Block* b = take_free(rounded, alignment);
  if (b == nullptr) {
    // Bump from a region of the matching class with virgin space left.
    Region* home = nullptr;
    for (Region* r : regions_) {
      if (r->alignment == alignment && r->capacity - r->bump >= rounded) {
        home = r;
        break;
      }
    }
    if (home == nullptr) home = grow_region(alignment, rounded);
    b = new Block;
    b->region = home;
    b->offset = home->bump;
    b->size = rounded;
    home->bump += rounded;
    home->blocks.emplace(b->offset, b);
    by_ptr_.emplace(home->base + b->offset, b);
    st_.bump_allocs.fetch_add(1, std::memory_order_relaxed);
  }

  const std::uint64_t live =
      st_.live_bytes.fetch_add(b->size, std::memory_order_relaxed) + b->size;
  std::uint64_t peak = st_.peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !st_.peak_live_bytes.compare_exchange_weak(
             peak, live, std::memory_order_relaxed)) {
  }
  if (obs::enabled()) {
    auto& reg = obs::CounterRegistry::instance();
    static obs::Counter& c_bytes = reg.counter("mem.arena_alloc_bytes");
    static obs::Counter& c_reuse = reg.counter("mem.arena_reuse_hits");
    static obs::Distribution& d_live = reg.distribution("mem.live_bytes");
    c_bytes.add(b->size);
    if (st_.reuse_hits.load(std::memory_order_relaxed) != reuse0) {
      c_reuse.add(1);
    }
    d_live.record(static_cast<double>(live));
  }
  return b->region->base + b->offset;
}

void DeviceArena::free(void* p) {
  if (p == nullptr) return;
  const auto it = by_ptr_.find(p);
  assert(it != by_ptr_.end() && "DeviceArena::free of a foreign pointer");
  Block* b = it->second;
  st_.frees.fetch_add(1, std::memory_order_relaxed);
  st_.live_bytes.fetch_sub(b->size, std::memory_order_relaxed);

  Region* r = b->region;
  auto pos = r->blocks.find(b->offset);
  // Coalesce with the next block when it is free and address-adjacent.
  if (auto nx = std::next(pos);
      nx != r->blocks.end() && nx->second->is_free &&
      nx->second->offset == b->offset + b->size) {
    Block* n = nx->second;
    bucket_remove(n);
    by_ptr_.erase(r->base + n->offset);
    b->size += n->size;
    r->blocks.erase(nx);
    delete n;
    st_.coalesces.fetch_add(1, std::memory_order_relaxed);
  }
  // Coalesce with the previous block likewise.
  if (pos != r->blocks.begin()) {
    auto pv = std::prev(pos);
    Block* q = pv->second;
    if (q->is_free && q->offset + q->size == b->offset) {
      bucket_remove(q);
      by_ptr_.erase(p);
      q->size += b->size;
      r->blocks.erase(pos);
      delete b;
      b = q;
      st_.coalesces.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // A block that reaches the bump frontier melts back into virgin space
  // instead of pinning a stale shape on the free list.
  if (b->offset + b->size == r->bump) {
    r->bump = b->offset;
    by_ptr_.erase(r->base + b->offset);
    r->blocks.erase(b->offset);
    delete b;
    return;
  }
  bucket_push(b);
}

ArenaStats DeviceArena::stats() const {
  ArenaStats s;
  s.live_bytes = st_.live_bytes.load(std::memory_order_relaxed);
  s.peak_live_bytes = st_.peak_live_bytes.load(std::memory_order_relaxed);
  s.region_bytes = st_.region_bytes.load(std::memory_order_relaxed);
  s.regions = st_.regions.load(std::memory_order_relaxed);
  s.region_growths = st_.region_growths.load(std::memory_order_relaxed);
  s.allocs = st_.allocs.load(std::memory_order_relaxed);
  s.reuse_hits = st_.reuse_hits.load(std::memory_order_relaxed);
  s.split_allocs = st_.split_allocs.load(std::memory_order_relaxed);
  s.bump_allocs = st_.bump_allocs.load(std::memory_order_relaxed);
  s.frees = st_.frees.load(std::memory_order_relaxed);
  s.coalesces = st_.coalesces.load(std::memory_order_relaxed);
  return s;
}

void DeviceArena::release_all() {
  for (Region* r : regions_) {
    for (auto& [off, b] : r->blocks) delete b;
    ::operator delete(r->base, std::align_val_t{r->alignment});
    delete r;
  }
  regions_.clear();
  free_buckets_.clear();
  by_ptr_.clear();
  st_.live_bytes.store(0, std::memory_order_relaxed);
  st_.region_bytes.store(0, std::memory_order_relaxed);
  st_.regions.store(0, std::memory_order_relaxed);
}

DeviceArena& thread_arena() {
  thread_local DeviceArena arena;
  return arena;
}

ArenaStats aggregate_arena_stats() {
  auto& r = ArenaRegistry::instance();
  std::lock_guard lk(r.mu);
  ArenaStats total = r.retired;
  for (const DeviceArena* a : r.arenas) accumulate(total, a->stats());
  return total;
}

}  // namespace indigo::vcuda
