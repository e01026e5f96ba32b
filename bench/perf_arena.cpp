// Allocator-churn microbenchmark for the device-memory arena.
//
// A sweep cell allocates the same handful of working buffers (frontier
// queues, label arrays, reduction scalars) thousands of times across the
// study, so Device::array-adjacent allocation is pure churn: the arena's
// job is to make the steady state O(1) same-shape reuse instead of a
// malloc/free pair per buffer. This binary times that steady state in
// isolation, in two phases:
//
//   same_shape  - alloc/free cycles over one fixed shape set (the BFS/SSSP
//                 working-buffer sizes). After warm-up every alloc must be
//                 an exact-bucket reuse hit.
//   mixed       - interleaved small-class (64 B aligned) and page-class
//                 (4 KiB aligned) blocks freed out of order, exercising
//                 best-fit splits and adjacent-block coalescing.
//
// The baseline gate scores the combined alloc/free ops/s of the two
// phases ("arena_ops_per_s" — a key unique to this tool, so the entry can
// live inside bench/perf_baseline.json next to perf_sim's without
// confusing either reader).
//
// Flags:
//   --iters=N        alloc/free cycles per phase (default 20000)
//   --json=PATH      output path (default BENCH_arena.json)
//   --baseline=PATH  compare arena_ops_per_s against a previous export;
//                    exit 1 if it regressed more than
//   --tolerance=X    the soft threshold (default 0.30, i.e. -30%)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "vcuda/arena.hpp"

namespace {

using namespace indigo;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double read_baseline_ops_per_s(const std::string& path) {
  std::ifstream in(path);
  if (!in) return -1;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"arena_ops_per_s\":";
  const std::size_t pos = text.rfind(key);
  if (pos == std::string::npos) return -1;
  return std::atof(text.c_str() + pos + key.size());
}

struct PhaseResult {
  double wall_s = 0;
  std::uint64_t ops = 0;         // alloc/free pairs performed
  std::uint64_t reuse_hits = 0;  // exact-bucket reuses during the phase
  double ops_per_s = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 20000;
  std::string json_path = "BENCH_arena.json";
  std::string baseline_path;
  double tolerance = 0.30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (key == "--iters") {
      iters = static_cast<std::uint64_t>(std::max(1, std::atoi(val.c_str())));
    } else if (key == "--json") {
      json_path = val;
    } else if (key == "--baseline") {
      baseline_path = val;
    } else if (key == "--tolerance") {
      tolerance = std::atof(val.c_str());
    } else {
      std::cerr << "usage: perf_arena [--iters=N] [--json=PATH] "
                   "[--baseline=PATH] [--tolerance=X]\n";
      return 2;
    }
  }
  bool failed = false;

  vcuda::DeviceArena& arena = vcuda::thread_arena();

  // --- Phase 1: same-shape churn. The working-buffer shapes of one BFS
  // cell on a 2^13-vertex input: two label arrays, two worklists, and the
  // scalar head/flag buffers. Steady state must be all exact-bucket hits.
  const std::size_t shapes[] = {8192 * 4, 8192 * 4, 8192 * 4,
                                8192 * 4, 4,        4};
  constexpr std::size_t kShapes = sizeof(shapes) / sizeof(shapes[0]);
  PhaseResult same;
  {
    void* held[kShapes];
    for (std::size_t s = 0; s < kShapes; ++s) held[s] = arena.alloc(shapes[s]);
    // A live pin after the shape set keeps the frees below from melting
    // back into the bump frontier (that path is O(1) too, but it is not the
    // exact-bucket reuse this phase scores). Freeing one shape at a time
    // between live neighbors also keeps the free list from coalescing the
    // set into one big block.
    void* pin = arena.alloc(64);
    const vcuda::ArenaStats before = arena.stats();
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      for (std::size_t s = 0; s < kShapes; ++s) {
        arena.free(held[s]);
        held[s] = arena.alloc(shapes[s]);
      }
    }
    same.wall_s = seconds_since(t0);
    for (std::size_t s = 0; s < kShapes; ++s) arena.free(held[s]);
    arena.free(pin);
    const vcuda::ArenaStats after = arena.stats();
    same.ops = iters * kShapes;
    same.reuse_hits = after.reuse_hits - before.reuse_hits;
    same.ops_per_s = same.ops / same.wall_s;
    std::printf("[perf_arena] same_shape: %.3fs, %.2f Mops/s, reuse %llu/%llu\n",
                same.wall_s, same.ops_per_s / 1e6,
                static_cast<unsigned long long>(same.reuse_hits),
                static_cast<unsigned long long>(same.ops));
    if (same.reuse_hits != same.ops) {
      std::cerr << "[perf_arena] FAIL: same-shape steady state missed the "
                   "exact bucket\n";
      failed = true;
    }
  }

  // --- Phase 2: mixed alignment classes, out-of-order frees. Half the
  // blocks are small-class (64 B rounded), half page-class (>= 64 KiB), and
  // frees run even-indexes-first so neighbors merge back across the gap.
  PhaseResult mixed;
  {
    constexpr std::size_t kLive = 16;
    std::size_t sizes[kLive];
    for (std::size_t s = 0; s < kLive; ++s) {
      sizes[s] = (s % 2 == 0) ? 192 + 64 * s : (64 + s) * 1024;
    }
    const vcuda::ArenaStats before = arena.stats();
    const auto t0 = Clock::now();
    void* held[kLive];
    for (std::uint64_t i = 0; i < iters; ++i) {
      for (std::size_t s = 0; s < kLive; ++s) held[s] = arena.alloc(sizes[s]);
      for (std::size_t s = 0; s < kLive; s += 2) arena.free(held[s]);
      for (std::size_t s = 1; s < kLive; s += 2) arena.free(held[s]);
    }
    mixed.wall_s = seconds_since(t0);
    const vcuda::ArenaStats after = arena.stats();
    mixed.ops = iters * kLive;
    mixed.reuse_hits = after.reuse_hits - before.reuse_hits;
    mixed.ops_per_s = mixed.ops / mixed.wall_s;
    const std::uint64_t coalesces = after.coalesces - before.coalesces;
    std::printf(
        "[perf_arena] mixed:      %.3fs, %.2f Mops/s, reuse %llu/%llu, "
        "coalesces %llu\n",
        mixed.wall_s, mixed.ops_per_s / 1e6,
        static_cast<unsigned long long>(mixed.reuse_hits),
        static_cast<unsigned long long>(mixed.ops),
        static_cast<unsigned long long>(coalesces));
    if (after.live_bytes != before.live_bytes) {
      std::cerr << "[perf_arena] FAIL: mixed phase leaked live bytes\n";
      failed = true;
    }
  }

  // The gated aggregate: alloc/free throughput of the two phases.
  const double arena_wall = same.wall_s + mixed.wall_s;
  const double arena_ops_per_s =
      arena_wall > 0 ? static_cast<double>(same.ops + mixed.ops) / arena_wall
                     : 0;
  std::printf("[perf_arena] aggregate: %.2f Mops/s alloc/free churn\n",
              arena_ops_per_s / 1e6);

  std::ofstream json(json_path);
  json.precision(6);
  auto emit_phase = [&json](const char* name, const PhaseResult& p) {
    json << "  \"" << name << "\": {\"wall_s\": " << p.wall_s
         << ", \"ops\": " << p.ops << ", \"reuse_hits\": " << p.reuse_hits
         << ", \"ops_per_s\": " << p.ops_per_s << "},\n";
  };
  json << "{\n";
  emit_phase("same_shape", same);
  emit_phase("mixed", mixed);
  json << "  \"arena\": {\"arena_ops_per_s\": " << arena_ops_per_s << "}\n}\n";
  std::cout << "[perf_arena] wrote " << json_path << '\n';

  if (!baseline_path.empty()) {
    const double base = read_baseline_ops_per_s(baseline_path);
    if (base <= 0) {
      std::cerr << "[perf_arena] could not read baseline " << baseline_path
                << '\n';
      return 1;
    }
    const double ratio = arena_ops_per_s / base;
    std::printf("[perf_arena] vs baseline: %.2fx (%.2f -> %.2f Mops/s, "
                "tolerance -%.0f%%)\n",
                ratio, base / 1e6, arena_ops_per_s / 1e6, tolerance * 100);
    if (ratio < 1.0 - tolerance) {
      std::cerr << "[perf_arena] FAIL: churn throughput regressed beyond "
                   "tolerance\n";
      return 1;
    }
  }
  return failed ? 1 : 0;
}
