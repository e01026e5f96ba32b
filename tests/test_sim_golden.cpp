// Golden dual-path test: the fast-path interpreter (flat access arena,
// analytic/bitmap coalescing, epoch-tagged hotspots) must be BIT-IDENTICAL
// to the legacy reference algorithms in modeled time and every LaunchStats
// field — the paper's figures must not move by a single ULP. Each scenario
// runs once with set_reference_model(true) and once with the default fast
// path, on fresh Devices, and compares raw double bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "graph/generate.hpp"
#include "obs/counters.hpp"
#include "variants/register_all.hpp"
#include "vcuda/device_spec.hpp"
#include "vcuda/sim.hpp"

namespace indigo::vcuda {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_identical(const LaunchStats& ref, const LaunchStats& fast) {
  EXPECT_EQ(bits(ref.compute_cycles), bits(fast.compute_cycles));
  EXPECT_EQ(ref.transactions, fast.transactions);
  EXPECT_EQ(bits(ref.hotspot_cycles_max), bits(fast.hotspot_cycles_max));
  EXPECT_EQ(bits(ref.fence_cycles), bits(fast.fence_cycles));
  EXPECT_EQ(ref.barriers, fast.barriers);
  EXPECT_EQ(ref.mem_instructions, fast.mem_instructions);
  EXPECT_EQ(ref.lane_accesses, fast.lane_accesses);
  EXPECT_EQ(ref.atomic_ops, fast.atomic_ops);
  EXPECT_EQ(ref.atomic_conflicts, fast.atomic_conflicts);
  EXPECT_EQ(ref.block_atomic_ops, fast.block_atomic_ops);
  EXPECT_EQ(bits(ref.lane_cycles), bits(fast.lane_cycles));
  EXPECT_EQ(bits(ref.lockstep_cycles), bits(fast.lockstep_cycles));
  EXPECT_EQ(ref.grid_dim, fast.grid_dim);
  EXPECT_EQ(ref.block_dim, fast.block_dim);
  EXPECT_EQ(bits(ref.occupancy), bits(fast.occupancy));
}

struct GoldenRun {
  double elapsed = 0;
  std::vector<LaunchStats> per_launch;
};

/// Runs `workload(dev, snap)` under one mode; the workload calls snap()
/// after each launch so every launch's stats are captured, not just the
/// final one (intermediate divergence must not cancel out).
template <typename W>
GoldenRun run_mode(bool reference, W&& workload) {
  set_reference_model(reference);
  GoldenRun out;
  {
    Device dev(rtx3090_like());
    auto snap = [&] { out.per_launch.push_back(dev.last_stats()); };
    workload(dev, snap);
    out.elapsed = dev.elapsed_seconds();
  }
  set_reference_model(false);
  return out;
}

template <typename W>
void expect_golden(W&& workload) {
  const GoldenRun ref = run_mode(true, workload);
  const GoldenRun fast = run_mode(false, workload);
  EXPECT_EQ(bits(ref.elapsed), bits(fast.elapsed));
  ASSERT_EQ(ref.per_launch.size(), fast.per_launch.size());
  for (std::size_t i = 0; i < ref.per_launch.size(); ++i) {
    SCOPED_TRACE("launch " + std::to_string(i));
    expect_identical(ref.per_launch[i], fast.per_launch[i]);
  }
}

TEST(SimGolden, CoalescedStridedAndScatteredLoads) {
  expect_golden([](Device& dev, auto snap) {
    std::vector<std::uint32_t> big(1u << 16, 1);
    std::vector<std::uint32_t> out(4096, 0);
    auto src = dev.array(std::span<std::uint32_t>(big));
    auto dst = dev.array(std::span<std::uint32_t>(out));
    dev.launch(8, 256, [&](Block& blk) {
      blk.for_each_thread([&](Thread& t) {
        const std::uint32_t i = t.gidx();
        // Fully coalesced: lane-contiguous 4B loads (one 128B line/warp).
        std::uint32_t v = src.ld(t, i);
        // Constant stride 2: a two-line window per warp (bitmap path).
        v += src.ld(t, (2 * i) % big.size());
        // Scattered: pseudo-random lines far beyond a 64-line window
        // (linear-dedup fallback).
        v += src.ld(t, (i * 2654435761u) % big.size());
        dst.st(t, i % out.size(), v);
      });
    });
    snap();
  });
}

TEST(SimGolden, PartialWarpsAndDivergence) {
  expect_golden([](Device& dev, auto snap) {
    std::vector<std::uint32_t> data(4096, 3);
    auto arr = dev.array(std::span<std::uint32_t>(data));
    // 80 threads/block: last warp runs 16 lanes; odd lanes do extra work.
    dev.launch(3, 80, [&](Block& blk) {
      blk.for_each_thread([&](Thread& t) {
        std::uint32_t acc = arr.ld(t, t.gidx() % data.size());
        if (t.lane() % 2 == 1) {
          for (int k = 0; k < 3; ++k) {
            acc += arr.ld(t, (t.gidx() + 97u * k) % data.size());
            t.work(2);
          }
        }
        arr.st(t, t.gidx() % data.size(), acc);
      });
      blk.sync();
    });
    snap();
  });
}

TEST(SimGolden, AtomicsUniformScatteredAcrossLaunches) {
  expect_golden([](Device& dev, auto snap) {
    std::vector<std::uint32_t> counters(512, 0);
    auto arr = dev.array(std::span<std::uint32_t>(counters));
    // Three launches so the epoch-tagged hotspot table is re-used with
    // stale slots (the reference path memsets between launches instead).
    for (int launch = 0; launch < 3; ++launch) {
      dev.launch(4, 128, [&](Block& blk) {
        blk.for_each_thread([&](Thread& t) {
          // Warp-uniform: every lane lands on one address (aggregated).
          arr.atomic_add(t, 7, 1u);
          // Scattered: distinct per-lane addresses, colliding across warps.
          arr.atomic_min(t, (t.gidx() * 31u) % counters.size(), t.gidx());
          // Partially-uniform: pairs of lanes share an address.
          arr.atomic_max(t, (t.thread_idx() / 2) % counters.size(),
                         t.gidx());
        });
      });
      snap();
    }
  });
}

TEST(SimGolden, CudaAtomicsChargeFences) {
  expect_golden([](Device& dev, auto snap) {
    std::vector<std::uint32_t> data(2048, 0);
    auto arr = dev.array(std::span<std::uint32_t>(data));
    dev.launch(2, 192, [&](Block& blk) {
      blk.for_each_thread([&](Thread& t) {
        const std::uint32_t i = t.gidx() % data.size();
        const std::uint32_t v = arr.ald(t, i);
        arr.afetch_add(t, (i * 17u) % data.size(), 1u);
        arr.afetch_min(t, 11, v);
        arr.ast(t, i, v + 1);
      });
    });
    snap();
  });
}

TEST(SimGolden, BlockAtomicsAndReductions) {
  expect_golden([](Device& dev, auto snap) {
    std::vector<std::uint32_t> out(64, 0);
    auto arr = dev.array(std::span<std::uint32_t>(out));
    dev.launch(16, 96, [&](Block& blk) {
      auto sh = blk.shared_array<std::uint32_t>(4);
      blk.for_each_thread([&](Thread& t) {
        blk.atomic_add_block(t, sh[t.thread_idx() % 4], t.gidx());
      });
      blk.sync();
      std::vector<double> vals(96, 1.0);
      blk.reduce_add(std::span<const double>(vals));
      blk.for_each_thread([&](Thread& t) {
        if (t.thread_idx() < 4) {
          arr.st(t, (blk.block_idx() * 4 + t.thread_idx()) % out.size(),
                 sh[t.thread_idx()]);
        }
      });
    });
    snap();
  });
}

/// The vcuda obs counters finalize_launch sums per launch: together they
/// cover the launch count and every integral LaunchStats total.
std::vector<std::uint64_t> vcuda_counter_values() {
  static constexpr const char* kNames[] = {
      "vcuda.launches",         "vcuda.transactions",
      "vcuda.transactions_replayed", "vcuda.mem_instructions",
      "vcuda.atomic_ops",       "vcuda.atomic_conflicts",
      "vcuda.block_atomic_ops", "vcuda.fence_cycles",
      "vcuda.barriers",         "vcuda.lane_cycles",
      "vcuda.lockstep_cycles",  "vcuda.sim_ns"};
  auto& reg = obs::CounterRegistry::instance();
  std::vector<std::uint64_t> out;
  for (const char* name : kNames) out.push_back(reg.counter(name).value());
  return out;
}

struct VariantRun {
  RunResult result;
  std::vector<std::uint64_t> counters;  // vcuda counter deltas of the run
};

VariantRun run_counted(const Variant& v, const Graph& g,
                       const RunOptions& opts) {
  const std::vector<std::uint64_t> before = vcuda_counter_values();
  VariantRun out{v.run(g, opts), vcuda_counter_values()};
  for (std::size_t i = 0; i < before.size(); ++i) out.counters[i] -= before[i];
  return out;
}

// Registered vcuda variants on a small graph, reference vs fast model: the
// modeled seconds (what the paper's figures are made of), iterations,
// outputs, launch count and summed launch counters must agree bit-for-bit.
// Every persistent variant runs — their device-filling grids are where
// bounded regions skip idle threads, and the reference model visits every
// lane — plus every third other variant and the first few.
TEST(SimGolden, RealVariantsEndToEnd) {
  variants::register_all_variants();
  const Graph g = make_rmat(8);
  const auto cuda = Registry::instance().select(Model::Cuda, std::nullopt);
  ASSERT_FALSE(cuda.empty());
  RunOptions opts;
  opts.source = 0;
  obs::set_enabled(true);
  std::size_t seen = 0, checked = 0, persistent = 0;
  for (const Variant* v : cuda) {
    const bool pers = v->style.pers == Persistence::Persistent;
    const bool sampled = seen < 5 || seen % 3 == 0;
    ++seen;
    if (!pers && !sampled) continue;
    set_reference_model(true);
    const VariantRun ref = run_counted(*v, g, opts);
    set_reference_model(false);
    const VariantRun fast = run_counted(*v, g, opts);
    EXPECT_EQ(bits(ref.result.seconds), bits(fast.result.seconds)) << v->name;
    EXPECT_EQ(ref.result.iterations, fast.result.iterations) << v->name;
    EXPECT_EQ(ref.result.converged, fast.result.converged) << v->name;
    EXPECT_EQ(ref.result.output.labels, fast.result.output.labels)
        << v->name;
    EXPECT_EQ(ref.result.output.count, fast.result.output.count) << v->name;
    ASSERT_EQ(ref.result.output.ranks.size(), fast.result.output.ranks.size())
        << v->name;
    for (std::size_t i = 0; i < ref.result.output.ranks.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(ref.result.output.ranks[i]),
                std::bit_cast<std::uint32_t>(fast.result.output.ranks[i]))
          << v->name << " rank " << i;
    }
    EXPECT_GT(ref.counters[0], 0u) << v->name;  // launches
    EXPECT_EQ(ref.counters, fast.counters) << v->name;
    ++checked;
    if (pers) ++persistent;
  }
  obs::set_enabled(false);
  EXPECT_GT(checked, 0u);
  EXPECT_GT(persistent, 0u);
}

// --- bounded regions ---------------------------------------------------------
// for_each_thread/for_each_warp with a live bound skip the threads at or
// past the bound and charge a fully idle warp in closed form. That must be
// bit-identical to the unbounded region whose body guards `gidx < live`, in
// both model modes and under both warp engines; the reference model ignores
// the bound and calls every lane.

// 5 blocks of 80 threads: two full warps and a 16-lane tail warp per block.
constexpr std::uint32_t kBoundGrid = 5;
constexpr std::uint32_t kBoundBlock = 80;
constexpr std::uint32_t kBoundThreads = kBoundGrid * kBoundBlock;

struct BoundedRun {
  double elapsed = 0;
  LaunchStats stats;
  std::vector<std::uint32_t> out, ctr;
  std::uint64_t idle_calls = 0;  // calls for threads/warps past the bound
};

/// Two regions around a barrier: a guarded load/ALU/scattered-atomic/store
/// round with lane-varying work, then a second round over its output.
BoundedRun run_bounded(bool reference, bool lane_loop, bool bounded,
                       std::uint32_t live) {
  set_reference_model(reference);
  BoundedRun r;
  std::vector<std::uint32_t> in(kBoundThreads);
  for (std::uint32_t i = 0; i < in.size(); ++i) in[i] = i * 7 + 1;
  r.out.assign(kBoundThreads, 0);
  r.ctr.assign(64, 0);
  {
    Device dev(rtx3090_like());
    auto src = dev.array(std::span<std::uint32_t>(in));
    auto dst = dev.array(std::span<std::uint32_t>(r.out));
    auto cnt = dev.array(std::span<std::uint32_t>(r.ctr));
    const std::uint32_t bound = bounded ? live : Block::kAllLive;
    const auto slot = [](std::uint32_t i) { return (i * 2654435761u) % 64; };
    const auto work = [](std::uint32_t i) { return 1.0 + 0.37 * (i % 5); };
    dev.launch(kBoundGrid, kBoundBlock, [&](Block& blk) {
      if (lane_loop) {
        auto body = [&](int round) {
          return [&, round](WarpCtx& w) {
            const std::uint32_t base = w.gidx_base();
            if (base >= live) {
              ++r.idle_calls;
              return;
            }
            const WarpCtx::Mask m = w.mask_first(live - base);
            LaneVec<std::uint32_t> v{}, s{};
            if (round == 0) {
              src.ld_warp_c(w, m, base, v.v);
            } else {
              dst.ld_warp_c(w, m, base, v.v);
            }
            w.for_lanes(m, [&](int l) {
              const std::uint32_t i = base + static_cast<std::uint32_t>(l);
              w.work(WarpCtx::Mask{1} << l, work(i + round));
              s[l] = slot(i + round);
            });
            cnt.atomic_add_warp_seq(w, m, s.v, v.v);
            w.for_lanes(m, [&](int l) { v[l] += 1; });
            dst.st_warp_c(w, m, base, v.v);
          };
        };
        blk.for_each_warp(bound, body(0));
        blk.sync();
        blk.for_each_warp(bound, body(1));
      } else {
        auto body = [&](int round) {
          return [&, round](Thread& t) {
            const std::uint32_t i = t.gidx();
            if (i >= live) {
              ++r.idle_calls;
              return;
            }
            const std::uint32_t v =
                round == 0 ? src.ld(t, i) : dst.ld(t, i);
            t.work(work(i + round));
            cnt.atomic_add(t, slot(i + round), v);
            dst.st(t, i, v + 1);
          };
        };
        blk.for_each_thread(bound, body(0));
        blk.sync();
        blk.for_each_thread(bound, body(1));
      }
    });
    r.elapsed = dev.elapsed_seconds();
    r.stats = dev.last_stats();
  }
  set_reference_model(false);
  return r;
}

TEST(SimGolden, BoundedRegionsMatchGuardedUnboundedRegions) {
  // Nothing live, mid-warp, mid-warp of a later block, the tail warp of a
  // middle block, exactly the grid, and past it.
  for (const std::uint32_t live : {0u, 13u, 45u, 200u, 232u, kBoundThreads,
                                   kBoundThreads + 1, 1u << 30}) {
    for (const bool lane_loop : {false, true}) {
      SCOPED_TRACE("live " + std::to_string(live) +
                   (lane_loop ? ", lane-loop" : ", per-lane"));
      const BoundedRun truth = run_bounded(true, lane_loop, false, live);
      for (const bool reference : {false, true}) {
        for (const bool bounded : {false, true}) {
          SCOPED_TRACE(std::string(reference ? "reference" : "fast") +
                       (bounded ? ", bounded" : ", unbounded"));
          const BoundedRun r = run_bounded(reference, lane_loop, bounded, live);
          EXPECT_EQ(bits(truth.elapsed), bits(r.elapsed));
          expect_identical(truth.stats, r.stats);
          EXPECT_EQ(truth.out, r.out);
          EXPECT_EQ(truth.ctr, r.ctr);
          // Only the fast bounded region skips the threads past the bound;
          // the other runs call each of them (or their warps) per round.
          std::uint64_t idle_threads = 0, idle_warps = 0;
          for (std::uint32_t g = live; g < kBoundThreads; ++g) {
            ++idle_threads;
            if (g % kBoundBlock % 32 == 0) ++idle_warps;
          }
          const std::uint64_t unskipped =
              2 * (lane_loop ? idle_warps : idle_threads);
          EXPECT_EQ(r.idle_calls,
                    bounded && !reference ? std::uint64_t{0} : unskipped);
        }
      }
    }
  }
}

// --- lane-loop (de-SPMD) engine ---------------------------------------------
// The batched WarpCtx engine must agree with the per-lane Thread engine to
// the last bit: the paper's modeled numbers are not allowed to move because
// a kernel was rewritten in the vectorizable style. The per-lane tests above
// double as coverage for kernels kept on the for_each_thread compat path.

/// One elementwise round, per-lane style: guarded contiguous load, ALU work,
/// scattered distinct-address atomic add, contiguous store.
void elementwise_per_lane(Device& dev, std::uint32_t n,
                          std::span<std::uint32_t> in,
                          std::span<std::uint32_t> out,
                          std::span<std::uint32_t> ctr) {
  auto src = dev.array(in);
  auto dst = dev.array(out);
  auto cnt = dev.array(ctr);
  dev.launch(4, 256, [&](Block& blk) {
    blk.for_each_thread([&](Thread& t) {
      const std::uint32_t i = t.gidx();
      if (i >= n) return;
      const std::uint32_t v = src.ld(t, i);
      t.work(3.0);
      cnt.atomic_add(t, (i * 2654435761u) % ctr.size(), v);
      dst.st(t, i, v + 1);
    });
  });
}

/// The identical round in lane-loop style: same guard, same op sequence,
/// same addresses, batched per warp.
void elementwise_lane_loop(Device& dev, std::uint32_t n,
                           std::span<std::uint32_t> in,
                           std::span<std::uint32_t> out,
                           std::span<std::uint32_t> ctr) {
  auto src = dev.array(in);
  auto dst = dev.array(out);
  auto cnt = dev.array(ctr);
  dev.launch(4, 256, [&](Block& blk) {
    blk.for_each_warp([&](WarpCtx& w) {
      const std::uint32_t base = w.gidx_base();
      if (base >= n) return;
      const WarpCtx::Mask m = w.mask_first(n - base);
      LaneVec<std::uint32_t> v, inc, slot;
      src.ld_warp_c(w, m, base, v.v);
      w.work(m, 3.0);
      w.for_lanes(m, [&](int l) {
        slot[l] = ((base + static_cast<std::uint32_t>(l)) * 2654435761u) %
                  static_cast<std::uint32_t>(ctr.size());
      });
      cnt.atomic_add_warp(w, m, slot.v, v.v);
      w.for_lanes(m, [&](int l) { inc[l] = v[l] + 1; });
      dst.st_warp_c(w, m, base, inc.v);
    });
  });
}

TEST(SimGolden, LaneLoopBitIdenticalToPerLaneElementwise) {
  // n = 1000 on a 1024-thread grid: the last warp runs with a partial
  // mask_first mask in the lane-loop engine and per-lane early returns in
  // the legacy engine. Both engines, both model modes, one truth.
  constexpr std::uint32_t n = 1000;
  // One set of buffers for BOTH engines: the hotspot table hashes raw
  // addresses, so distinct allocations would legitimately chain atomics
  // into different slots and the comparison would test the allocator.
  std::vector<std::uint32_t> in(1024), out(1024), ctr(4096);
  for (std::uint32_t i = 0; i < in.size(); ++i) in[i] = i * 7 + 1;
  for (const bool reference : {false, true}) {
    set_reference_model(reference);
    Device per_lane(rtx3090_like()), lane_loop(rtx3090_like());
    std::fill(out.begin(), out.end(), 0u);
    std::fill(ctr.begin(), ctr.end(), 0u);
    elementwise_per_lane(per_lane, n, in, out, ctr);
    const std::vector<std::uint32_t> out_a = out, ctr_a = ctr;
    std::fill(out.begin(), out.end(), 0u);
    std::fill(ctr.begin(), ctr.end(), 0u);
    elementwise_lane_loop(lane_loop, n, in, out, ctr);
    set_reference_model(false);
    SCOPED_TRACE(reference ? "reference model" : "fast model");
    EXPECT_EQ(bits(per_lane.elapsed_seconds()),
              bits(lane_loop.elapsed_seconds()));
    expect_identical(per_lane.last_stats(), lane_loop.last_stats());
    EXPECT_EQ(out_a, out);  // functional agreement too
    EXPECT_EQ(ctr_a, ctr);
  }
}

TEST(SimGolden, LaneLoopDivergentEdgeLoopGolden) {
  // A push-style ragged edge loop in lane-loop form: the active mask decays
  // lane by lane (where-refinement), gathers go through ld_warp, and the
  // relaxations are scattered atomics plus cuda::atomic fetches (fence
  // charges). Ref mode stages every batch through the legacy flush; fast
  // mode uses the analytic paths — they must agree bit-for-bit.
  // Buffers live outside the workload: the ref and fast runs must hash the
  // exact same atomic addresses into the hotspot table.
  constexpr std::uint32_t n = 700;  // not a multiple of 256 or 32
  std::vector<std::uint32_t> deg(n), dist(n), adist(n);
  for (std::uint32_t i = 0; i < n; ++i) deg[i] = i % 9;
  expect_golden([&](Device& dev, auto snap) {
    std::fill(dist.begin(), dist.end(), 0xffffffffu);
    std::fill(adist.begin(), adist.end(), ~0u);
    auto dg = dev.array(std::span<std::uint32_t>(deg));
    auto d = dev.array(std::span<std::uint32_t>(dist));
    auto ad = dev.array(std::span<std::uint32_t>(adist));
    dev.launch(3, 256, [&](Block& blk) {
      blk.for_each_warp([&](WarpCtx& w) {
        const std::uint32_t base = w.gidx_base();
        if (base >= n) return;
        const WarpCtx::Mask active = w.mask_first(n - base);
        LaneVec<std::uint32_t> k, lim, u, nd;
        dg.ld_warp_c(w, active, base, lim.v);
        w.for_lanes(active, [&](int l) {
          k[l] = 0;
          nd[l] = base + static_cast<std::uint32_t>(l);
        });
        WarpCtx::Mask live =
            w.where(active, [&](int l) { return k[l] < lim[l]; });
        while (live != 0) {
          w.for_lanes(live, [&](int l) {
            u[l] = (nd[l] * 31u + k[l] * 131u) % n;  // scattered neighbor
          });
          d.atomic_min_warp(w, live, u.v, nd.v);
          ad.afetch_min_warp(w, live, u.v, nd.v);  // fenced flavor
          w.work(live, 2.0);
          w.for_lanes(live, [&](int l) { ++k[l]; });
          live = w.where(live, [&](int l) { return k[l] < lim[l]; });
        }
      });
    });
    snap();
  });
}

TEST(SimGolden, LaneLoopAllInactiveAndTailWarps) {
  // 80-thread blocks make a 16-lane tail warp (width() < warp_size, partial
  // full()); n = 40 leaves that tail warp and half of warp 1 fully masked
  // out. Fully inactive batches must charge nothing and stay golden.
  expect_golden([](Device& dev, auto snap) {
    constexpr std::uint32_t n = 40;
    std::vector<std::uint32_t> buf(128, 5), out(128, 0);
    auto src = dev.array(std::span<std::uint32_t>(buf));
    auto dst = dev.array(std::span<std::uint32_t>(out));
    dev.launch(1, 80, [&](Block& blk) {
      blk.for_each_warp([&](WarpCtx& w) {
        EXPECT_LE(w.width(), 32);
        const std::uint32_t base = w.gidx_base();
        // Deliberately no early return: warps past n see mask_first(0) == 0
        // and every accessor must be a no-op on an empty mask.
        const WarpCtx::Mask m =
            base >= n ? w.mask_first(0) : w.mask_first(n - base);
        LaneVec<std::uint32_t> v;
        src.ld_warp_c(w, m, base, v.v);
        w.for_lanes(m, [&](int l) { v[l] *= 2; });
        dst.st_warp_c(w, m, base, v.v);
      });
    });
    snap();
  });
  // Functional spot-check of the same shape outside the golden harness.
  Device dev(rtx3090_like());
  std::vector<std::uint32_t> buf(128, 5), out(128, 0);
  auto src = dev.array(std::span<std::uint32_t>(buf));
  auto dst = dev.array(std::span<std::uint32_t>(out));
  dev.launch(1, 80, [&](Block& blk) {
    blk.for_each_warp([&](WarpCtx& w) {
      const std::uint32_t base = w.gidx_base();
      const WarpCtx::Mask m = base >= 40 ? 0 : w.mask_first(40 - base);
      LaneVec<std::uint32_t> v;
      src.ld_warp_c(w, m, base, v.v);
      w.for_lanes(m, [&](int l) { v[l] *= 2; });
      dst.st_warp_c(w, m, base, v.v);
    });
  });
  for (std::uint32_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i < 40 ? 10u : 0u) << i;
  }
}

// --- sequenced accessors, edge_walk, block atomics --------------------------
// The ragged-kernel migration relies on three primitives beyond the plain
// batched accessors: *sequenced* accessors (functional effects applied in the
// per-lane engine's scrambled lane order, so same-batch address collisions
// replay the exact old-value chains), the edge_walk ragged-walk helper
// (prefix-mask rounds with body-driven refinement), and the lane-batched
// shared-memory atomic. Each twin below runs the same kernel per-lane and
// lane-loop on one set of buffers and demands identical stats AND values.

TEST(SimGolden, SequencedAccessorsReplayPerLaneCollisions) {
  // Every lane of a warp fetch_min's into ONE of two hot slots and then
  // conditionally stores a flag: the fetch returns (and therefore the flag
  // stores) depend on the lane application order, which for the per-lane
  // engine is the scrambled coprime order — the sequenced accessor must
  // reproduce it exactly, in both model modes.
  constexpr std::uint32_t kN = 256;
  std::vector<std::uint32_t> slots(64), flag(4);
  for (const bool reference : {false, true}) {
    set_reference_model(reference);
    SCOPED_TRACE(reference ? "reference model" : "fast model");
    auto run = [&](bool lane_loop) {
      std::fill(slots.begin(), slots.end(), 0xffffffffu);
      std::fill(flag.begin(), flag.end(), 0u);
      Device dev(rtx3090_like());
      auto sl = dev.array(std::span<std::uint32_t>(slots));
      auto fl = dev.array(std::span<std::uint32_t>(flag));
      dev.launch(2, 128, [&](Block& blk) {
        if (lane_loop) {
          blk.for_each_warp([&](WarpCtx& w) {
            const WarpCtx::Mask m = w.full();
            LaneVec<std::uint32_t> idx, val, old, fidx, one;
            w.for_lanes(m, [&](int l) {
              idx[l] = w.tid(l) % 2;       // two hot slots per block
              val[l] = 1000u - w.gidx(l);  // later lanes win
            });
            sl.atomic_min_warp_seq(w, m, idx.v, val.v, old.v);
            const WarpCtx::Mask imp =
                w.where(m, [&](int l) { return val[l] < old[l]; });
            w.for_lanes(imp, [&](int l) {
              fidx[l] = 0;
              one[l] = 1u;
            });
            fl.st_warp_seq(w, imp, fidx.v, one.v);
          });
        } else {
          blk.for_each_thread([&](Thread& t) {
            const std::uint32_t old =
                sl.atomic_min(t, t.thread_idx() % 2, 1000u - t.gidx());
            if (1000u - t.gidx() < old) fl.st(t, 0, 1u);
          });
        }
      });
      return dev.elapsed_seconds();
    };
    const double s_pl = run(false);
    const std::vector<std::uint32_t> slots_pl = slots, flag_pl = flag;
    const double s_ll = run(true);
    EXPECT_EQ(bits(s_pl), bits(s_ll));
    EXPECT_EQ(slots_pl, slots);
    EXPECT_EQ(flag_pl, flag);
    (void)kN;
  }
  set_reference_model(false);
}

TEST(SimGolden, EdgeWalkMatchesPerLaneStridedLoop) {
  // A warp-granularity ragged neighbour scan in both styles: per-lane
  // strided loops whose trip counts differ per lane vs edge_walk's
  // round-major batches. With a uniform stride the live masks are exactly
  // the per-lane op groups, so stats must match bit-for-bit; the body also
  // refines the mask (drops lanes that hit a sentinel) to exercise the
  // data-dependent-break mapping used by the MIS scan region.
  constexpr std::uint32_t n = 96;
  std::vector<std::uint32_t> degv(n), out(n);
  for (std::uint32_t i = 0; i < n; ++i) degv[i] = (i * 13u) % 40u;
  for (const bool reference : {false, true}) {
    set_reference_model(reference);
    SCOPED_TRACE(reference ? "reference model" : "fast model");
    auto run = [&](bool lane_loop) {
      std::fill(out.begin(), out.end(), 0u);
      Device dev(rtx3090_like());
      auto dg = dev.array(std::span<std::uint32_t>(degv));
      auto dst = dev.array(std::span<std::uint32_t>(out));
      dev.launch(3, 64, [&](Block& blk) {
        if (lane_loop) {
          blk.for_each_warp([&](WarpCtx& w) {
            const std::uint32_t v = w.gidx_base() / 32;
            const WarpCtx::Mask all = w.full();
            LaneVec<std::uint32_t> vv, lim, e, fin, x, sidx;
            w.for_lanes(all, [&](int l) { vv[l] = v; });
            dg.ld_warp(w, all, vv.v, lim.v);
            w.for_lanes(all, [&](int l) {
              e[l] = static_cast<std::uint32_t>(l);
              fin[l] = lim[l];
              sidx[l] = (v * 32u + static_cast<std::uint32_t>(l)) % n;
            });
            w.edge_walk(all, e, fin, 32u, [&](WarpCtx::Mask live) {
              w.for_lanes(live, [&](int l) { vv[l] = (v + e[l]) % n; });
              dg.ld_warp(w, live, vv.v, x.v);
              dst.atomic_add_warp(w, live, sidx.v, x.v);
              w.work(live, 1.0);
              // Lanes that read a sentinel degree leave the walk early —
              // the round-end refinement that models a per-lane `break`.
              const WarpCtx::Mask done =
                  w.where(live, [&](int l) { return x[l] == 39u; });
              return static_cast<WarpCtx::Mask>(live & ~done);
            });
          });
        } else {
          blk.for_each_thread([&](Thread& t) {
            const std::uint32_t v = t.gidx() / 32;
            const std::uint32_t lim = dg.ld(t, v);
            const std::uint32_t sidx =
                (v * 32u + static_cast<std::uint32_t>(t.lane())) % n;
            for (std::uint32_t e = static_cast<std::uint32_t>(t.lane());
                 e < lim; e += 32u) {
              const std::uint32_t x = dg.ld(t, (v + e) % n);
              dst.atomic_add(t, sidx, x);
              t.work(1.0);
              if (x == 39u) break;
            }
          });
        }
      });
      return dev.elapsed_seconds();
    };
    const double s_pl = run(false);
    const std::vector<std::uint32_t> out_pl = out;
    const double s_ll = run(true);
    EXPECT_EQ(bits(s_pl), bits(s_ll));
    EXPECT_EQ(out_pl, out);
  }
  set_reference_model(false);
}

TEST(SimGolden, FusedRelaxMinMatchesUnfusedPair) {
  // WarpCtx::relax_min fuses the per-round body of a push-relaxation edge
  // walk (gather col, atomicMin into dist) into one mask scan. Its contract
  // is bit-identity with the unfused ld_warp + atomic_min_warp pair, in
  // values and in modeled time, across both model modes.
  constexpr std::uint32_t n = 64;
  std::vector<eid_t> rowv(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    rowv[v + 1] = rowv[v] + (v * 7u) % 23u;  // skewed ragged degrees
  }
  std::vector<vid_t> colv(rowv[n]);
  for (std::size_t j = 0; j < colv.size(); ++j) {
    colv[j] = static_cast<vid_t>((j * 29u + 5u) % n);  // scattered targets
  }
  std::vector<std::uint32_t> dist(n);
  for (const bool reference : {false, true}) {
    set_reference_model(reference);
    SCOPED_TRACE(reference ? "reference model" : "fast model");
    auto run = [&](bool fused) {
      for (std::uint32_t v = 0; v < n; ++v) dist[v] = (v * 11u) % 37u;
      Device dev(rtx3090_like());
      auto row = dev.array(std::span<const eid_t>(rowv));
      auto col = dev.array(std::span<const vid_t>(colv));
      auto d = dev.array(std::span<std::uint32_t>(dist));
      dev.launch(2, 32, [&](Block& blk) {
        blk.for_each_warp([&](WarpCtx& w) {
          const std::uint32_t base = w.gidx_base();
          const WarpCtx::Mask active = w.mask_first(n - base);
          LaneVec<std::uint32_t> dv, nd;
          LaneVec<eid_t> cur, hi;
          LaneVec<vid_t> u;
          d.ld_warp_c(w, active, base, dv.v);
          row.ld_warp_c(w, active, base, cur.v);
          row.ld_warp_c(w, active, base + 1, hi.v);
          w.for_lanes(active, [&](int l) { nd[l] = dv[l] + 1; });
          w.edge_walk(active, cur, hi, eid_t{1}, [&](WarpCtx::Mask live) {
            if (fused) {
              w.relax_min(live, col, cur.v, d, nd.v, u.v);
            } else {
              col.ld_warp(w, live, cur.v, u.v);
              d.atomic_min_warp(w, live, u.v, nd.v);
            }
            return live;
          });
        });
      });
      return dev.elapsed_seconds();
    };
    const double s_un = run(false);
    const std::vector<std::uint32_t> dist_un = dist;
    const double s_fu = run(true);
    EXPECT_EQ(bits(s_un), bits(s_fu));
    EXPECT_EQ(dist_un, dist);
  }
  set_reference_model(false);
}

TEST(SimGolden, BlockAtomicAddWarpTwin) {
  std::vector<std::uint32_t> out(8);
  for (const bool reference : {false, true}) {
    set_reference_model(reference);
    SCOPED_TRACE(reference ? "reference model" : "fast model");
    auto run = [&](bool lane_loop) {
      std::fill(out.begin(), out.end(), 0u);
      Device dev(rtx3090_like());
      auto dst = dev.array(std::span<std::uint32_t>(out));
      dev.launch(2, 96, [&](Block& blk) {
        auto sh = blk.shared_array<std::uint32_t>(1);
        if (lane_loop) {
          blk.for_each_warp([&](WarpCtx& w) {
            const WarpCtx::Mask m = w.full();
            LaneVec<std::uint32_t> val;
            w.for_lanes(m, [&](int l) { val[l] = w.gidx(l) + 1; });
            blk.atomic_add_block_warp(w, m, sh[0], val.v);
          });
        } else {
          blk.for_each_thread(
              [&](Thread& t) { blk.atomic_add_block(t, sh[0], t.gidx() + 1); });
        }
        blk.sync();
        blk.for_each_thread([&](Thread& t) {
          if (t.thread_idx() == 0) dst.st(t, blk.block_idx(), sh[0]);
        });
      });
      return dev.elapsed_seconds();
    };
    const double s_pl = run(false);
    const std::vector<std::uint32_t> out_pl = out;
    const double s_ll = run(true);
    EXPECT_EQ(bits(s_pl), bits(s_ll));
    EXPECT_EQ(out_pl, out);
  }
  set_reference_model(false);
}

// --- engine-switch equivalence over the real variants -----------------------
// The tentpole guarantee: every kernel migrated to the lane-loop engine is
// bit-identical to its per-lane reference body — modeled seconds, iteration
// counts, and every output field. Kernels held on the compat path run the
// same body under both engines, so the whole registry must agree; MIS and PR
// stress sibling-lane visibility (in-place NonDet updates, worklist requeue
// chains, shared-flag pipelines) across the style axes.
TEST(SimGolden, EngineSwitchVariantsBitIdentical) {
  variants::register_all_variants();
  const Graph g = make_rmat(8);
  const auto cuda = Registry::instance().select(Model::Cuda, std::nullopt);
  ASSERT_FALSE(cuda.empty());
  RunOptions opts;
  opts.source = 0;
  std::size_t checked = 0, ref_checked = 0;
  for (const Variant* v : cuda) {
    const bool migrated_family = v->algo == Algorithm::MIS ||
                                 v->algo == Algorithm::PR ||
                                 v->algo == Algorithm::TC;
    ++checked;
    set_warp_engine(WarpEngine::PerLane);
    const RunResult per_lane = v->run(g, opts);
    set_warp_engine(WarpEngine::LaneLoop);
    const RunResult lane_loop = v->run(g, opts);
    EXPECT_EQ(bits(per_lane.seconds), bits(lane_loop.seconds)) << v->name;
    EXPECT_EQ(per_lane.iterations, lane_loop.iterations) << v->name;
    EXPECT_EQ(per_lane.converged, lane_loop.converged) << v->name;
    EXPECT_EQ(per_lane.output.labels, lane_loop.output.labels) << v->name;
    EXPECT_EQ(per_lane.output.count, lane_loop.output.count) << v->name;
    ASSERT_EQ(per_lane.output.ranks.size(), lane_loop.output.ranks.size())
        << v->name;
    for (std::size_t i = 0; i < per_lane.output.ranks.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(per_lane.output.ranks[i]),
                std::bit_cast<std::uint32_t>(lane_loop.output.ranks[i]))
          << v->name << " rank " << i;
    }
    // Spot-check the first few migrated variants in reference-model mode
    // too: engine equivalence must hold under the legacy flush as well.
    if (migrated_family && ref_checked < 6) {
      set_reference_model(true);
      set_warp_engine(WarpEngine::PerLane);
      const RunResult rp = v->run(g, opts);
      set_warp_engine(WarpEngine::LaneLoop);
      const RunResult rl = v->run(g, opts);
      set_reference_model(false);
      EXPECT_EQ(bits(rp.seconds), bits(rl.seconds)) << v->name << " (ref)";
      EXPECT_EQ(rp.output.labels, rl.output.labels) << v->name << " (ref)";
      ++ref_checked;
    }
  }
  set_warp_engine(WarpEngine::LaneLoop);
  EXPECT_GT(ref_checked, 0u);
}

// --- integral reduction (TC count precision) --------------------------------
// TC used to accumulate per-block counts in double shared slots and cast the
// reduced total to uint64: any block total above 2^53 silently truncated.
// The uint64 reduce_add overload must be exact where the double tree is not.
TEST(SimGolden, ReduceAddUint64ExactAbove2p53) {
  Device dev(rtx3090_like());
  constexpr std::uint64_t kBig = 1ull << 53;
  dev.launch(1, 64, [&](Block& blk) {
    std::vector<std::uint64_t> vals(64, 0);
    vals[0] = kBig + 1;  // not representable as double
    vals[1] = 1;
    vals[63] = 3;
    const std::uint64_t exact =
        blk.reduce_add(std::span<const std::uint64_t>(vals));
    EXPECT_EQ(exact, kBig + 5);
    // The old double pipeline loses the low bits of the same data.
    std::vector<double> dvals(vals.begin(), vals.end());
    const double rounded = blk.reduce_add(std::span<const double>(dvals));
    EXPECT_NE(static_cast<std::uint64_t>(rounded), kBig + 5);
  });
}

// --- worklist overflow recovery ---------------------------------------------
// Edge-mode data-driven relaxation pushes whole degree ranges through one
// fetch_add; with the logical capacity clamped tiny, every iteration
// overflows, the device guard saturates the counter instead of wrapping it,
// and the host recovery sweep must still converge to the right labels.
TEST(SimGolden, WorklistOverflowRecoverySweep) {
  variants::register_all_variants();
  const Graph g = make_rmat(7);
  const auto cuda = Registry::instance().select(Model::Cuda, std::nullopt);
  RunOptions opts;
  opts.source = 0;
  std::size_t tested = 0;
  for (const Variant* v : cuda) {
    if (v->algo != Algorithm::BFS || v->style.flow != Flow::Edge ||
        v->style.drive == Drive::Topology) {
      continue;
    }
    const RunResult normal = v->run(g, opts);
    RunOptions tiny = opts;
    tiny.wl_cap_override = 8;  // far below any frontier's degree sum
    const RunResult forced = v->run(g, tiny);
    EXPECT_TRUE(forced.converged) << v->name;
    EXPECT_EQ(normal.output.labels, forced.output.labels) << v->name;
    if (++tested >= 4) break;  // a few duplicate/no-dup × det/non-det shapes
  }
  EXPECT_GT(tested, 0u);
}

// --- host-address independence ----------------------------------------------
// Modeled time must not depend on where the host heap lands: Device::array
// assigns deterministic virtual bases for recording, so the same kernel on
// buffers at different host addresses / 128B phases models identically.
// (With real addresses, ASLR made atomic-chain hash collisions — and with
// them cudaatomic modeled seconds — vary from process to process.)
TEST(SimGolden, ModeledTimeIndependentOfHostAddresses) {
  constexpr std::uint32_t kN = 2048;
  // One oversized backing store; carve the working arrays out at a given
  // element offset so both their addresses and their transaction-line
  // phases differ between the two runs.
  auto run_at = [&](std::size_t off) {
    std::vector<std::uint32_t> backing(2 * kN + 512, 0);
    std::vector<std::uint32_t> hist(kN, 0);
    Device dev(rtx3090_like());
    auto vals =
        dev.array(std::span<std::uint32_t>(backing.data() + off, kN));
    auto hot = dev.array(std::span<std::uint32_t>(hist));
    dev.launch(kN / 256, 256, [&](Block& blk) {
      blk.for_each_thread([&](Thread& t) {
        const std::uint32_t i = t.gidx();
        const std::uint32_t v = vals.ld(t, i);
        // Scattered RMWs: chain identity flows through the hotspot hash,
        // which the old real-address model made layout-dependent.
        hot.afetch_add(t, (v + i * 37u) % kN, 1u);
        vals.st(t, i, v + 1);
      });
    });
    return std::pair{dev.last_stats(), dev.elapsed_seconds()};
  };
  const auto [a, sa] = run_at(0);
  const auto [b, sb] = run_at(33);  // different address AND line phase
  expect_identical(a, b);
  EXPECT_EQ(bits(sa), bits(sb));
}

}  // namespace
}  // namespace indigo::vcuda
