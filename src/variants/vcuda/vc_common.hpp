// Shared machinery of the virtual-CUDA variant families: the style-driven
// accessor (classic atomics vs cuda::atomic-with-defaults, paper 2.9), the
// granularity/persistence work-item loops (2.7, 2.8), and grid sizing.
#pragma once

#include <algorithm>
#include <cstdint>

#include "variants/common.hpp"
#include "vcuda/sim.hpp"

namespace indigo::variants::vc {

/// CUDA warp size; the simulator's DeviceSpecs use the same value.
inline constexpr std::uint32_t kWS = 32;
/// Block size used by all suite kernels (the paper's codes use a fixed
/// launch configuration; 256 is the common choice).
inline constexpr std::uint32_t kBD = 256;

/// Shared-data accessor: Classic maps to plain loads/stores and classic
/// atomics (Listing 9a); CudaAtomic maps to cuda::atomic with DEFAULT
/// scope/order (Listing 9b), whose loads and stores are fenced and whose
/// RMWs are drastically slower (Section 5.1). Graph topology arrays are
/// never atomic, so kernels read those with plain ld() directly.
template <AtomicsLib A>
struct Ops {
  template <typename T>
  static T ld(vcuda::Thread& t, const vcuda::DeviceArray<T>& a,
              std::size_t i) {
    if constexpr (A == AtomicsLib::Classic) {
      return a.ld(t, i);
    } else {
      return a.ald(t, i);
    }
  }
  template <typename T>
  static void st(vcuda::Thread& t, const vcuda::DeviceArray<T>& a,
                 std::size_t i, T v) {
    if constexpr (A == AtomicsLib::Classic) {
      a.st(t, i, v);
    } else {
      a.ast(t, i, v);
    }
  }
  template <typename T>
  static T fetch_min(vcuda::Thread& t, const vcuda::DeviceArray<T>& a,
                     std::size_t i, T v) {
    if constexpr (A == AtomicsLib::Classic) {
      return a.atomic_min(t, i, v);
    } else {
      return a.afetch_min(t, i, v);
    }
  }
  template <typename T>
  static T fetch_max(vcuda::Thread& t, const vcuda::DeviceArray<T>& a,
                     std::size_t i, T v) {
    if constexpr (A == AtomicsLib::Classic) {
      return a.atomic_max(t, i, v);
    } else {
      return a.afetch_max(t, i, v);
    }
  }
  template <typename T>
  static T fetch_add(vcuda::Thread& t, const vcuda::DeviceArray<T>& a,
                     std::size_t i, T v) {
    if constexpr (A == AtomicsLib::Classic) {
      return a.atomic_add(t, i, v);
    } else {
      return a.afetch_add(t, i, v);
    }
  }
};

/// Lane-batched sibling of Ops: one call performs the accessor for every
/// lane of the mask as one SIMT instruction group, dispatching on the
/// atomics library exactly like Ops. All mutating forms are the *sequenced*
/// accessors (functional effects in the per-lane engine's scrambled lane
/// order), so a migrated kernel's same-batch address collisions reproduce
/// the per-lane path's old-value chains bit-for-bit; for collision-free
/// batches sequenced and ascending application coincide anyway.
template <AtomicsLib A>
struct WOps {
  template <typename T, typename Idx>
  static void ld(vcuda::WarpCtx& w, vcuda::WarpCtx::Mask m,
                 const vcuda::DeviceArray<T>& a, const Idx* idx, T* out) {
    if constexpr (A == AtomicsLib::Classic) {
      a.ld_warp(w, m, idx, out);
    } else {
      a.ald_warp(w, m, idx, out);
    }
  }
  template <typename T, typename Idx>
  static void st(vcuda::WarpCtx& w, vcuda::WarpCtx::Mask m,
                 const vcuda::DeviceArray<T>& a, const Idx* idx,
                 const T* val) {
    if constexpr (A == AtomicsLib::Classic) {
      a.st_warp_seq(w, m, idx, val);
    } else {
      a.ast_warp_seq(w, m, idx, val);
    }
  }
  template <typename T, typename Idx>
  static void fetch_min(vcuda::WarpCtx& w, vcuda::WarpCtx::Mask m,
                        const vcuda::DeviceArray<T>& a, const Idx* idx,
                        const T* val, T* old = nullptr) {
    if constexpr (A == AtomicsLib::Classic) {
      a.atomic_min_warp_seq(w, m, idx, val, old);
    } else {
      a.afetch_min_warp_seq(w, m, idx, val, old);
    }
  }
  template <typename T, typename Idx>
  static void fetch_max(vcuda::WarpCtx& w, vcuda::WarpCtx::Mask m,
                        const vcuda::DeviceArray<T>& a, const Idx* idx,
                        const T* val, T* old = nullptr) {
    if constexpr (A == AtomicsLib::Classic) {
      a.atomic_max_warp_seq(w, m, idx, val, old);
    } else {
      a.afetch_max_warp_seq(w, m, idx, val, old);
    }
  }
  template <typename T, typename Idx>
  static void fetch_add(vcuda::WarpCtx& w, vcuda::WarpCtx::Mask m,
                        const vcuda::DeviceArray<T>& a, const Idx* idx,
                        const T* val, T* old = nullptr) {
    if constexpr (A == AtomicsLib::Classic) {
      a.atomic_add_warp_seq(w, m, idx, val, old);
    } else {
      a.afetch_add_warp_seq(w, m, idx, val, old);
    }
  }
};

/// True when the migrated kernels should run their lane-loop bodies; false
/// keeps the per-lane reference bodies (tests flip this to prove engine
/// equivalence).
[[nodiscard]] inline bool use_lane_loop() {
  return vcuda::warp_engine() == vcuda::WarpEngine::LaneLoop;
}

/// Grid size for `items` work items under the granularity/persistence
/// styles. Persistent kernels use a device-filling grid and stride
/// (Listing 7a); non-persistent kernels launch one thread/warp/block per
/// item (Listing 7b).
template <Granularity G, Persistence P>
std::uint32_t grid_for(const vcuda::Device& dev, std::uint32_t items,
                       std::uint32_t bd = kBD) {
  if constexpr (P == Persistence::Persistent) {
    return dev.persistent_grid_dim(bd);
  }
  if constexpr (G == Granularity::Thread) {
    return (items + bd - 1) / bd;
  } else if constexpr (G == Granularity::Warp) {
    const std::uint64_t threads = static_cast<std::uint64_t>(items) * kWS;
    return static_cast<std::uint32_t>((threads + bd - 1) / bd);
  } else {
    return items;
  }
}

/// Runs fn(item, inner_offset, inner_stride) for every work item this
/// thread participates in. Thread granularity gives the whole inner loop
/// to one thread (Listing 8a); warp/block granularity strides the inner
/// loop across the warp's/block's threads (Listings 8b, 8c).
template <Granularity G, Persistence P, typename Fn>
void for_items(vcuda::Thread& t, std::uint32_t items, Fn&& fn) {
  if constexpr (G == Granularity::Thread) {
    if constexpr (P == Persistence::Persistent) {
      for (std::uint32_t i = t.gidx(); i < items; i += t.total_threads()) {
        fn(i, 0u, 1u);
      }
    } else {
      const std::uint32_t i = t.gidx();
      if (i < items) fn(i, 0u, 1u);
    }
  } else if constexpr (G == Granularity::Warp) {
    const std::uint32_t wid = t.gidx() / kWS;
    const auto lane = static_cast<std::uint32_t>(t.lane());
    if constexpr (P == Persistence::Persistent) {
      const std::uint32_t nwarps = t.total_threads() / kWS;
      for (std::uint32_t i = wid; i < items; i += nwarps) {
        fn(i, lane, kWS);
      }
    } else {
      if (wid < items) fn(wid, lane, kWS);
    }
  } else {
    if constexpr (P == Persistence::Persistent) {
      for (std::uint32_t i = t.block_idx(); i < items; i += t.grid_dim()) {
        fn(i, t.thread_idx(), t.block_dim());
      }
    } else {
      if (t.block_idx() < items) {
        fn(t.block_idx(), t.thread_idx(), t.block_dim());
      }
    }
  }
}

/// Lane-loop (de-SPMD) form of for_items<Granularity::Thread, P>: runs
/// fn(mask, base) for every warp-wide batch of work items, where lane l of
/// the batch owns item base + l and `mask` guards the `gidx < items` tail.
/// Batch-for-batch this visits exactly the item set the per-lane loop
/// visits (lane l of batch j has base + l == gidx + j * total_threads), so
/// elementwise kernels migrate between the two forms without any accounting
/// change. Only Thread granularity has a lane-loop form: warp/block
/// granularity already strides one item's inner loop across lanes.
template <Persistence P, typename Fn>
void for_items_warp(vcuda::WarpCtx& w, std::uint32_t items, Fn&& fn) {
  if constexpr (P == Persistence::Persistent) {
    for (std::uint32_t base = w.gidx_base(); base < items;
         base += w.total_threads()) {
      fn(w.mask_first(items - base), base);
    }
  } else {
    const std::uint32_t base = w.gidx_base();
    if (base < items) fn(w.mask_first(items - base), base);
  }
}

/// Threads that own at least one of `items` work items under granularity
/// G: a gidx prefix of items x {1, kWS, block_dim} threads (thread g serves
/// item g, warp g / kWS, block g / block_dim — persistent strides only add
/// items to threads already in the prefix). Saturates at the uint32 range,
/// which the simulator reads as "every thread".
template <Granularity G>
std::uint32_t live_threads(std::uint32_t items, std::uint32_t bd = kBD) {
  std::uint64_t per_item = 1;
  if constexpr (G == Granularity::Warp) per_item = kWS;
  if constexpr (G == Granularity::Block) per_item = bd;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      items * per_item, vcuda::Block::kAllLive));
}

/// Threads live in batch `batch` of a warp/block pipeline that hands group
/// g the item g + batch * groups_total: those of the groups whose item is
/// still below `items` (a gidx prefix, like live_threads<G>).
template <Granularity G>
std::uint32_t batch_live_threads(std::uint32_t items, std::uint32_t batch,
                                 std::uint32_t groups_total) {
  const std::uint64_t first = std::uint64_t{batch} * groups_total;
  if (first >= items) return 0;
  return live_threads<G>(items - static_cast<std::uint32_t>(first));
}

/// One barrier-delimited region running fn(t, item, inner_offset,
/// inner_stride) over for_items<G, P>. The region is bounded to the threads
/// that own items (live_threads<G>), so the simulator skips the idle rest
/// of a device-filling persistent grid without interpreting it.
template <Granularity G, Persistence P, typename Fn>
void for_items_region(vcuda::Block& blk, std::uint32_t items, Fn&& fn) {
  blk.for_each_thread(
      live_threads<G>(items, blk.block_dim()), [&](vcuda::Thread& t) {
        for_items<G, P>(t, items,
                        [&](std::uint32_t i, std::uint32_t off,
                            std::uint32_t stride) { fn(t, i, off, stride); });
      });
}

/// Lane-loop sibling of for_items_region<Granularity::Thread, P>: one
/// bounded region running fn(w, mask, base) over for_items_warp<P>.
template <Persistence P, typename Fn>
void for_items_warp_region(vcuda::Block& blk, std::uint32_t items, Fn&& fn) {
  blk.for_each_warp(live_threads<Granularity::Thread>(items),
                    [&](vcuda::WarpCtx& w) {
                      for_items_warp<P>(
                          w, items,
                          [&](vcuda::WarpCtx::Mask mask, std::uint32_t base) {
                            fn(w, mask, base);
                          });
                    });
}

/// Drains the BlockAdd/ReductionAdd accumulators after a kernel's main
/// region(s) — the shared tail of every GPU-reduction kernel (paper
/// Listing 10b/10c): barrier, optional warp+block tree combine, then the
/// block leader commits the block total through `commit(t, total)`.
/// GlobalAdd styles have nothing to drain and this is a no-op. T is the
/// accumulator type (double for PR residuals, uint64 for lossless triangle
/// counts — Block::reduce_add charges identically for both).
template <GpuReduction R, typename T, typename Commit>
void drain_reduction(vcuda::Block& blk, std::span<T> slots, T& block_ctr,
                     Commit&& commit) {
  if constexpr (R != GpuReduction::GlobalAdd) {
    blk.sync();
    T total = block_ctr;
    if constexpr (R == GpuReduction::ReductionAdd) {
      total = blk.reduce_add(slots);
    }
    // Leader-only commit: in this block only thread 0 has a gidx below
    // block_idx * block_dim + 1, so the region is bounded to it.
    blk.for_each_thread(blk.block_idx() * blk.block_dim() + 1,
                        [&](vcuda::Thread& t) {
                          if (t.thread_idx() == 0) commit(t, total);
                        });
  }
}

/// Default device used when RunOptions does not name one.
const vcuda::DeviceSpec& default_device();

}  // namespace indigo::variants::vc
