// Observability demo: re-derives the paper's Section 5.5 explanation of the
// push-vs-pull gap from hardware-style counters instead of asserting it.
//
// The paper argues push-style codes win on the worklist/non-deterministic
// styles but lose their advantage where same-address atomic traffic piles
// up: push writes to the *neighbor's* label, so hub vertices of a power-law
// graph become serialization hotspots, while pull only writes to the
// vertex a thread owns. With the obs layer on, the simulator exports the
// same-address conflict chains its timing model already charges, so the
// mechanism is observable per program: this binary measures matched
// push/pull pairs of virtual-CUDA SSSP on the RMAT input and prints their
// atomic-conflict counters side by side.
//
// Run with INDIGO_TRACE=trace.json and/or INDIGO_METRICS=runs.jsonl to get
// the exportable artifacts (per-launch spans; per-measurement records).
#include <iostream>
#include <map>
#include <vector>

#include "bench_util/main.hpp"
#include "bench_util/printing.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "vcuda/arena.hpp"
#include "vcuda/sim.hpp"

int main(int argc, char** argv) {
  using namespace indigo;
  bench::MainOptions mo;
  mo.id = "Obs report";
  mo.title = "Section 5.5 push vs pull, explained by counters";
  mo.paper_claim =
      "Push-style SSSP updates neighbor labels and therefore accumulates "
      "same-address atomic conflicts on RMAT hub vertices; pull-style "
      "updates only the owned vertex and stays conflict-free.";
  // Counters are the whole point here: force the layer on even when no
  // INDIGO_TRACE/INDIGO_METRICS export was requested.
  mo.force_obs = true;
  return bench::Main(argc, argv, mo, [](bench::Harness& h,
                                        const bench::BenchArgs& args) {
    const Graph* rmat = nullptr;
    for (const Graph& g : h.graphs()) {
      if (g.name().starts_with("rmat-")) rmat = &g;
    }
    if (rmat == nullptr) {
      std::cerr << "no rmat input generated\n";
      return 1;
    }

    // Matched pairs: identical style except the Direction dimension.
    // Read-modify-write classic atomics so the conflict chains are the
    // mechanism under observation (read-write push races instead of
    // serializing, and cuda::atomic adds the orthogonal fence penalty).
    const auto selected =
        Registry::instance().select(Model::Cuda, Algorithm::SSSP);
    std::map<std::string, const Variant*> push_of, pull_of;
    for (const Variant* v : selected) {
      if (v->style.alib != AtomicsLib::Classic) continue;
      if (v->style.upd != Update::ReadModifyWrite) continue;
      const StyleConfig base =
          with_dimension(v->style, Dimension::Direction, 0);
      const std::string key =
          program_name(Model::Cuda, Algorithm::SSSP, base);
      (v->style.dir == Direction::Push ? push_of : pull_of)[key] = v;
    }

    std::vector<std::string> row_labels;
    std::vector<std::vector<double>> cells;
    int pairs = 0, push_heavier = 0;
    double push_total = 0, pull_total = 0;
    for (const auto& [key, push_v] : push_of) {
      const auto it = pull_of.find(key);
      if (it == pull_of.end()) continue;
      const Measurement mp = h.measure_one(*push_v, *rmat, nullptr, args.reps);
      const Measurement ml =
          h.measure_one(*it->second, *rmat, nullptr, args.reps);
      if (!mp.verified || !ml.verified) continue;
      auto conflicts = [](const Measurement& m) {
        const auto c = m.metrics.find("vcuda.atomic_conflicts");
        return c == m.metrics.end() ? 0.0 : c->second;
      };
      const double cp = conflicts(mp), cl = conflicts(ml);
      ++pairs;
      push_heavier += cp > cl;
      push_total += cp;
      pull_total += cl;
      row_labels.push_back(key);
      cells.push_back({cp, cl, mp.throughput_ges / ml.throughput_ges});
    }

    bench::print_matrix(
        row_labels, {"conflicts(push)", "conflicts(pull)", "thr push/pull"},
        cells, 2);
    std::cout << "\npairs: " << pairs << ", push heavier in " << push_heavier
              << "; total conflicts push=" << push_total
              << " pull=" << pull_total << '\n';

    // Distribution shape, not just extremes: the registry snapshot now
    // carries log2-bucket percentiles for every recorded distribution.
    {
      const auto snap = obs::CounterRegistry::instance().snapshot();
      std::cout << "\ndistribution percentiles (p50 / p95 / p99):\n";
      for (const auto& [name, value] : snap) {
        if (!name.ends_with(".p50")) continue;
        const std::string stem = name.substr(0, name.size() - 4);
        const auto p95 = snap.find(stem + ".p95");
        const auto p99 = snap.find(stem + ".p99");
        std::cout << "  " << stem << ": " << value << " / "
                  << (p95 != snap.end() ? p95->second : 0.0) << " / "
                  << (p99 != snap.end() ? p99->second : 0.0) << '\n';
      }
    }

    // Device-memory plane: the same launches that produced the conflict
    // counters ran through the arena, so its allocator-level behavior is
    // reportable here too.
    {
      const vcuda::ArenaStats a = vcuda::aggregate_arena_stats();
      std::cout << "\ndevice memory:\n"
                << "  peak modeled footprint: "
                << (vcuda::peak_modeled_footprint_bytes() >> 20) << " MiB\n"
                << "  arena: " << a.allocs << " allocs ("
                << a.reuse_hits << " same-shape reuse, " << a.bump_allocs
                << " bump, " << a.split_allocs << " split), " << a.regions
                << " regions / " << (a.region_bytes >> 20) << " MiB, peak live "
                << (a.peak_live_bytes >> 20) << " MiB, " << a.coalesces
                << " coalesces\n";
    }

    bench::shape_check(
        "push-style SSSP incurs strictly more same-address atomic conflicts "
        "than pull-style on rmat (every matched pair)",
        pairs > 0 && push_heavier == pairs);
    bench::shape_check(
        "pull-style SSSP is conflict-free on owned-vertex updates",
        pairs > 0 && pull_total < push_total);

    if (!obs::trace_path().empty()) {
      std::cout << "trace spans collected: " << obs::trace_events().size()
                << " -> " << obs::trace_path() << '\n';
    }
    if (!obs::metrics_path().empty()) {
      std::cout << "run records appended to " << obs::metrics_path() << '\n';
    }
    return 0;
  });
}
