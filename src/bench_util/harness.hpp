// Shared harness for the per-figure/table bench binaries.
//
// A Harness owns the five study inputs, runs (variant x graph) sweeps with
// verification, and memoizes every measurement in a journaled result store
// (src/sched/result_store.hpp) so the ~20 bench binaries can share one
// full-suite sweep instead of re-running it. Sweeps execute through the
// sweep runtime (src/sched): model-timed vcuda jobs run concurrently on a
// work-stealing pool while wall-clock CPU jobs serialize through the
// exclusive lane, so parallelism never distorts a reported CPU time (see
// docs/SWEEP_RUNTIME.md). Ratio utilities implement the paper's
// methodology (Section 5 preamble): to compare two alternatives of one
// style dimension, pair up programs that are identical in every other
// dimension and divide their throughputs.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/runner.hpp"
#include "core/validity.hpp"
#include "graph/generate.hpp"
#include "sched/result_store.hpp"
#include "stats/summary.hpp"
#include "vcuda/device_spec.hpp"

namespace indigo::bench {

struct SweepOptions {
  std::optional<Model> model;
  std::optional<Algorithm> algo;
  /// Device for Model::Cuda variants; nullptr = the default rtx3090_like.
  const vcuda::DeviceSpec* device = nullptr;
  /// Only variants whose style passes this predicate (nullptr = all).
  std::function<bool(const Variant&)> style_filter;
  int reps = 1;
  /// Scheduler pool for this sweep: -1 = resolve INDIGO_SCHED_WORKERS (its
  /// default is a small pool), 0 = the plain sequential loop bypassing the
  /// scheduler entirely, N > 0 = a pool of exactly N workers.
  int workers = -1;
  /// Run every measurement under the race/determinism checker (see
  /// docs/RACECHECK.md). Checked jobs take the exclusive lane so their
  /// global tallies never interleave, and their journal entries are keyed
  /// separately ("|rc") from plain timing runs.
  bool racecheck = false;
};

/// Sweep-level robustness knobs (docs/SWEEP_RUNTIME.md), shared by
/// Harness::sweep and sweep_all: extra attempts per cell
/// (INDIGO_SCHED_RETRIES, default 1) and the per-attempt deadline in seconds
/// (INDIGO_SCHED_TIMEOUT_S, default 0 = none).
[[nodiscard]] int env_retries();
[[nodiscard]] double env_timeout_s();

/// Accounting of the most recent sweep() (resume/quarantine diagnostics).
struct SweepStats {
  std::size_t pairs = 0;        // (variant, graph) pairs selected
  std::size_t cache_hits = 0;   // served from the result journal
  std::size_t executed = 0;     // measured fresh by this sweep
  std::size_t quarantined = 0;  // failed every attempt; excluded
  std::size_t oom_rejected = 0;  // exceeded modeled device memory
};

class Harness {
 public:
  /// Registers all variants, generates the study inputs at their default
  /// scales, and opens the journaled measurement store (path from
  /// REPRO_CACHE, else "repro_cache.csv" in the working directory; empty
  /// string keeps results in memory only).
  Harness();

  /// Deferred mode: everything except the graphs, which materialize on
  /// first use - materialize_graph(i) builds one, graphs() builds the rest.
  /// Lets an orchestrator schedule graph materialization as explicit jobs
  /// ahead of the measurements that depend on them (bench/sweep_all).
  struct DeferGraphs {};
  explicit Harness(DeferGraphs);

  /// All five study inputs, materializing any still deferred.
  [[nodiscard]] const std::vector<Graph>& graphs();
  [[nodiscard]] std::size_t num_graphs() const { return graphs_.size(); }
  /// Generates graph i if it is still deferred (thread-safe, idempotent).
  void materialize_graph(std::size_t i);
  /// Graph i, which must have been materialized.
  [[nodiscard]] const Graph& graph(std::size_t i) const { return graphs_[i]; }

  /// Measures every selected (variant, graph) pair through the sweep
  /// runtime; journaled results are reused. Prints a progress dot stream to
  /// stderr. The returned order is deterministic (registry x graph order)
  /// regardless of the worker count.
  std::vector<Measurement> sweep(const SweepOptions& opts);

  /// Convenience: one measurement (journaled). Thread-safe.
  Measurement measure_one(const Variant& v, const Graph& g,
                          const vcuda::DeviceSpec* device, int reps);

  /// Whether measure_one would be served from the journal (for the same
  /// rep count — multi-rep entries carry their own journal keys).
  [[nodiscard]] bool cached(const Variant& v, const Graph& g,
                            const vcuda::DeviceSpec* device,
                            int reps = 1) const;

  /// Outcome counts of the most recent sweep().
  [[nodiscard]] const SweepStats& last_sweep_stats() const { return stats_; }

  /// The journaled measurement store (checkpointing, resume stats).
  [[nodiscard]] sched::ResultStore& result_store() { return *store_; }

  [[nodiscard]] RunOptions base_run_options(
      const vcuda::DeviceSpec* device) const;

 private:
  std::string key_for(const Variant& v, const Graph& g,
                      const vcuda::DeviceSpec* device, int reps) const;
  Verifier& verifier_for(const Graph& g);

  std::vector<Graph> graphs_;
  std::vector<bool> materialized_;
  std::mutex graphs_mu_;
  std::unique_ptr<sched::ResultStore> store_;
  std::vector<std::unique_ptr<Verifier>> verifiers_;
  std::mutex verifiers_mu_;
  SweepStats stats_;
};

/// All pairwise throughput ratios value_a-over-value_b of one dimension,
/// holding every other dimension and the input graph fixed. Unverified or
/// failed measurements are dropped (the paper only reports verified runs).
std::vector<double> pairwise_ratios(std::span<const Measurement> ms,
                                    Algorithm algo, Dimension d, int value_a,
                                    int value_b);

/// Groups ratios per algorithm into the boxen samples the figures plot.
std::vector<stats::NamedSample> ratio_samples_by_algorithm(
    std::span<const Measurement> ms, std::span<const Algorithm> algos,
    Dimension d, int value_a, int value_b);

/// Filters measurements to verified ones of one model.
std::vector<Measurement> verified_of_model(std::span<const Measurement> ms,
                                           Model m);

/// Simple shape-check reporting: prints PASS/FAIL (to stdout) of a named
/// expectation and returns whether it held. Failures also bump a
/// process-wide counter so bench binaries can exit nonzero.
bool shape_check(const std::string& name, bool condition);

/// Number of shape_check calls that failed in this process.
int shape_check_failures();

/// Exit status for a bench main(): 0 when every shape check held, 1
/// otherwise (so CI and scripts notice broken reproductions).
int exit_code();

/// Excludes the CudaAtomic codes, as the paper does after Section 5.1.
bool classic_atomics_only(const Variant& v);

}  // namespace indigo::bench
