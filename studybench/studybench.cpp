// The study benchmark's program. run.py launches it once per set-up probe,
// timed round, output check and traced run; see README.md.
//
//   studybench setup --workload W          Harness set-up only, then exit
//   studybench sweep --workload W          one untraced round: Harness::sweep
//   studybench check --workload W --seed S --journal P
//                                          audit a round's journal and re-run
//                                          a seeded sample of its cells
//   studybench trace --workload W --journal P --trace-out T
//                                          per-layer timing of one round
//
// Every mode takes --smoke (BFS only). REPRO_SCALE, REPRO_THREADS and
// REPRO_CACHE come from the environment, as for every program of the
// repository. Each mode prints one JSON object as its last stdout line and
// exits non-zero when a cell failed or a check did not hold.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/harness.hpp"
#include "checks.hpp"
#include "core/registry.hpp"
#include "graph/generate.hpp"
#include "obs/counters.hpp"
#include "sched/executor.hpp"
#include "sched/job_graph.hpp"
#include "sched/result_store.hpp"
#include "threading/thread_team.hpp"
#include "variants/register_all.hpp"

namespace {

using namespace indigo;
using Clock = std::chrono::steady_clock;

/// Sched workers of every in-process workload (and of the traced run).
constexpr int kWorkers = 2;
/// Sampled cells per algorithm in check mode.
constexpr std::size_t kSamplePerAlgo = 8;

struct Args {
  std::string mode;
  std::string workload;
  bool smoke = false;
  std::uint64_t seed = 1;
  std::string journal;
  std::string trace_out;
};

/// Which variants a workload runs: the vcuda ones, or the native CPU ones.
struct Selection {
  bool cuda = true;
  std::optional<Algorithm> algo;

  [[nodiscard]] bool contains(const Variant& v) const {
    return (v.model == Model::Cuda) == cuda && (!algo || v.algo == *algo);
  }
};

std::optional<Selection> selection_of(const Args& a) {
  Selection s;
  if (a.workload == "cuda_sweep" || a.workload == "cuda_fleet") {
    s.cuda = true;
  } else if (a.workload == "cpu_sweep") {
    s.cuda = false;
  } else {
    return std::nullopt;
  }
  if (a.smoke) s.algo = Algorithm::BFS;
  return s;
}

std::string scale_tag() {
  const char* env = std::getenv("REPRO_SCALE");
  return env != nullptr ? env : "1";
}

/// The journal key Harness::measure_one writes for a single-rep, untraced
/// measurement on the default device.
std::string journal_key(const Variant& v, const Graph& g) {
  std::ostringstream os;
  os << v.name << '|' << g.name() << '|'
     << (v.model == Model::Cuda ? "rtx3090_like" : "cpu") << '|'
     << cpu_threads() << '|' << scale_tag();
  return os.str();
}

RunOptions run_options() {
  RunOptions o;
  o.source = 0;
  o.num_threads = cpu_threads();
  return o;
}

std::vector<Graph> study_inputs() {
  std::vector<Graph> gs;
  for (const InputClass c : kAllInputs) {
    gs.push_back(make_input(c, default_input_scale(c)));
  }
  return gs;
}

struct Cell {
  const Variant* v;
  std::size_t gi;
};

std::vector<Cell> cells_of(const Selection& sel, std::size_t num_graphs) {
  std::vector<Cell> cells;
  for (const Variant& v : Registry::instance().all()) {
    if (!sel.contains(v)) continue;
    for (std::size_t gi = 0; gi < num_graphs; ++gi) cells.push_back({&v, gi});
  }
  return cells;
}

void announce_ready() { std::cerr << "[studybench] ready" << std::endl; }

// ---------------------------------------------------------------------------

int run_setup() {
  bench::Harness h;
  announce_ready();
  return 0;
}

int run_sweep(const Selection& sel) {
  bench::Harness h;
  announce_ready();
  bench::SweepOptions so;
  so.algo = sel.algo;
  so.workers = kWorkers;
  if (sel.cuda) {
    so.model = Model::Cuda;
  } else {
    so.style_filter = [](const Variant& v) { return v.model != Model::Cuda; };
  }
  const auto ms = h.sweep(so);
  std::size_t verified = 0;
  for (const Measurement& m : ms) verified += m.verified ? 1 : 0;
  const bench::SweepStats& st = h.last_sweep_stats();
  std::cout << "{\"cells\": " << ms.size() << ", \"verified\": " << verified
            << ", \"failed\": " << ms.size() - verified
            << ", \"executed\": " << st.executed
            << ", \"cache_hits\": " << st.cache_hits
            << ", \"quarantined\": " << st.quarantined
            << ", \"journal_entries\": " << h.result_store().size() << "}"
            << std::endl;
  return verified == ms.size() && st.executed == ms.size() ? 0 : 1;
}

// ---------------------------------------------------------------------------

int run_check(const Selection& sel, std::uint64_t seed,
              const std::string& journal) {
  variants::register_all_variants();
  const std::vector<Graph> graphs = study_inputs();
  const std::vector<Cell> cells = cells_of(sel, graphs.size());

  std::map<std::string, sched::ResultEntry> entries;
  {
    std::ifstream in(journal);
    if (!in) {
      std::cerr << "[check] cannot read journal " << journal << '\n';
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      if (auto kv = sched::ResultStore::decode_line(line)) {
        entries[kv->first] = kv->second;
      } else {
        std::cerr << "[check] malformed journal line: " << line << '\n';
        return 1;
      }
    }
  }

  std::size_t missing = 0, unverified = 0;
  for (const Cell& c : cells) {
    const auto it = entries.find(journal_key(*c.v, graphs[c.gi]));
    if (it == entries.end()) {
      ++missing;
    } else if (!it->second.verified) {
      ++unverified;
      std::cerr << "[check] journaled as failed: " << it->first << '\n';
    }
  }

  // A seeded sample of every algorithm's cells, re-run outside any timed
  // region and checked by properties rather than by the program's own
  // references. A cuda cell's modeled time and iteration count must also
  // repeat bit for bit whichever process journaled it.
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> sample;
  for (const Algorithm a : kAllAlgorithms) {
    std::vector<std::size_t> of_algo;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].v->algo == a) of_algo.push_back(i);
    }
    std::shuffle(of_algo.begin(), of_algo.end(), rng);
    of_algo.resize(std::min(of_algo.size(), kSamplePerAlgo));
    sample.insert(sample.end(), of_algo.begin(), of_algo.end());
  }
  std::vector<std::optional<std::uint64_t>> triangles(graphs.size());
  std::size_t sample_failures = 0;
  for (const std::size_t i : sample) {
    const Variant& v = *cells[i].v;
    const Graph& g = graphs[cells[i].gi];
    const std::string key = journal_key(v, g);
    std::string error;
    try {
      const RunResult r = v.run(g, run_options());
      if (v.algo == Algorithm::TC && !triangles[cells[i].gi]) {
        triangles[cells[i].gi] = studybench::count_triangles(g);
      }
      error = r.converged ? studybench::check_output(
                                g, v.algo, r.output,
                                triangles[cells[i].gi].value_or(0))
                          : "did not converge";
      const auto it = entries.find(key);
      if (error.empty() && v.model == Model::Cuda && it != entries.end() &&
          (std::bit_cast<std::uint64_t>(r.seconds) !=
               std::bit_cast<std::uint64_t>(it->second.seconds) ||
           r.iterations != it->second.iterations)) {
        std::ostringstream os;
        os.precision(17);
        os << "re-run modeled " << r.seconds << " s in " << r.iterations
           << " iterations, journal has " << it->second.seconds << " s in "
           << it->second.iterations;
        error = os.str();
      }
    } catch (const std::exception& ex) {
      error = std::string("threw: ") + ex.what();
    }
    if (!error.empty()) {
      ++sample_failures;
      std::cerr << "[check] " << key << ": " << error << '\n';
    }
  }
  std::cout << "{\"cells\": " << cells.size()
            << ", \"journal_entries\": " << entries.size()
            << ", \"missing\": " << missing
            << ", \"unverified\": " << unverified
            << ", \"sampled\": " << sample.size()
            << ", \"sample_failures\": " << sample_failures << "}"
            << std::endl;
  const bool ok = missing == 0 && unverified == 0 &&
                  entries.size() == cells.size() && sample_failures == 0;
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: the same cells as one round, executed on the sched executor
// with kWorkers workers, with every call into a layer timed from here. The
// spans stay in memory and are written once, as a Chrome trace, at the end.

struct Span {
  const char* name;
  double t0_us, t1_us;
  int tid;
  long cell;  // -1 for set-up spans
};

struct CellTiming {
  double cell0 = 0, cell1 = 0, run0 = 0, run1 = 0, ver0 = 0, ver1 = 0,
         put0 = 0, put1 = 0;
  double modeled_s = 0;
  int tid = 0;
  bool ref = false;  // this check built the reference for (graph, algo)
  bool ok = false;
};

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int mine = next.fetch_add(1);
  return mine;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  // Nearest rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<Cell>& cells) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "[trace] cannot write " << path << '\n';
    return;
  }
  out.precision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << s.t0_us << ", \"dur\": " << s.t1_us - s.t0_us;
    if (s.cell >= 0) {
      out << ", \"args\": {\"cell\": " << s.cell << ", \"program\": \""
          << cells[static_cast<std::size_t>(s.cell)].v->name << "\"}";
    }
    out << '}';
  }
  out << "\n]}\n";
}

int run_trace(const Selection& sel, const std::string& journal,
              const std::string& trace_out) {
  obs::set_enabled(true);  // the program's own counters, read at the end
  auto& reg = obs::CounterRegistry::instance();
  obs::Counter& mem_instr = reg.counter("vcuda.mem_instructions");
  obs::Counter& regions = reg.counter("cpu.regions");
  const std::uint64_t mem_instr0 = mem_instr.value();
  const std::uint64_t regions0 = regions.value();

  const auto t0 = Clock::now();
  const auto us = [t0] {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  std::vector<Span> spans;
  const int main_tid = thread_index();

  double a = us();
  variants::register_all_variants();
  spans.push_back({"core.register", a, us(), main_tid, -1});
  a = us();
  const std::vector<Graph> graphs = study_inputs();
  spans.push_back({"graph.generate", a, us(), main_tid, -1});
  a = us();
  sched::ResultStore store(journal);
  std::vector<std::unique_ptr<Verifier>> verifiers;
  for (const Graph& g : graphs) {
    verifiers.push_back(std::make_unique<Verifier>(g, 0));
  }
  // Verifier serializes checks per graph; holding this lock over the whole
  // check makes the first caller per (graph, algorithm) the one that builds
  // the reference, so its time lands in core.verify_ref_s.
  std::vector<std::mutex> verify_mu(graphs.size());
  spans.push_back({"sched.journal_open", a, us(), main_tid, -1});
  const double setup_us = us();

  const std::vector<Cell> cells = cells_of(sel, graphs.size());
  std::vector<CellTiming> timing(cells.size());
  // First check per (graph, algorithm) builds the serial reference.
  std::vector<std::array<bool, std::size(kAllAlgorithms)>> ref_built(
      graphs.size());
  sched::JobGraph jg;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    sched::Job j;
    j.name = cells[i].v->name;
    j.exec_class = cells[i].v->model == Model::Cuda
                       ? sched::ExecClass::ModelTimed
                       : sched::ExecClass::WallClock;
    j.work = [&, i](const sched::JobContext&) {
      const Variant& v = *cells[i].v;
      const Graph& g = graphs[cells[i].gi];
      CellTiming& t = timing[i];
      t.tid = thread_index();
      t.cell0 = us();
      t.run0 = t.cell0;
      const RunResult r = v.run(g, run_options());
      t.run1 = us();
      t.modeled_s = r.seconds;
      std::string err = "did not converge";
      {
        std::lock_guard lk(verify_mu[cells[i].gi]);
        t.ref = !ref_built[cells[i].gi][static_cast<std::size_t>(v.algo)];
        ref_built[cells[i].gi][static_cast<std::size_t>(v.algo)] = true;
        t.ver0 = us();
        if (r.converged) err = verifiers[cells[i].gi]->check(v.algo, r.output);
        t.ver1 = us();
      }
      t.ok = err.empty();
      if (!t.ok) std::cerr << "[trace] " << v.name << ": " << err << '\n';
      t.put0 = us();
      store.put(journal_key(v, g),
                {v.model == Model::Cuda ? r.seconds : (t.run1 - t.run0) * 1e-6,
                 0.0, r.iterations, t.ok, {}});
      t.put1 = us();
      t.cell1 = t.put1;
    };
    jg.add(std::move(j));
  }
  sched::ExecutorOptions eo;
  eo.num_workers = kWorkers;
  const double exec0 = us();
  const auto statuses = sched::Executor(eo).run(jg);
  const double exec_us = us() - exec0;
  const double traced_wall_s = us() * 1e-6;

  std::map<std::string, double> m;
  const auto add = [&m](const char* k, double v) { m[k] += v; };
  add("core.register_s", (spans[0].t1_us - spans[0].t0_us) * 1e-6);
  add("graph.generate_s", (spans[1].t1_us - spans[1].t0_us) * 1e-6);
  std::vector<double> cuda_cell_ms;
  double job_s = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellTiming& t = timing[i];
    if (statuses[i].state != sched::JobState::Done || !t.ok) ++failed;
    const double run_s = (t.run1 - t.run0) * 1e-6;
    switch (cells[i].v->model) {
      case Model::Cuda:
        add("vcuda.run_s", run_s);
        add("vcuda.modeled_s", t.modeled_s);
        cuda_cell_ms.push_back(run_s * 1e3);
        break;
      case Model::OpenMP: add("omp.run_s", run_s); break;
      case Model::CppThreads: add("cpp.run_s", run_s); break;
    }
    add(t.ref ? "core.verify_ref_s" : "core.verify_s",
        (t.ver1 - t.ver0) * 1e-6);
    add("sched.journal_put_s", (t.put1 - t.put0) * 1e-6);
    job_s += (t.cell1 - t.cell0) * 1e-6;
    spans.push_back({"cell", t.cell0, t.cell1, t.tid, static_cast<long>(i)});
    spans.push_back({"run", t.run0, t.run1, t.tid, static_cast<long>(i)});
    spans.push_back({t.ref ? "verify_ref" : "verify", t.ver0, t.ver1, t.tid,
                     static_cast<long>(i)});
    spans.push_back({"journal_put", t.put0, t.put1, t.tid,
                     static_cast<long>(i)});
  }
  m["sched.journal_puts"] = static_cast<double>(store.appended());
  m["sched.idle_s"] = kWorkers * exec_us * 1e-6 - job_s;
  m["vcuda.cell_p99_ms"] = percentile(cuda_cell_ms, 0.99);
  const auto instr = static_cast<double>(mem_instr.value() - mem_instr0);
  m["vcuda.mem_instructions"] = instr;
  m["vcuda.ns_per_mem_instruction"] =
      instr > 0 ? m["vcuda.run_s"] * 1e9 / instr : 0.0;
  const auto reg_count = static_cast<double>(regions.value() - regions0);
  m["threading.regions"] = reg_count;
  m["threading.region_us"] =
      reg_count > 0 ? m["cpp.run_s"] * 1e6 / reg_count : 0.0;
  // Model-timed cells share kWorkers lanes; wall-clock cells take the
  // executor's exclusive lane one at a time.
  const double lanes = sel.cuda ? kWorkers : 1;
  double layer_s = 0;
  for (const char* k : {"core.register_s", "graph.generate_s", "vcuda.run_s",
                        "omp.run_s", "cpp.run_s", "core.verify_ref_s",
                        "core.verify_s", "sched.journal_put_s"}) {
    layer_s += m[k];
  }
  m["trace.self_coverage"] = layer_s / (setup_us * 1e-6 + lanes * exec_us * 1e-6);

  write_chrome_trace(trace_out, spans, cells);
  std::cout.precision(17);
  std::cout << "{\"cells\": " << cells.size() << ", \"failed\": " << failed
            << ", \"traced_wall_s\": " << traced_wall_s << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    std::cout << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: studybench setup|sweep|check|trace --workload "
               "cuda_sweep|cpu_sweep|cuda_fleet [--smoke] [--seed N] "
               "[--journal PATH] [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (argc < 2) return usage();
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--journal" && has_value) {
      a.journal = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  const auto sel = selection_of(a);
  if (!sel) return usage();
  if (a.mode == "setup") return run_setup();
  if (a.mode == "sweep") return run_sweep(*sel);
  if (a.mode == "check" && !a.journal.empty()) {
    return run_check(*sel, a.seed, a.journal);
  }
  if (a.mode == "trace" && !a.journal.empty() && !a.trace_out.empty()) {
    return run_trace(*sel, a.journal, a.trace_out);
  }
  return usage();
}
