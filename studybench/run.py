#!/usr/bin/env python3
"""The study benchmark: the paper's style sweep, end to end and per layer.

    python3 studybench/run.py --workload cuda_sweep --seed 1 --seconds 30 --trace 0

Runs one workload from the root of a checkout, building the repository from
source on first use (into $CARGO_TARGET_DIR/studybench, default
.bench_build/studybench). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. --steadiness K runs the
workload K times back to back and prints each metric's median, quartiles and
IQR/median. --smoke cuts every workload to BFS. See studybench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload's scale level, threads per CPU program and entry point.
WORKLOADS = {
    "cuda_sweep": {"scale": "0", "threads": None, "fleet": False},
    "cpu_sweep": {"scale": "1", "threads": "2", "fleet": False},
    "cuda_fleet": {"scale": "0", "threads": None, "fleet": True},
}
FLEET_ARGS = ["--model=cuda", "--fleet=2", "--workers=1"]
# Harness set-ups timed per in-process run, besides each round's own.
SETUP_PROBES = 5
# Whole runs must end within this many seconds after the build.
DEADLINE_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
]
PER_LAYER = [
    ("core.register_s", "s"),
    ("graph.generate_s", "s"),
    ("vcuda.run_s", "s"),
    ("vcuda.cell_p99_ms", "ms"),
    ("vcuda.mem_instructions", "count"),
    ("vcuda.ns_per_mem_instruction", "ns"),
    ("vcuda.modeled_s", "sim_s"),
    ("omp.run_s", "s"),
    ("cpp.run_s", "s"),
    ("threading.regions", "count"),
    ("threading.region_us", "us"),
    ("core.verify_ref_s", "s"),
    ("core.verify_s", "s"),
    ("sched.journal_put_s", "s"),
    ("sched.journal_puts", "count"),
    ("sched.idle_s", "s"),
    ("fleet.spawn_s", "s"),
    ("fleet.tail_s", "s"),
    ("fleet.merge_s", "s"),
    ("fleet.lease_releases", "count"),
    ("trace.wall_ratio", "ratio"),
    ("trace.self_coverage", "ratio"),
]


class BenchError(Exception):
    """A failed build, crashed program or failed check: the run is void."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "studybench")


def build():
    """Configures once and builds the benchmark's targets; returns paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no repository sources at {ROOT}: nothing to build")
    bdir = build_dir()
    # The compiler's scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(bdir, "build.log"), "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 2),
                      "--target", "studybench", "sweep_all",
                      "studybench_selftest"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=env) != 0:
                raise BenchError(f"build failed: see {out.name}")
    return {
        "studybench": os.path.join(bdir, "studybench"),
        "selftest": os.path.join(bdir, "studybench_selftest"),
        "sweep_all": os.path.join(bdir, "indigo", "bench", "sweep_all"),
    }


def fingerprint():
    """Host and build identity, read-only from /proc, /sys and the cache."""
    fp = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(cache_root)):
            d = os.path.join(cache_root, idx)
            if not idx.startswith("index"):
                continue
            with open(os.path.join(d, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(d, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
            if kind != "Instruction":
                fp[f"L{level}"] = size
    except OSError:
        pass
    bdir = build_dir()
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    fp["build"] = line.split("=", 1)[1].strip()
        for sub in os.listdir(os.path.join(bdir, "CMakeFiles")):
            cfg = os.path.join(bdir, "CMakeFiles", sub, "CMakeCXXCompiler.cmake")
            if os.path.isfile(cfg):
                with open(cfg) as f:
                    vals = dict(
                        line[4:-2].split(" ", 1) for line in f
                        if line.startswith("set(CMAKE_CXX_COMPILER_ID ")
                        or line.startswith("set(CMAKE_CXX_COMPILER_VERSION "))
                fp["compiler"] = " ".join(v.strip('"') for v in vals.values())
    except OSError:
        pass
    return fp


# --------------------------------------------------------------------------
# Child processes


class Child:
    """One program process: stderr lines timestamped as they arrive, stdout
    to a file, CPU and peak RSS of it and every descendant it reaped."""

    def __init__(self, argv, env, cwd, deadline):
        self.deadline = deadline
        self.stdout_path = os.path.join(cwd, "stdout.txt")
        self.lines = []  # (monotonic seconds, text)
        self.t0 = time.monotonic()
        with open(self.stdout_path, "w") as out:
            self.proc = subprocess.Popen(
                argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.PIPE,
                start_new_session=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        fd = self.proc.stderr.fileno()
        pending = b""
        while True:
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            now = time.monotonic()
            pending += chunk
            *done, pending = pending.split(b"\n")
            self.lines.extend((now, l.decode(errors="replace")) for l in done)
        if pending:
            self.lines.append((time.monotonic(), pending.decode(errors="replace")))

    def wait(self):
        """Waits for exit; returns (exit code, end time, cpu_s, peak MiB)."""
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > self.deadline:
                self.kill()
                raise BenchError(f"{self.proc.args[0]} overran the run deadline")
            time.sleep(0.005)
        t_end = time.monotonic()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join()
        self.proc.stderr.close()
        return (self.proc.returncode, t_end, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0)

    def kill(self):
        # The program's whole process group: fleet workers included.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(self.proc.pid, 0)
        self.reader.join()

    def first(self, needle):
        return next((t for t, l in self.lines if needle in l), None)

    def last(self, needle):
        return next((t for t, l in reversed(self.lines) if needle in l), None)

    def stdout_lines(self):
        with open(self.stdout_path) as f:
            return f.read().splitlines()

    def result_json(self):
        lines = self.stdout_lines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{self.proc.args[0]} printed no result")

    def stderr_tail(self, n=15):
        return "\n".join(l for _, l in self.lines[-n:])


def child_env(spec):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("INDIGO_", "REPRO_", "OMP_"))}
    env["REPRO_SCALE"] = spec["scale"]
    if spec["threads"]:
        env["REPRO_THREADS"] = spec["threads"]
    return env


class Runner:
    def __init__(self, workload, smoke, bins, workdir, deadline):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.smoke = smoke
        self.bins = bins
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def _dir(self, tag):
        self.count += 1
        d = os.path.join(self.workdir, f"{self.count:03d}-{tag}")
        os.makedirs(d)
        return d

    def _studybench(self, mode, *extra):
        argv = [self.bins["studybench"], mode, "--workload", self.workload]
        return argv + (["--smoke"] if self.smoke else []) + list(extra)

    def _launch(self, argv, cwd, journal=None):
        env = child_env(self.spec)
        if journal is not None:
            env["REPRO_CACHE"] = journal
        return Child(argv, env, cwd, self.deadline)

    def setup_probe(self):
        """Seconds from launch until a fresh Harness is ready."""
        d = self._dir("setup")
        c = self._launch(self._studybench("setup"), d, "journal.csv")
        rc, _, _, _ = c.wait()
        ready = c.first("[studybench] ready")
        if rc != 0 or ready is None:
            raise BenchError(f"set-up probe failed:\n{c.stderr_tail()}")
        return ready - c.t0

    def round(self, seed):
        """One untraced round from an empty journal, then its output check."""
        d = self._dir("round")
        journal = os.path.join(d, "journal.csv")
        if self.spec["fleet"]:
            argv = [self.bins["sweep_all"]] + FLEET_ARGS
            if self.smoke:
                argv.append("--algo=bfs")
            c = self._launch(argv, d, "journal.csv")
            ready_marker = "leased shard"
        else:
            c = self._launch(self._studybench("sweep"), d, "journal.csv")
            ready_marker = "[studybench] ready"
        rc, t_end, cpu_s, rss = c.wait()
        t_ready = c.first(ready_marker)
        if t_ready is None:
            raise BenchError(f"round exited {rc} before its first cell:\n"
                             f"{c.stderr_tail()}")
        if rc != 0:
            log(c.stderr_tail())
        r = {"setup_s": t_ready - c.t0, "wall_s": t_end - t_ready,
             "cpu_s": cpu_s, "peak_rss_mib": rss, "round_rc": rc}
        if self.spec["fleet"]:
            r["layers"] = fleet_layers(c)
        else:
            swept = c.result_json()
            r["swept_failed"] = swept["failed"]
        r.update(self.check(journal, seed))
        return r

    def check(self, journal, seed):
        d = self._dir("check")
        c = self._launch(self._studybench("check", "--seed", str(seed),
                                          "--journal", journal), d)
        rc, _, _, _ = c.wait()
        res = c.result_json()
        if rc != 0:
            log(c.stderr_tail())
        return {"cells": res["cells"], "journal_entries": res["journal_entries"],
                "failed": res["missing"] + res["unverified"],
                "sampled": res["sampled"],
                "sample_failures": res["sample_failures"], "check_rc": rc}

    def traced(self, trace_out):
        d = self._dir("trace")
        c = self._launch(self._studybench(
            "trace", "--journal", os.path.join(d, "journal.csv"),
            "--trace-out", trace_out), d)
        rc, _, _, _ = c.wait()
        res = c.result_json()
        if rc != 0:
            log(c.stderr_tail())
        res["rc"] = rc
        return res


def fleet_layers(c):
    """fleet.* from the coordinator's own log lines, timed on arrival."""
    def span(a, b):
        return b - a if a is not None and b is not None else 0.0
    releases = 0
    for line in c.stdout_lines():
        if "lease releases:" in line:
            releases = int(line.split("lease releases:")[1].split(",")[0])
    return {
        # coordinator listening -> every worker connected
        "fleet.spawn_s": span(c.first("coordinator on"), c.last("connected, journal")),
        # no shard left to lease -> last shard done
        "fleet.tail_s": span(c.last("leased shard"), c.last("done by worker")),
        # last worker drained -> last worker journal merged
        "fleet.merge_s": span(c.last("drained cleanly"), c.last("fleet-merge")),
        "fleet.lease_releases": float(releases),
    }


# --------------------------------------------------------------------------
# One run


def metric_block(names, values):
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def run_once(args, bins, seed):
    """Measures one workload; returns (correct, attempted, failed, metrics)."""
    t_begin = time.monotonic()
    workdir = os.path.join(os.path.dirname(build_dir()), "studybench-runs",
                           f"{args.workload}-{os.getpid()}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(args.workload, args.smoke, bins, workdir,
                    t_begin + DEADLINE_S)
    try:
        rounds = []
        probes = []
        if args.trace == 0 and not WORKLOADS[args.workload]["fleet"]:
            probes = [runner.setup_probe() for _ in range(SETUP_PROBES)]
        # Whole rounds: another only while it is expected to end within
        # --seconds. A traced run needs one.
        while True:
            t0 = time.monotonic()
            rounds.append(runner.round(seed * 1009 + len(rounds)))
            took = time.monotonic() - t0
            if args.trace == 1 or time.monotonic() - t_begin + took > args.seconds:
                break
        attempted = sum(r["cells"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        correct = all(r["round_rc"] == 0 and r["check_rc"] == 0
                      and r["sample_failures"] == 0
                      and r["journal_entries"] == r["cells"]
                      and r.get("swept_failed", 0) == 0 for r in rounds)
        for i, r in enumerate(rounds):
            print(f"round {i}: setup {r['setup_s']:.4f} s, wall {r['wall_s']:.3f} s, "
                  f"cpu {r['cpu_s']:.3f} s, peak rss {r['peak_rss_mib']:.1f} MiB; "
                  f"cells {r['cells']}, verified {r['cells'] - r['failed']}, "
                  f"failed {r['failed']}, journal entries {r['journal_entries']}; "
                  f"independent checks {r['sampled'] - r['sample_failures']}/"
                  f"{r['sampled']} sampled cells passed")
        if args.trace == 0:
            values = {
                "setup_s": statistics.median(probes + [r["setup_s"] for r in rounds]),
                "wall_s": statistics.median(r["wall_s"] for r in rounds),
                "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
            }
            if probes:
                print("setup probes: " + ", ".join(f"{p:.4f}" for p in probes) + " s")
            return correct, attempted, failed, metric_block(END_TO_END, values)

        trace_dir = os.path.join(os.path.dirname(build_dir()), "studybench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, f"{args.workload}.trace.json")
        t = runner.traced(trace_out)
        attempted += t["cells"]
        failed += t["failed"]
        correct = correct and t["rc"] == 0
        values = {name: 0.0 for name, _ in PER_LAYER}
        values.update(t["metrics"])
        values.update(rounds[0].get("layers", {}))
        untraced = rounds[0]["setup_s"] + rounds[0]["wall_s"]
        values["trace.wall_ratio"] = t["traced_wall_s"] / untraced
        print(f"traced run: {t['cells']} cells in {t['traced_wall_s']:.3f} s "
              f"(untraced round {untraced:.3f} s); trace written to {trace_out}")
        return correct, attempted, failed, metric_block(PER_LAYER, values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def steadiness(args, bins):
    """K back-to-back runs of each named workload: median, quartiles, IQR."""
    for workload in args.workload.split(","):
        args.workload = workload
        samples = {}
        for k in range(args.steadiness):
            correct, attempted, failed, metrics = run_once(args, bins, args.seed + k)
            if not correct or failed:
                raise BenchError(f"{workload} run {k} failed its checks")
            for name, m in metrics.items():
                samples.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.steadiness} runs, seeds {args.seed}.."
              f"{args.seed + args.steadiness - 1}")
        for name, xs in samples.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            rel = (q3 - q1) / med if med else 0.0
            print(f"  {name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  iqr/median {rel:7.2%}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--steadiness", type=int, default=0, metavar="K")
    args = ap.parse_args()
    for w in args.workload.split(","):
        if w not in WORKLOADS:
            ap.error(f"unknown workload {w}; choose from {', '.join(WORKLOADS)}")
    try:
        bins = build()
        fp = fingerprint()
        print("host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
        if args.steadiness > 0:
            steadiness(args, bins)
            return 0
        if "," in args.workload:
            ap.error("one workload per run (several only with --steadiness)")
        correct, attempted, failed, metrics = run_once(args, bins, args.seed)
    except BenchError as e:
        log(f"studybench: {e}")
        return 1
    print(f"cells attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
