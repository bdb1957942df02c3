#!/usr/bin/env python3
"""The msol benchmark: end-to-end msol_run runs plus a traced per-layer pass.

Suite mode, every workload (what a developer runs; see README.md):

    bench/suite/run.sh [--seed S] [--quick] [--sets N]

Single-workload mode, one JSON result as the last line of stdout:

    bench/suite/run.sh --workload NAME --seed S --seconds T --trace 0|1

Both build the repository's msol_run (plus the msol_spawn timing helper and
the traced msol_bench pass) from source into build-bench/, write each
workload's grids from bench/suite/workloads/NAME.grid, grid k with
`seed = 16 * S + k`, and hand msol_run only those generated grids. A run
cycles through the grids in passes, so its numbers average over several
random instances of the workload. Outputs and traces go to
build-bench/out/. The exit status is non-zero when any output check fails;
a failed check still prints the JSON result, with "correct": false.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
OUT = os.path.join(BUILD, "out")
MSOL_RUN = os.path.join(BUILD, "msol", "msol_run")
MSOL_SPAWN = os.path.join(BUILD, "msol_spawn")
MSOL_BENCH = os.path.join(BUILD, "msol_bench")

# msol_run --threads per workload, how many grids (random instances) a run
# cycles through, and the --quick shrink applied to each grid (same checks
# and output shape, a fraction of the work). One pass over a workload's
# grids takes about 8-10 s on the reference host.
WORKLOADS = {
    "paper_sweep": {
        "threads": 4,
        "grids": 5,
        "quick": {"platforms": "2", "tasks": "200", "lookahead": "200"},
    },
    "fleet_single": {
        "threads": 1,
        "grids": 4,
        "quick": {"slaves": "1024", "tasks": "4000"},
    },
    "fleet_sharded": {
        "threads": 1,
        "grids": 4,
        "quick": {"slaves": "4096", "tasks": "8000"},
    },
    "meta_portfolio": {
        "threads": 1,
        "grids": 6,
        "quick": {"slaves": "128", "tasks": "250", "platforms": "1"},
    },
}

SEED_STRIDE = 16       # grid k of seed S is written with seed 16 * S + k
SETUP_BATCH = 8        # dry runs per setup sample (its fastest is kept)
SUITE_PASSES = 3       # R, the measured passes per workload in suite mode
QUICK_PASSES = 2       # ... with --quick
MIN_PASSES = 2         # single-workload mode measures at least this many
TIMEOUT_FACTOR = 5     # a rep is killed after 5x its warm-up wall time
TIMEOUT_FLOOR_S = 2.0  # ... but never sooner than this
RUN_BUDGET_S = 170     # single-workload mode stops adding reps near this
CALIB_TOLERANCE = 0.10  # host_calib_s moving more than this between sets
                        # means the host's speed changed under them


class BenchError(Exception):
    """A failure that leaves no result to print (build, setup, parsing)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --


def run_group(command, timeout, **kwargs):
    """subprocess.run in a process group of its own, all of which is killed
    (and reaped) on timeout, so no compiler outlives a stalled build."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.wait()
            raise


def build(targets):
    """Configures build-bench/ from bench/suite/CMakeLists.txt (once) and
    builds `targets`; the build log goes to build-bench/suite-build.log.
    Compiler temporaries stay inside build-bench/ too."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "suite-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(host_threads()),
                  "--target"] + targets)
    with open(log_path, "w") as build_log:
        for step in steps:
            try:
                code = run_group(step, 840, stdout=build_log,
                                 stderr=subprocess.STDOUT, env=env)
            except (OSError, subprocess.TimeoutExpired) as error:
                raise BenchError(f"build step {step[:2]} failed: {error}")
            if code != 0:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                build_log.flush()
                with open(log_path) as text:
                    tail = text.read()[-3000:]
                raise BenchError(f"build failed ({' '.join(step[:3])}):\n"
                                 f"{tail}")


# ------------------------------------------------------------------- host --


def host_threads():
    return len(os.sched_getaffinity(0))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_block():
    """The host, toolchain and SIMD facts a result is only valid with."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run(
                [compiler, "--version"], capture_output=True, text=True,
                timeout=30).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            pass
    build_type = cmake_cache("CMAKE_BUILD_TYPE") or "Release"
    cxx_flags = " ".join(filter(None, [
        cmake_cache("CMAKE_CXX_FLAGS"),
        cmake_cache("CMAKE_CXX_FLAGS_" + build_type.upper())]))
    simd = [name for name in ("avx2", "avx512f") if name in flags]
    return [
        ("cpu", model),
        ("nproc", str(host_threads())),
        ("kernel", platform.release()),
        ("compiler", version or compiler or "unknown"),
        ("build", f"{build_type} {cxx_flags}".strip()),
        ("simd", ",".join(simd) or "none"),
    ]


def calibrate():
    """Seconds for a fixed pure-Python loop: a host-speed probe timed
    between reps so that sets measured on a slowed host can be flagged."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - start


# -------------------------------------------------------------- workloads --


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def digest(path):
    with open(path, "rb") as stream:
        return hashlib.sha256(stream.read()).hexdigest()


def count_lines(path):
    with open(path, "rb") as stream:
        return sum(1 for _ in stream)


def remove(*paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def spawn(command, timeout):
    """Runs `command` under msol_spawn: (wall_s, cpu_s, rss_kb, exit code,
    timed out, stderr)."""
    result = subprocess.run([MSOL_SPAWN, f"{timeout:.3f}"] + command,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, timeout=timeout + 30 if timeout else None)
    fields = result.stdout.split()
    if result.returncode != 0 or len(fields) != 5:
        raise BenchError(f"msol_spawn failed: {result.stderr.strip()}")
    return (float(fields[0]), float(fields[1]), int(fields[2]),
            int(fields[3]), fields[4] == "1", result.stderr)


class Grid:
    """One generated grid of a workload: its msol_run reps and their output
    checks. Its first run's output is the reference later reps must match."""

    def __init__(self, work, index, seed, overrides):
        self.work = work
        self.tag = f"{work.name}.{index}"
        self.grid = os.path.join(OUT, f"{self.tag}.grid")
        values = self._write_grid(seed, overrides)
        self.csv = os.path.join(OUT, f"{self.tag}.csv")
        self.jsonl = os.path.join(OUT, f"{self.tag}.jsonl")
        self.ref_csv = os.path.join(OUT, f"{self.tag}.ref.csv")
        self.ref_jsonl = os.path.join(OUT, f"{self.tag}.ref.jsonl")
        self.cells = self._cell_count()
        algos = values.get("algo", values.get("algorithms"))
        self.specs = len(algos.split(",")) if algos else 7
        self.platforms = int(values.get("platforms", "10"))
        self.tasks = int(values.get("tasks", "1000"))
        self.records = self.cells * self.specs
        self.sim_tasks = self.records * self.platforms * self.tasks
        self.reps = []        # (wall_s, cpu_s, rss_kb, calib_s) per good rep
        self.ref = None       # (csv digest, jsonl digest) of the first run

    def _write_grid(self, seed, overrides):
        template = os.path.join(HERE, "workloads", f"{self.work.name}.grid")
        values, lines = {}, []
        with open(template) as text:
            for line in text:
                match = re.match(r"\s*([a-z_]+)\s*=\s*(.*?)\s*$", line)
                if match:
                    key, value = match.groups()
                    value = str(seed) if key == "seed" else overrides.get(
                        key, value)
                    values[key] = value
                    line = f"{key} = {value}\n"
                lines.append(line)
        for key, value in overrides.items():
            if key not in values:
                values[key] = value
                lines.append(f"{key} = {value}\n")
        if "seed" not in values:
            lines.append(f"seed = {seed}\n")
        with open(self.grid, "w") as out:
            out.writelines(lines)
        return values

    def _cell_count(self):
        result = subprocess.run([MSOL_RUN, self.grid, "--dry-run", "--quiet"],
                                capture_output=True, text=True, timeout=60)
        match = re.search(r"^(\d+) cells$", result.stdout, re.MULTILINE)
        if result.returncode != 0 or not match:
            raise BenchError(f"{self.tag}: msol_run --dry-run failed: "
                             f"{result.stderr.strip()}")
        return int(match.group(1))

    def command(self):
        return [MSOL_RUN, self.grid, "--threads", str(self.work.threads),
                "--csv", self.csv, "--jsonl", self.jsonl, "--quiet"]

    def run_rep(self, warmup=False):
        """One msol_run of the grid; checks its output and records the rep
        (a warm-up run gives the reference and the timeout, and is not a
        measurement)."""
        work = self.work
        calib = calibrate()
        remove(self.csv, self.jsonl, self.csv + ".manifest")
        timeout = 150 if warmup else work.timeout
        wall, cpu, rss, code, timed_out, err = spawn(self.command(), timeout)
        work.attempted += self.records
        problem = None
        if timed_out:
            problem = f"killed after {timeout:.1f}s"
        elif code != 0:
            problem = f"exit {code}: {err.strip()[-300:]}"
        elif count_lines(self.csv) != self.records + 1:
            problem = f"{count_lines(self.csv) - 1} CSV rows, " \
                      f"expected {self.records}"
        elif count_lines(self.jsonl) != self.records:
            problem = f"{count_lines(self.jsonl)} JSONL records, " \
                      f"expected {self.records}"
        elif self.ref is None:
            problem = self._check_jsonl()
            if problem is None:
                self.ref = (digest(self.csv), digest(self.jsonl))
                shutil.copyfile(self.csv, self.ref_csv)
                shutil.copyfile(self.jsonl, self.ref_jsonl)
        elif (digest(self.csv), digest(self.jsonl)) != self.ref:
            problem = "output differs from this grid's first run"
        if warmup and problem is None:
            work.timeout = max(TIMEOUT_FACTOR * wall, TIMEOUT_FLOOR_S)
        problem = problem or work.measure_setup(self)
        if problem:
            work.failed += self.records
            work.problems.append(f"{'warm-up' if warmup else 'rep'} "
                                 f"{self.tag}: {problem}")
        elif not warmup:
            self.reps.append((wall, cpu, rss, calib))

    def _check_jsonl(self):
        """Every (cell, spec) once, each with `platforms` positive finite
        raw makespans."""
        seen = set()
        with open(self.jsonl) as text:
            for line in text:
                record = json.loads(line)
                raw = record["makespan_raw"]
                if len(raw) != self.platforms or not all(
                        isinstance(v, float) and math.isfinite(v) and v > 0
                        for v in raw):
                    return f"bad makespan_raw in cell {record['cell_index']}"
                seen.add((record["cell_index"], record["algorithm"]))
        if len(seen) != self.records:
            return f"{len(seen)} distinct (cell, spec) records, " \
                   f"expected {self.records}"
        return None


class Workload:
    """One workload: its grids (random instances drawn from the seed), the
    reps over them, the set-up samples and the failure count."""

    def __init__(self, name, seed, quick):
        self.name = name
        self.threads = WORKLOADS[name]["threads"]
        self.timeout = None
        self.setup = []       # fastest dry-run wall of each setup batch
        self.attempted = 0
        self.failed = 0
        self.problems = []
        overrides = WORKLOADS[name]["quick"] if quick else {}
        self.grids = [Grid(self, k, SEED_STRIDE * seed + k, overrides)
                      for k in range(WORKLOADS[name]["grids"])]
        self.sim_tasks = self.grids[0].sim_tasks  # the same in every grid

    def warm_up(self):
        """Runs the first grid once, unmeasured: it fills the caches, gives
        that grid's reference output and sets the rep timeout."""
        self.grids[0].run_rep(warmup=True)

    def ready(self):
        return self.grids[0].ref is not None and not self.problems

    def run_pass(self):
        """One measured rep of every grid, in order."""
        for grid in self.grids:
            if not self.ready():
                return
            grid.run_rep()

    def measure_setup(self, grid):
        """One setup sample: the fastest of SETUP_BATCH dry runs of `grid`
        (process start + load_grid + expand, ~2 ms, whose slow tail is host
        noise). A sample follows every good rep, so setup_s, their median,
        spans the whole run. Returns a problem, or None."""
        walls = []
        for _ in range(SETUP_BATCH):
            wall, _, _, code, _, err = spawn(
                [MSOL_RUN, grid.grid, "--dry-run", "--quiet"], 60)
            if code != 0:
                return f"dry run exit {code}: {err.strip()[-300:]}"
            walls.append(wall)
        self.setup.append(min(walls))
        return None

    def reps(self):
        return [rep for grid in self.grids for rep in grid.reps]

    def metrics(self):
        """The end-to-end metrics. wall_s and cpu_s are each grid's median
        rep, averaged over the grids; sim_tasks_per_s follows from wall_s;
        peak_rss_mb is the median rep and setup_s the median sample. Each
        comes with (median, q1, q3, max, count) of the values it is made
        from: every rep, or every setup sample."""
        measured = [grid.reps for grid in self.grids if grid.reps]
        if not measured:
            return {}
        reps = self.reps()
        walls = [r[0] for r in reps]
        cpus = [r[1] for r in reps]
        rss = [r[2] / 1024 for r in reps]
        rates = [self.sim_tasks / w for w in walls]
        wall = statistics.fmean(statistics.median(r[0] for r in g)
                                for g in measured)
        cpu = statistics.fmean(statistics.median(r[1] for r in g)
                               for g in measured)
        out = {}
        for name, unit, values, value in (
                ("sim_tasks_per_s", "tasks/s", rates, self.sim_tasks / wall),
                ("wall_s", "s", walls, wall),
                ("cpu_s", "s", cpus, cpu),
                ("peak_rss_mb", "MB", rss, statistics.median(rss)),
                ("setup_s", "s", self.setup, statistics.median(self.setup))):
            q1, q3 = quartiles(values)
            out[name] = (value, unit, statistics.median(values), q1, q3,
                         max(values), len(values))
        return out

    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


# ------------------------------------------------------------ traced pass --


def traced_pass(work, kernel_table, timeout):
    """Runs msol_bench on the workload's first grid, checks its runner-pass
    output and replay makespans against msol_run's reference output for
    that grid, and returns its metrics {name: (value, unit)}. Mismatched
    records count as failed."""
    grid = work.grids[0]
    prefix = os.path.join(OUT, grid.tag)
    command = [MSOL_BENCH, f"--grid={grid.grid}", f"--out={prefix}"]
    if kernel_table:
        command.append("--kernel-table")
    result = subprocess.run(command, capture_output=True, text=True,
                            timeout=timeout)
    work.attempted += grid.records
    if result.returncode != 0:
        work.failed += grid.records
        work.problems.append(f"msol_bench: {result.stderr.strip()[-300:]}")
        return {}
    metrics = {}
    for line in result.stdout.splitlines():
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#"):
            metrics[fields[0]] = (float(fields[1]), fields[2])
        elif line.startswith(("# spec", "# layer", "# sharded")):
            print(f"{work.name}: {line[2:]}")

    outputs_differ = False
    for ext, ref in (("csv", grid.ref_csv), ("jsonl", grid.ref_jsonl)):
        if digest(f"{prefix}.runner.{ext}") != digest(ref):
            work.problems.append(f"in-process runner {ext} differs from "
                                 "msol_run's")
            outputs_differ = True
    raw = {}
    with open(grid.ref_jsonl) as text:
        for line in text:
            record = json.loads(line)
            raw[(record["cell_index"], record["algorithm"])] = \
                record["makespan_raw"]
    replayed = {}
    with open(prefix + ".replay.tsv") as text:
        for line in text:
            cell, name, rep, value = line.rstrip("\n").split("\t")
            replayed.setdefault((int(cell), name), {})[int(rep)] = float(value)
    bad = [key for key, series in raw.items()
           if replayed.get(key, {}) != dict(enumerate(series))]
    if bad or len(replayed) != len(raw):
        work.problems.append(f"replay makespans differ on {len(bad)} records")
    failed = len(bad) + abs(len(replayed) - len(raw))
    work.failed += grid.records if outputs_differ else min(failed,
                                                           grid.records)

    if grid.reps:
        best_wall = min(r[0] for r in grid.reps)
        metrics["runner.parallel_eff"] = (
            metrics["runner.pass_s"][0] / (work.threads * best_wall), "ratio")
    return metrics


# ----------------------------------------------------------------- output --


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as text:
        return json.load(text)


def print_host():
    for key, value in host_block():
        print(f"host.{key} {value}")


def print_e2e(work, prefix=""):
    calib = [r[3] for r in work.reps()]
    if calib:
        print(f"{prefix}host_calib_s {statistics.median(calib):.6g} s  "
              f"(min {min(calib):.6g}, max {max(calib):.6g})")
    for index, grid in enumerate(work.grids):
        if grid.reps:
            print(f"{prefix}grid.{index}.rep_wall_s " +
                  " ".join(f"{r[0]:.6g}" for r in grid.reps))
    for name, (value, unit, med, q1, q3, top, count) in \
            work.metrics().items():
        print(f"{prefix}{name} {value:.6g} {unit}  (per rep: median "
              f"{med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, max {top:.6g}, "
              f"n={count}, grids={len(work.grids)})")
    print(f"{prefix}failed_frac {work.failed_frac():.6g} fraction")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return -change if better == "higher" else change


# ------------------------------------------------------------------ modes --


def single_workload(args):
    """Single-workload mode: passes over the workload's grids for about
    --seconds, JSON as the last line. A failed check still prints the JSON,
    with correct false and only the metrics that were measured."""
    start = time.monotonic()
    targets = ["msol_run", "msol_spawn"] + (["msol_bench"] if args.trace
                                            else [])
    build(targets)
    os.makedirs(OUT, exist_ok=True)
    print_host()
    spec = load_benchmark()
    work = Workload(args.workload, args.seed, args.quick)
    work.warm_up()
    if args.trace:
        # One measured rep of the traced grid, for runner.parallel_eff.
        if work.ready():
            work.grids[0].run_rep()
    elif work.ready():
        # Whole passes, so every grid has the same number of reps: as many
        # as fit --seconds at the first pass's pace, and at least MIN_PASSES.
        pass_start = time.monotonic()
        work.run_pass()
        pass_s = time.monotonic() - pass_start
        for _ in range(max(MIN_PASSES, round(args.seconds / pass_s)) - 1):
            if time.monotonic() - start + 1.5 * pass_s > RUN_BUDGET_S:
                break
            work.run_pass()

    if args.trace:
        names = spec["per_layer"]
        measured_layers = {}
        if work.ready():
            measured_layers = traced_pass(
                work, True, max(10, RUN_BUDGET_S - (time.monotonic() - start)))
        for name, (value, unit) in sorted(measured_layers.items()):
            print(f"{name} {value:.6g} {unit}")
    else:
        names = spec["end_to_end"]
        print_e2e(work)
        measured_layers = {name: (value, unit) for name, (value, unit, *_)
                           in work.metrics().items()}
    metrics = {}
    for entry in names:
        if entry["name"] not in measured_layers:
            if not work.problems:
                work.problems.append(f"metric {entry['name']} was not "
                                     "measured")
            continue
        value, unit = measured_layers[entry["name"]]
        if unit != entry["unit"]:
            raise BenchError(f"metric {entry['name']} measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    for problem in work.problems:
        print(f"FAILED {work.name}: {problem}")
    correct = work.failed == 0 and not work.problems
    print(json.dumps({"correct": correct, "attempted": work.attempted,
                      "failed": work.failed, "metrics": metrics}))
    return 0 if correct else 1


def suite(args):
    """Every workload: warm-ups, R passes over every workload's grids
    interleaved round-robin, then one traced pass per workload; --sets N
    repeats the measured part."""
    build(["msol_run", "msol_spawn", "msol_bench"])
    os.makedirs(OUT, exist_ok=True)
    print_host()
    spec = load_benchmark()
    passes = QUICK_PASSES if args.quick else SUITE_PASSES
    sets, calibs = [], []
    for set_index in range(args.sets):
        works = [Workload(name, args.seed, args.quick) for name in WORKLOADS]
        for work in works:
            work.warm_up()
        for _ in range(passes):
            for work in works:
                work.run_pass()
        calib = [r[3] for work in works for r in work.reps()] or [0.0]
        calibs.append(statistics.median(calib))
        print(f"\n== set {set_index + 1}/{args.sets}: seed {args.seed}, "
              f"R={passes} passes, host_calib_s median {calibs[-1]:.6g} s "
              f"(min {min(calib):.6g}, max {max(calib):.6g})")
        for work in works:
            print_e2e(work, prefix=f"{work.name}.")
        sets.append(works)

    if args.sets >= 2:
        print(f"\n== set-to-set deviation (set 2 vs set 1, worse-by as a "
              f"share of set 1; bound from BENCHMARK.json)")
        for first, second in zip(sets[0], sets[1]):
            m1, m2 = first.metrics(), second.metrics()
            for entry in spec["end_to_end"]:
                name = entry["name"]
                if name not in m1 or name not in m2:
                    continue
                dev = worse_by(m1[name][0], m2[name][0], entry["better"])
                flag = "OVER" if dev > entry["bound"] else "ok"
                print(f"{first.name}.{name} {m1[name][0]:.6g} -> "
                      f"{m2[name][0]:.6g} worse_by {dev:+.4f} "
                      f"bound {entry['bound']} {flag}")
        drift = worse_by(calibs[0], calibs[1], "lower")
        print(f"host_calib_s {calibs[0]:.6g} -> {calibs[1]:.6g} s "
              f"worse_by {drift:+.4f}")
        if abs(drift) > CALIB_TOLERANCE:
            print("host_calib_s moved by more than "
                  f"{CALIB_TOLERANCE:.0%}: the host's speed changed between "
                  "the sets")

    ok = True
    print("\n== traced pass (per-layer metrics)")
    for work in sets[-1]:
        if not work.ready():
            continue
        traced = traced_pass(work, False, 300)
        for name, (value, unit) in sorted(traced.items()):
            print(f"{work.name}.{name} {value:.6g} {unit}")
    print("\n== rank kernel bodies (best of 3, interleaved)")
    result = subprocess.run(
        [MSOL_BENCH, "--kernel-table"] +
        (["--kernel-min-s=0.05"] if args.quick else []),
        capture_output=True, text=True, timeout=300)
    print(result.stdout.strip())
    if result.returncode != 0:
        print(f"FAILED kernel table: {result.stderr.strip()}")
        ok = False

    for works in sets:
        for work in works:
            for problem in work.problems:
                print(f"FAILED {work.name}: {problem}")
                ok = False
    print("\nall output checks passed" if ok else "\noutput checks FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        return single_workload(args) if args.workload else suite(args)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as error:
        log(f"run.py: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
