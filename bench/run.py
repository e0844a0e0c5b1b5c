"""Benchmark for coalition-lp: exact search, the LP chain and the limit-law Monte Carlo.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py --workload exact-ic4 --seed 9 --seconds 20 --trace 0
    python3 bench/run.py --workload mc-curves --trace 1   # per-layer figures
    python3 bench/run.py --smoke                          # every workload, in seconds
    python3 bench/run.py --workload exact-ic4 --full      # whole ROADMAP corpus, n = 1000 too
    python3 bench/run.py --record                         # rewrite bench/golden.json

A run is a closed loop with one caller.  After one checked warm-up pass it
runs a fresh input set per pass until --seconds have passed, at least
three passes and at least 100 jobs (see timed_passes).  Untraced runs
print the end-to-end metrics; --trace 1 follows each pass with a traced
repeat and prints the per-layer metrics (see bench/spans.py).  Every
output is checked; the last line of stdout is one JSON object, and
bench/out/ receives a result file with the machine, the code size, the
failed jobs and the raw figures.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

SETUP_PROBES = 7
MIN_PASSES = 3
MIN_JOBS = 100  # p90 needs ten jobs beyond it
TIME_LIMIT_S = 120  # stop adding passes past this, whatever --seconds says

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def load_package():
    """Import coalition_lp from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "coalition_lp" / "__init__.py").is_file():
        print(f"error: no src/coalition_lp under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("coalition_lp")
    for name in ("election", "lp", "exact", "reduction", "asymptotics", "cli"):
        importlib.import_module(f"coalition_lp.{name}")
    if Path(pkg.__file__).resolve().parent != (src / "coalition_lp").resolve():
        print(f"error: imported coalition_lp from {pkg.__file__}", file=sys.stderr)
        sys.exit(2)
    return pkg


@dataclass
class Failure:
    error: str
    elapsed_s: float
    detail: str


def run_pass(jobs):
    """Call every job once; returns (results, wall seconds) with results [(output, seconds)]."""
    results = []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # the run goes on; the job is reported as failed
            out = Failure(type(exc).__name__, 0.0, traceback.format_exc(limit=3))
        dt = time.perf_counter() - t0
        if isinstance(out, Failure):
            out.elapsed_s = dt
        results.append((out, dt))
    return results, time.perf_counter() - start


class Ledger:
    """Attempted and failed jobs, failed job ids and correctness issues."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}  # job id -> Failure (first occurrence)
        self.failed = 0
        self.issues = []

    def check_pass(self, jobs, results, repeat_of=None):
        """Check a pass; returns its outputs by job id and each job's key (None if it failed).

        With `repeat_of`, the keys of an earlier pass over the same jobs,
        every job only has to repeat its output.
        """
        outputs = {j.id: out for j, (out, _dt) in zip(jobs, results)
                   if not isinstance(out, Failure)}
        keys = []
        for i, (job, (out, _dt)) in enumerate(zip(jobs, results)):
            self.attempted += 1
            if isinstance(out, Failure):
                self.failed += 1
                self.failures.setdefault(job.id, out)
                keys.append(None)
                continue
            keys.append(job.key(out))
            if repeat_of is None:
                bad = job.check(out, outputs)
            else:
                same = keys[-1] == repeat_of[i]
                bad = [] if same else [f"{job.id}: output changed between runs"]
            if bad:
                self.failed += 1
                self.issues += bad
        return outputs, keys


# --------------------------------------------------------------------- #
# Machine and code
# --------------------------------------------------------------------- #

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_info(threads):
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size")
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        **versions,
        "threads_used": list(threads),
    }


def code_lines():
    return sum(
        len(p.read_text().splitlines())
        for p in sorted((ROOT / "src" / "coalition_lp").glob("*.py"))
    )


# --------------------------------------------------------------------- #
# Probes in fresh interpreters
# --------------------------------------------------------------------- #

def _timed_child(argv):
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE)
    return time.perf_counter() - t0


def setup_probe(args):
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    return [_timed_child(argv) for _ in range(SETUP_PROBES)]


IMPORT_CLI = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import coalition_lp.cli; print(time.perf_counter() - t)"
)


def import_probe():
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", IMPORT_CLI], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(done.stdout.strip()))
    return times


# --------------------------------------------------------------------- #
# Modes
# --------------------------------------------------------------------- #

def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def build(pkg, args, golden, **kw):
    return workloads.WORKLOADS[args.workload](pkg, args.seed, golden, **kw)


@contextlib.contextmanager
def tracing(tracer):
    """Install the tracer's wrappers for the block (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.remove()


def declared_units(section):
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@dataclass
class Timings:
    job_s: list  # seconds of every untraced job run
    job_ids: list  # the id of each
    pass_wall_s: list  # untraced passes
    traced_slices: list  # span index ranges of the traced passes
    traced_all_rankings: int  # all_rankings calls inside traced passes
    overhead: list  # traced / untraced wall, pass by pass


def timed_passes(wl, ledger, seconds, tracer, deadline):
    """Run input sets 1, 2, ... once each, one per pass, until `seconds` have passed.

    Every pass draws new inputs from the seed, so a run averages over many
    profiles (or relabellings) rather than timing a few of them again: the
    inputs alone move one pass's wall by 10-15%.  The host's speed also
    jumps between levels about 1.4x apart, for a few hundred ms up to
    minutes; the pass wall is the mean over all passes and the job
    percentiles pool every run, so both move only with the share of time
    spent at each level.  A traced pass repeats the untraced pass before
    it, on the same inputs.
    """
    job_s, job_ids, walls = [], [], []
    slices, overhead, counted = [], [], 0
    start = time.perf_counter()
    for k in itertools.count(1):
        jobs = wl.set_jobs(k)
        results, wall = run_pass(jobs)
        _outputs, keys = ledger.check_pass(jobs, results)
        walls.append(wall)
        job_s += [dt for _out, dt in results]
        job_ids += [job.id for job in jobs]
        if tracer:
            lo, count0 = len(tracer.spans), tracer.counts.get("election.all_rankings", 0)
            with tracing(tracer):
                results, traced_wall = run_pass(jobs)
            slices.append((lo, len(tracer.spans)))
            counted += tracer.counts.get("election.all_rankings", 0) - count0
            ledger.check_pass(jobs, results, repeat_of=keys)
            overhead.append(traced_wall / wall)
        done = (
            time.perf_counter() - start >= seconds
            and k >= MIN_PASSES
            and len(job_s) >= MIN_JOBS
        )
        if done or time.perf_counter() > deadline:
            return Timings(job_s, job_ids, walls, slices, counted, overhead)


def timed_run(pkg, args, golden):
    from spans import Tracer, layer_metrics

    started = time.perf_counter()
    probes = import_probe() if args.trace else setup_probe(args)
    tracer = Tracer(pkg) if args.trace else None

    with tracing(tracer):
        wl = build(pkg, args, golden)
    setup_spans = len(tracer.spans) if tracer else 0
    setup_counted = tracer.counts.get("election.all_rankings", 0) if tracer else 0

    ledger = Ledger()
    jobs = wl.set_jobs(0)
    results, _wall = run_pass(jobs)  # warm-up
    outputs, _keys = ledger.check_pass(jobs, results)
    t = timed_passes(wl, ledger, args.seconds, tracer, started + TIME_LIMIT_S)

    OUT.mkdir(exist_ok=True)
    with tracing(tracer):
        cli_issues = wl.cli_check(str(OUT), outputs)
    ledger.attempted += 1
    if cli_issues:
        ledger.failed += 1
        ledger.issues += cli_issues
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    job_s = t.job_s
    slowest = max(range(len(job_s)), key=job_s.__getitem__)
    extra = {
        "passes": len(t.pass_wall_s),
        "pass_wall_s": t.pass_wall_s,
        "jobs_timed": len(job_s),
        "slowest_job": {"id": t.job_ids[slowest], "s": job_s[slowest]},
        "probe_s": probes,
    }
    if tracer:
        traced = len(t.traced_slices)
        metrics = layer_metrics(tracer, (0, setup_spans), t.traced_slices,
                                setup_counted + t.traced_all_rankings / traced)
        main_spans = [span for span in tracer.spans if span[0] == "cli.main"]
        metrics["cli.import_ms"] = statistics.median(probes) * 1e3
        metrics["cli.main_ms"] = (main_spans[-1][2] - main_spans[-1][1]) / 1e6
        metrics["trace.overhead_frac"] = statistics.median(t.overhead) - 1
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        extra["unwrapped"] = tracer.missing
    else:
        metrics = {
            "setup_s": statistics.median(probes),
            "wall_s": statistics.fmean(t.pass_wall_s),
            "job_p50_ms": statistics.median(job_s) * 1e3,
            "job_p90_ms": statistics.quantiles(job_s, n=10)[-1] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        for threads in (1, 2):
            gw = [dt for job_id, dt in zip(t.job_ids, job_s)
                  if job_id.startswith("gw-") and job_id.endswith(f"-t{threads}")]
            if gw:
                extra[f"mc_draws_per_s_{threads}t"] = wl.notes["samples"] * len(gw) / sum(gw)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        differ = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics {differ} differ from BENCHMARK.json")
    return wl, ledger, {k: metrics[k] for k in units}, units, extra


def single_pass(pkg, args, golden, **kw):
    """One untimed, fully checked pass (for --full, --smoke and --record)."""
    wl = build(pkg, args, golden, **kw)
    jobs = wl.set_jobs(0)
    ledger = Ledger()
    results, wall = run_pass(jobs)
    outputs, keys = ledger.check_pass(jobs, results)
    return wl, jobs, ledger, results, wall, outputs, keys


def report(args, wl, ledger, metrics, units, extra):
    for name, value in metrics.items():
        print(f"{wl.name:10s} {name:40s} {value:14.4f} {units[name]}")
    for issue in ledger.issues[:20]:
        print(f"MISMATCH {issue}")
    for job_id, f in ledger.failures.items():
        print(f"FAILED   {job_id}: {f.error} after {f.elapsed_s:.2f} s")
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(wl.threads),
        "code": {"src_coalition_lp_lines": code_lines()},
        "inputs": wl.notes,
        "correct": not ledger.issues,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": ledger.failed / ledger.attempted,
        "failed_jobs": {k: {"error": f.error, "elapsed_s": f.elapsed_s, "detail": f.detail}
                        for k, f in ledger.failures.items()},
        "issues": ledger.issues,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    mode = "full" if args.full else f"trace{args.trace}"
    (OUT / f"{wl.name}-seed{args.seed}-{mode}.json").write_text(json.dumps(result, indent=1))
    line = {
        "correct": not ledger.issues,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0 if not ledger.issues else 1


def full_run(pkg, args, golden):
    wl, _jobs, ledger, results, wall, _outputs, _keys = single_pass(pkg, args, golden,
                                                                    full=True)
    times = [dt for _out, dt in results]
    metrics = {"wall_s": wall, "job_p50_ms": statistics.median(times) * 1e3,
               "job_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3}
    units = {"wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms"}
    return report(args, wl, ledger, metrics, units, {"jobs": len(times)})


def smoke_run(pkg, args, golden):
    total, failed, issues, metrics = 0, 0, [], {}
    for name in workloads.WORKLOADS:
        args.workload = name
        wl, jobs, ledger, _results, wall, outputs, _keys = single_pass(pkg, args, golden,
                                                                       smoke=True)
        OUT.mkdir(exist_ok=True)
        bad = wl.cli_check(str(OUT), outputs)
        total += ledger.attempted + 1
        failed += ledger.failed + bool(bad)
        issues += ledger.issues + bad
        metrics[f"{name}.wall_s"] = {"value": wall, "unit": "s"}
        print(f"{name:10s} {len(jobs):4d} jobs {wall:8.3f} s  "
              f"{'ok' if not ledger.issues and not bad else 'MISMATCH'}")
    for issue in issues[:20]:
        print(f"MISMATCH {issue}")
    print(json.dumps({"correct": not issues, "attempted": total, "failed": failed,
                      "metrics": metrics}))
    return 0 if not issues else 1


def record(pkg, args):
    """Run every workload once at the default seed and store its outputs."""
    golden = load_golden() if args.workload else {}
    args.seed = workloads.DEFAULT_SEED
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        args.workload = name
        _wl, jobs, ledger, _results, wall, _outputs, keys = single_pass(
            pkg, args, {}, full=(name == "exact-ic4"))
        if ledger.issues:
            for issue in ledger.issues:
                print(f"MISMATCH {issue}", file=sys.stderr)
            return 1
        golden[name] = {j.id: key for j, key in zip(jobs, keys)}
        for job_id, f in ledger.failures.items():
            print(f"{name}: {job_id} failed with {f.error} after {f.elapsed_s:.1f} s")
        print(f"{name}: {len(jobs)} jobs recorded in {wall:.1f} s")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true", help="a small slice of every workload")
    mode.add_argument("--full", action="store_true",
                      help="one pass over the whole corpus, budget-exhausting jobs included")
    mode.add_argument("--record", action="store_true",
                      help="rewrite bench/golden.json (only --workload's part, if given)")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.smoke or args.record or args.workload):
        parser.error("--workload is required")

    pkg = load_package()
    if args.record:
        return record(pkg, args)
    golden = load_golden()
    if args.setup_only:
        build(pkg, args, golden)
        return 0
    if args.smoke:
        return smoke_run(pkg, args, golden)
    if args.full:
        return full_run(pkg, args, golden)
    return report(args, *timed_run(pkg, args, golden))


if __name__ == "__main__":
    sys.exit(main())
