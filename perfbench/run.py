"""Run one mipkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: this process runs the ops of
the workload's fixed op list one after another, for as many passes as fit
in ``--seconds`` at the nominal pass time, and checks every output against
the golden files.  Set-up runs in fresh child processes, several times, and
is reported as the median.  Times are scaled to the reference machine
speed measured alongside them (speed.py); the raw seconds are in the info
line.  With ``--trace 0`` the last line carries the end-to-end metrics;
with ``--trace 1`` passes alternate between untraced and traced, and the
last line carries the per-layer metrics.  The line before it holds the
environment, the failed-op ratio, the tail percentile with its sample
count, the raw times and, when traced, the layer shares of self time.

Only files inside the checkout are read or written: the work directory is
a fresh temporary directory under .perfbench_tmp/, removed at exit, and the
spans of a traced run go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# Speed samples taken in this process before and after each set-up child.
SETUP_SPEED_SAMPLES = 5
# Untimed ops before the first pass, so that first-use costs in the
# interpreter and allocator are not charged to one pass.
WARMUP_S = 2.0
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 20
TIMERS = ("group_core.build_s", "group_core.normal_subgroups_s", "modular_algebra.rel_aug_s", "cli.resolve_s")
COUNTERS = (
    "fp_linalg.calls",
    "fp_linalg.echelon_cells",
    "fp_linalg.absorb_rows",
    "fp_linalg.absorb_pivots",
    "group_core.subgroup_ops",
    "modular_algebra.multiply_vec_calls",
    "modular_algebra.iso_attempts",
    "modular_algebra.iso_accepted",
    "canonical_invariants.evaluate_calls",
    "canonical_invariants.evaluate_hits",
    "decomposition.ab_nab_split_calls",
)
# (ratio, numerator, base): the numerator is reported only through the ratio.
RATIOS = (
    ("fp_linalg.absorb_yield", "fp_linalg.absorb_pivots", "fp_linalg.absorb_rows"),
    ("modular_algebra.iso_accept_ratio", "modular_algebra.iso_accepted", "modular_algebra.iso_attempts"),
    (
        "canonical_invariants.evaluate_hit_ratio",
        "canonical_invariants.evaluate_hits",
        "canonical_invariants.evaluate_calls",
    ),
    ("cli.cache_hit_ratio", "cli.cache_hits", "cli.analyze_ops"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measurement


def timed_setups(workload: str, tmp: Path, repeats: int) -> tuple[list[float], list[float], Path]:
    """Run the set-up ``repeats`` times in fresh processes; return the
    start-to-ready seconds of each, scaled and raw, and the work dir of
    the last one."""
    from speed import Speedometer

    speed = Speedometer()
    raw = []
    for k in range(repeats):
        workdir = tmp / f"setup-{k}"
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_inputs.py"), workload, str(workdir)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up of {workload} failed with exit code {code}")
        raw.append(ready - start)
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
    factor = speed.overall_factor()
    return [s * factor for s in raw], raw, workdir


class PassResult:
    """Times (scaled to the reference speed, and raw), failures and
    counters of one pass over the op list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.failures: list[str] = []
        self.analyze_ops = 0
        self.cache_hits = 0
        self.factor = 1.0
        self.layers: dict = {}

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(ops, golden, runner, cache_dir, tracer=None, stop_after_s=None) -> PassResult:
    """Run ``ops`` in order, timing each and checking its output; with
    ``stop_after_s``, stop after the first op that ends past that time."""
    import mipkit
    import workloads as w
    from speed import Speedometer

    result = PassResult(tracer is not None)
    speed = Speedometer()
    midpoints = []
    runner.new_pass(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.install(mipkit)
    perf_counter = time.perf_counter
    try:
        speed.sample()
        pass_start = perf_counter()
        for op in ops:
            runner.before(op)
            entries = len(os.listdir(cache_dir)) if op[0] == "analyze" else 0
            start = perf_counter()
            try:
                value = runner.execute(op)
                error = None
            except Exception as exc:  # a failed op is counted, never fatal
                error = f"{type(exc).__name__}: {exc}"
            end = perf_counter()
            result.raw_latencies.append(end - start)
            midpoints.append((start + end) / 2)
            if error is None and w.observed(op, value) != w.expected(op, golden):
                error = "output differs from golden"
            if error is not None:
                result.failures.append(f"{w.op_id(op)}: {error}")
            if op[0] == "analyze":
                result.analyze_ops += 1
                result.cache_hits += len(os.listdir(cache_dir)) == entries
            speed.maybe_sample()
            if stop_after_s is not None and perf_counter() - pass_start > stop_after_s:
                break
        speed.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.latencies = [x * speed.factor(t) for x, t in zip(result.raw_latencies, midpoints)]
    result.factor = speed.overall_factor()
    if tracer is not None:
        result.layers = layer_summary(tracer, result)
    return result


def layer_summary(tracer, result: PassResult) -> dict:
    """Per-layer times (scaled by the pass's speed) and counts of one
    traced pass."""
    import layertrace

    times = {f"{layer}.self_s": tracer.times[f"{layer}.self_s"] for layer in layertrace.LAYERS}
    times.update({name: tracer.times[name] for name in TIMERS})
    times["trace.uncovered_s"] = sum(result.raw_latencies) - tracer.top_level_s
    out = {name: value * result.factor for name, value in times.items()}
    out.update({name: tracer.counts[name] for name in COUNTERS})
    out["cli.analyze_ops"] = result.analyze_ops
    out["cli.cache_hits"] = result.cache_hits
    out["trace.spans"] = len(tracer.spans)
    out["trace.wrapped_names"] = len(tracer.wrapped)
    return out


def cache_dir(workload: str, workdir: Path, label) -> Path:
    """The analyze cache of one pass: fresh per pass, except that every
    cli-warm pass reads the cache its set-up filled."""
    import workloads as w

    if workload == "cli-warm":
        return workdir / w.WARM_CACHE
    return workdir / f"cache-{label}"


def measure(args, ops, golden):
    """Set up, warm up, then run the passes; odd passes are traced when
    ``args.trace`` is set."""
    import workloads as w
    from layertrace import Tracer

    tmp = w.new_work_dir(args.workload)
    try:
        scaled, raw, workdir = timed_setups(args.workload, tmp, 1 if args.trace else SETUP_REPEATS)
        runner = w.Runner(workdir)
        warmup = run_pass(
            ops, golden, runner, cache_dir(args.workload, workdir, "warmup"), stop_after_s=WARMUP_S
        )
        passes, tracers = [], []
        measure_start = time.perf_counter()
        for k in range(w.passes_for(args.workload, args.seconds, bool(args.trace))):
            tracer = Tracer() if args.trace and k % 2 == 1 else None
            passes.append(run_pass(ops, golden, runner, cache_dir(args.workload, workdir, k), tracer))
            if tracer is not None:
                tracers.append(tracer)
        measured_s = time.perf_counter() - measure_start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return (scaled, raw), warmup, passes, tracers, measured_s


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    by nearest rank: (value, percentile)."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end_metrics(passes: list[PassResult], setup) -> tuple[dict, dict]:
    setup_scaled, setup_raw = setup
    latencies = [x for p in passes for x in p.latencies]
    if len(latencies) < MIN_TAIL_SAMPLES:
        raise RuntimeError(f"only {len(latencies)} ops measured; the tail needs {MIN_TAIL_SAMPLES}")
    tail_s, percentile = tail(latencies)
    raw_latencies = [x for p in passes for x in p.raw_latencies]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "latency_tail": {"percentile": round(percentile, 3), "samples": len(latencies)},
        "raw_s": {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(sum(p.raw_latencies) for p in passes),
            "latency_p50_s": statistics.median(raw_latencies),
            "latency_tail_s": tail(raw_latencies)[0],
        },
    }
    return metrics, info


def per_layer_metrics(passes: list[PassResult]) -> tuple[dict, dict]:
    """Metrics of the traced run: times are medians over traced passes,
    counts come from the first traced pass (they repeat in every pass)."""
    import layertrace

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    first = traced[0].layers
    for other in traced[1:]:
        for name, value in first.items():
            if not name.endswith("_s") and other.layers[name] != value:
                print(f"warning: count {name} differs between traced passes", file=sys.stderr)
    numerators = {numerator for _, numerator, _ in RATIOS}
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            metrics[name] = (statistics.median(p.layers[name] for p in traced), "s")
        elif name not in numerators:
            metrics[name] = (value, "count")
    for name, numerator, base in RATIOS:
        metrics[name] = (first[numerator] / first[base] if first[base] else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced),
        "ratio",
    )
    self_s = {layer: metrics[f"{layer}.self_s"][0] for layer in layertrace.LAYERS}
    self_s["uncovered"] = metrics["trace.uncovered_s"][0]
    total = sum(self_s.values())
    return metrics, {name: round(value / total, 4) for name, value in self_s.items()}


def write_spans(tracers, workload: str, seed: int) -> Path:
    """Write the wrapped names and the spans of every traced pass."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        fh.write('{"wrapped":%s,"passes":[' % json.dumps(tracers[0].wrapped))
        for k, tracer in enumerate(tracers):
            if k:
                fh.write(",")
            tracer.dump(fh)
        fh.write("]}\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mipkit" / "__init__.py").is_file():
        print(f"error: no mipkit source under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import mipkit
    import workloads as w

    if Path(mipkit.__file__).resolve().parent != SRC / "mipkit":
        print(f"error: imported mipkit from {mipkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {w.WORKLOADS}", file=sys.stderr)
        return 2

    golden = w.load_golden()
    ops = w.op_list(args.workload, args.seed, golden)
    setup, warmup, passes, tracers, measured_s = measure(args, ops, golden)

    failures = [f for p in (warmup, *passes) for f in p.failures]
    attempted = sum(len(p.latencies) for p in (warmup, *passes))
    for line in failures[:5]:
        print(f"failed: {line}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "environment": environment(args.seed, nproc),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "measured_s": round(measured_s, 3),
        "speed_factors": [round(p.factor, 4) for p in passes],
        "failed_ratio": len(failures) / attempted,
    }
    if args.trace:
        metrics, shares = per_layer_metrics(passes)
        info["layer_shares"] = shares
        info["spans_file"] = str(write_spans(tracers, args.workload, args.seed).relative_to(ROOT))
    else:
        metrics, extra = end_to_end_metrics(passes, setup)
        info.update(extra)
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
