"""deformclass benchmark: one workload per run, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-references   # rewrite references.json
    python3 perfbench/run.py --write-manifest      # rewrite BENCHMARK.json

A run imports deformclass from the checkout's ``src`` directory, makes
its inputs from the seed, performs the workload's set-up, then runs
units back to back for S seconds (and at least MIN_UNITS units).  The
set-up is repeated afterwards for a median.  Every output is checked; on
seeds other than the default, two default-seed units are also run and
compared with the references.  Times are reported in reference-speed
seconds (see calibration.py).  The last line of standard output is the
result object; the line before it records the environment and the raw
times.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

# The program runs at its defaults: no harness or BLAS thread overrides.
# BLAS reads these when numpy loads, so main() drops them before importing it.
THREAD_VARS = ("DEFORMCLASS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_UNITS = 20
MAX_SECONDS = 150.0
PROBE_UNITS = 2
KERNEL_SPAN = 2
RUN_SECONDS = 15

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "units_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "unit_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "unit_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
)


class Unit(NamedTuple):
    i: int
    wall_s: float
    ref_s: float
    traced: bool
    out: object
    error: str | None


def _import_program():
    """Import deformclass from this checkout, never from anywhere else."""
    if not (SRC / "deformclass" / "__init__.py").is_file():
        raise SystemExit(f"error: no deformclass sources under {SRC}; run the "
                         "benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import deformclass
    import deformclass.cli  # noqa: F401 - makes deformclass.cli an attribute
    if Path(deformclass.__file__).resolve().parent != SRC / "deformclass":
        raise SystemExit(f"error: imported deformclass from {deformclass.__file__}")
    return deformclass


def _timed(fn):
    """(result, wall seconds, reference seconds) of ``fn()``."""
    from calibration import kernel_seconds, reference_seconds
    before = kernel_seconds()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, reference_seconds(wall, (before + kernel_seconds()) / 2)


def _import_once() -> float:
    """``import deformclass`` timed inside a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import deformclass; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(api, seed: int, removed: dict) -> dict:
    import numpy as np
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        pass
    status = _git("status", "--porcelain", "--untracked-files=no")
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "deformclass").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    worker_count = getattr(api.harness, "_worker_count", None)
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env_in_effect": {v: os.environ[v] for v in THREAD_VARS
                                 if v in os.environ},
        "thread_env_removed": removed,
        "harness_workers": worker_count() if worker_count else None,
        "seed": seed,
    }


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def check_unit(wl, state, i, out, error, ref) -> list[str]:
    """Problems with one unit's output; empty when it passed."""
    if error is not None:
        return [error]
    problems = wl.check(state, i, out)
    if ref is not None:
        problems += wl.compare(ref, wl.fingerprint(out))
    return problems


def count_failures(wl, state, units: list[Unit], refs) -> tuple[int, list[str]]:
    """Failed units, judged from their outputs alone, never exit codes."""
    failed, problems = 0, []
    for u in units:
        ref = refs[u.i % len(refs)] if refs is not None else None
        found = check_unit(wl, state, u.i, u.out, u.error, ref)
        failed += bool(found)
        problems += [f"unit {u.i}: {p}" for p in found]
    return failed, problems


def _attempt(api, wl, state, i, tracer=None):
    try:
        return wl.unit(api, state, i, tracer), None
    except Exception as exc:  # a failed unit is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_units(api, wl, state, seconds: float, tracer=None,
              min_units: int = MIN_UNITS) -> list[Unit]:
    """Closed loop: the next unit starts when the previous one ends.

    A calibration kernel runs before each unit and after the last.  With
    a tracer, odd units run traced and even units untraced.
    """
    from calibration import kernel_seconds, reference_seconds
    from metrics import median
    runs = []
    kernels = [kernel_seconds()]
    start = time.perf_counter()
    while True:
        i = len(runs)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install("unit")
        t0 = time.perf_counter()
        out, error = _attempt(api, wl, state, i, tracer if traced else None)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        kernels.append(kernel_seconds())
        runs.append((i, wall, traced, out, error))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(runs) >= min_units) or elapsed >= MAX_SECONDS:
            break
    # The kernel itself reads +-20 % from sample to sample, while the drift
    # it tracks lasts seconds: scale each unit by the median of the kernels
    # from two units before it to two after it.
    units = []
    for i, wall, traced, out, error in runs:
        kernel = median(kernels[max(0, i - KERNEL_SPAN): i + KERNEL_SPAN + 2])
        units.append(Unit(i, wall, reference_seconds(wall, kernel),
                          traced, out, error))
    return units


def end_to_end(units: list[Unit], setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    from metrics import median, tail
    lat = [u.ref_s for u in units]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "units_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "unit_p50_s": {"value": median(lat), "unit": "s"},
    }
    info = {"units": len(lat),
            "raw_units_per_s": len(lat) / sum(u.wall_s for u in units),
            "raw_unit_p50_s": median([u.wall_s for u in units])}
    t = tail(lat)
    if t is not None:
        metrics["unit_tail_s"] = {"value": t[0], "unit": "s"}
        info.update(tail_percentile=t[1], tail_units_beyond=t[2])
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return metrics, info


def run(name: str, seed: int, seconds: float, trace: bool, removed: dict) -> int:
    from metrics import median
    from tracing import Tracer, per_layer_spec
    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS[name]
    api = _import_program()
    env = environment(api, seed, removed)
    references = load_references()[name]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(api) if trace else None
    try:
        inputs = wl.inputs(api, seed, work)
        setups = []

        def set_up():
            gc.collect()
            if tracer:
                tracer.install("setup")
            try:
                state, wall, ref = _timed(lambda: wl.setup(api, inputs))
            finally:
                if tracer:
                    tracer.uninstall()
            setups.append((wall, ref))
            return state

        state = set_up()
        units = run_units(api, wl, state, seconds, tracer)
        # one set-up and the units: later set-ups and the probe would add
        # heap fragmentation and inputs of their own to the peak
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems = count_failures(
            wl, state, units, references if seed == DEFAULT_SEED else None)
        attempted = len(units)

        for _ in range(SETUP_REPEATS - 1):
            state = None  # release the previous set-up before the next
            state = set_up()
        imports = []
        for _ in range(IMPORT_REPEATS):
            # the child times the import alone; the bracket gives the speed
            inner, wall, ref = _timed(_import_once)
            imports.append((inner, inner * ref / wall))
        if seed != DEFAULT_SEED:
            # every run also checks a few default-seed units against the references
            probe = wl.probe_state(api, state, wl.inputs(api, DEFAULT_SEED, work))
            for i in range(PROBE_UNITS):
                out, error = _attempt(api, wl, probe, i)
                found = check_unit(wl, probe, i, out, error, references[i])
                failed += bool(found)
                problems += [f"reference probe unit {i}: {p}" for p in found]
            attempted += PROBE_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import_ref = median([r for _, r in imports])
    setup_ref = median([r for _, r in setups])
    e2e, info = end_to_end(units, import_ref + setup_ref, rss_mb)
    info.update(workload=name, seed=seed, trace=int(trace),
                failed_frac=failed / attempted,
                raw_setup_s=median([w for w, _ in imports]) + median([w for w, _ in setups]),
                setup_import_s=import_ref, setup_program_s=setup_ref)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer:
        layer = tracer.metrics([u.ref_s for u in units if not u.traced],
                               [u.ref_s for u in units if u.traced])
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in per_layer_spec()}
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(span_file)
        info["spans"] = str(span_file.relative_to(ROOT))
        info["tracing_overhead_s"] = layer["trace.overhead_s"]
    else:
        metrics = e2e
    print(json.dumps({"env": env, "info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def record_references() -> None:
    """Record every workload's default-seed outputs from the current code."""
    from workloads import DEFAULT_SEED, WORKLOADS
    api = _import_program()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for name, wl in WORKLOADS.items():
            state = wl.setup(api, wl.inputs(api, DEFAULT_SEED, work))
            refs[name] = []
            for i in range(wl.inputs_per_seed):
                out = wl.unit(api, state, i)
                problems = wl.check(state, i, out)
                if problems:
                    raise SystemExit(f"{name} unit {i} fails its invariants: {problems}")
                refs[name].append(wl.fingerprint(out))
            print(f"recorded {len(refs[name])} references for {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


def manifest() -> dict:
    from tracing import per_layer_spec
    from workloads import WORKLOADS
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": list(END_TO_END),
        "per_layer": per_layer_spec(),
    }


def main(argv: list[str] | None = None) -> int:
    removed = {v: os.environ.pop(v) for v in THREAD_VARS if v in os.environ}
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.record_references:
        record_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), removed)


if __name__ == "__main__":
    sys.exit(main())
