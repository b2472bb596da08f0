"""Repository benchmark for chiraldet: desk training, multi-unit inference
and the gradient audit.

    python3 benchmark/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/`
there and from nowhere else. `--trace 0` prints the end-to-end metrics,
`--trace 1` runs the same rounds alternately untraced and traced and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the setting is recorded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from drift import DriftClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5


def import_package():
    """Import chiraldet afresh from this checkout's src/ and return it."""
    for name in [n for n in sys.modules if n == "chiraldet" or n.startswith("chiraldet.")]:
        del sys.modules[name]
    pkg = importlib.import_module("chiraldet")
    importlib.import_module("chiraldet.gradcheck")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"chiraldet imported from {pkg.__file__}, not from {SRC}")
    return pkg


def machine():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset (random per process)"),
    }


def run_rounds(wl, seconds, errors, tracer=None):
    """Rounds until the next one would overrun `seconds` (at least one).

    With a tracer every round is a pair: untraced, then traced. Returns
    (untraced rounds, traced rounds, failed calls).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            plain.append(wl.round())
            if tracer is not None:
                tracer.new_phase()
                tracer.install()
                try:
                    traced.append(wl.round(tracer))
                finally:
                    tracer.uninstall()
        except errors as exc:
            print(f"round failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return plain, traced, 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return plain, traced, 0


def per_layer_metrics(tracer, setup_factor, traced, plain):
    """Setup-phase totals plus the mean over traced rounds, drift-corrected."""
    totals = tracer.totals()
    factors = np.array([setup_factor] + [r.factor for r in traced])
    n_rounds = len(traced)

    def per_run(values, scale=False):
        v = np.asarray(values, dtype=np.float64) * (factors if scale else 1.0)
        return float(v[0] + v[1:].sum() / n_rounds)

    empty = (np.zeros(len(factors)),) * 3
    metrics = {}
    for name in spans.FUNCTIONS:
        calls, _, self_s = totals.get(name, empty)
        metrics[f"{name}.calls"] = (per_run(calls), "count")
        metrics[f"{name}.self_s"] = (per_run(self_s, scale=True), "s")
    for counter in spans.COUNTERS:
        metrics[counter] = (per_run(tracer.counts[counter]), "count")
    for block in workloads.AUDIT_BLOCKS:
        _, dur, _ = totals.get(f"gradcheck.block.{block}", empty)
        metrics[f"gradcheck.block.{block}.s"] = (per_run(dur, scale=True), "s")
    fwd = totals.get("model.forward_full", empty)[0][1:].sum()
    bwd = totals.get("model.backward_from_logits", empty)[0][1:].sum()
    metrics["audit.backward_per_forward"] = (float(bwd / fwd) if fwd else 0.0, "ratio")
    metrics["trace_overhead"] = (
        float(np.median([r.corrected_s for r in traced]) / np.median([r.corrected_s for r in plain])),
        "ratio",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-desk", "infer-multi", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chiraldet" / "__init__.py").is_file():
        print(f"error: no chiraldet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    reference = json.loads((HERE / "reference.json").read_text())
    clock = DriftClock(reference["yardstick_reference_ms"])
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pkg = import_package()
        checks = workloads.Checks()
        cls = workloads.WORKLOADS[args.workload]
        tracer = spans.Tracer() if args.trace else None

        # set-up: import, input generation, model init and round trips,
        # repeated; the median is setup_s
        setup_intervals = []
        with clock:
            for _ in range(1 if tracer else SETUP_REPS):
                t0 = time.perf_counter()
                if tracer is None:
                    pkg = import_package()
                    wl = cls(pkg, args.seed, workdir)
                else:
                    tracer.install()
                    try:
                        wl = cls(pkg, args.seed, workdir)
                    finally:
                        tracer.uninstall()
                setup_intervals.append((t0, time.perf_counter()))
            errors = pkg.errors.ChiralDetError
            wl.warmup()
            plain, traced, failed_calls = run_rounds(wl, args.seconds, errors, tracer)
        for rnd in plain + traced:
            rnd.settle(clock)
        setup_raw, setup_corr = np.array([clock.correct(*iv) for iv in setup_intervals]).T
        setup_factor = setup_corr[-1] / setup_raw[-1]

        try:
            wl.check(checks)
        except errors as exc:
            checks.expect(False, f"check raised {type(exc).__name__}: {exc}")
        calls = len(plain) + len(traced) + failed_calls
        attempted = calls + checks.attempted
        failed = failed_calls + len(checks.failures)
        if not plain:
            print("error: no round completed, nothing was measured", file=sys.stderr)
            return 1

        detail = {
            "error_rate": (failed / attempted, "ratio"),
            "setup_s": (float(np.median(setup_corr)), "s"),
            "raw.setup_s": (float(np.median(setup_raw)), "s"),
            "round_s": (float(np.median([r.corrected_s for r in plain])), "s"),
            "raw.round_s": (float(np.median([r.raw_s for r in plain])), "s"),
            "rounds": (len(plain), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "yardstick_ms": (clock.median_ms(), "ms"),
        }
        detail.update(wl.summary(plain))
        if tracer is None:
            metrics = {k: detail[k] for k in ("setup_s", "peak_rss_mb", "round_s")}
        else:
            metrics = per_layer_metrics(tracer, setup_factor, traced, plain)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}.npz")

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "machine": machine(),
            "yardstick_reference_ms": clock.reference_ms,
            "absent_functions": tracer.absent if tracer else [],
            "broken_counters": sorted(tracer.broken_counters) if tracer else [],
            "failures": checks.failures[:20],
        }
        if hasattr(wl, "size_distribution"):
            report["sizes"] = wl.size_distribution()
        for name, (value, unit) in list(detail.items()) + (list(metrics.items()) if tracer else []):
            print(f"{name:44s} {value if value is not None else 'n/a':>14} {unit}")
        print("report " + json.dumps(report, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
