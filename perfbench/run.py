"""Benchmark for mmirror: three closed-loop workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_pinned --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process runs one workload on one thread.  A run makes ``--seconds``
divided by the workload's nominal pass time (at least MIN_PASSES) whole
passes over its items.  Before each pass the set-up runs once or more,
at least SETUP_REPEATS times in all, each re-importing the package from
``src/``, so every pass starts with the package's caches empty, as in a
new ``mmirror`` process.  After each set-up and each item a fixed
reference computation, which does not touch the package, runs for about
REFERENCE_SHARE of its time.  ``setup_s`` and ``pass_s`` are the mean
set-up and pass times scaled to a host on which one reference run takes
REFERENCE_S, so they follow the package's cost and not the host's speed.  The pass count is fixed, not
timed, so that every run of a workload on any machine takes the same
number of latency samples.
The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``--workload all`` runs each
workload in its own process and prints one summary line per workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402

SETUP_REPEATS = 4
MIN_PASSES = 2
MIN_BEYOND = 10     # case runs that must lie beyond the reported p80
TRACE_PAIRS = 2
REFERENCE_SHARE = 0.1   # reference time after a timed step, as a share of it
REFERENCE_S = 0.004     # one reference run on the scale the times are given in

# per-layer metric name -> (span name or counter, field).  The fields
# "self_s", "total_s" and "calls" read Tracer.layer_totals; "count" reads
# a Tracer counter.
LAYER_METRICS = {
    "rootsys.build_root_datum.s": ("rootsys.build_root_datum", "self_s"),
    "rootsys.levi_data.s": ("rootsys.levi_data", "self_s"),
    "weyl.minuscule_coset_reps.s": ("weyl.minuscule_coset_reps", "self_s"),
    "weyl.special_elements.s": ("weyl.special_elements", "self_s"),
    "weyl.pd.s": ("weyl.pd", "self_s"),
    "weyl.pd.calls": ("weyl.pd", "calls"),
    "weyl.w_gamma_set.s": ("weyl.w_gamma_set", "self_s"),
    "weyl.cosets": ("weyl.cosets", "count"),
    "qchev.quantum_chevalley_minuscule.s":
        ("qchev.quantum_chevalley_minuscule", "self_s"),
    "qchev.fw_matrix.s": ("qchev.fw_matrix", "self_s"),
    "qchev.mihalcea_equivariant.s": ("qchev.mihalcea_equivariant", "self_s"),
    "qchev.check_homogeneous.s": ("qchev.check_homogeneous", "self_s"),
    "qchev.poincare_self_adjoint.s": ("qchev.poincare_self_adjoint", "self_s"),
    "qchev.matrix_relation.s": ("qchev.matrix_relation", "self_s"),
    "qchev.nonzero_entries": ("qchev.nonzero_entries", "count"),
    "minrep.build_rep.s": ("minrep.build_rep", "self_s"),
    "minrep.build_rep.calls": ("minrep.build_rep", "calls"),
    "minrep.fg_connection.s": ("minrep.fg_connection", "self_s"),
    "minrep.equivariant_fg.s": ("minrep.equivariant_fg", "self_s"),
    "period_gw.quantum_period.s": ("period_gw.quantum_period", "self_s"),
    "period_gw.quantum_period.calls": ("period_gw.quantum_period", "calls"),
    "period_gw.coefficients": ("period_gw.coefficients", "count"),
    "period_gw.bruhat_path_count.s": ("period_gw.bruhat_path_count", "self_s"),
    "period_gw.cyclic_scalar_operator.s":
        ("period_gw.cyclic_scalar_operator", "self_s"),
    "period_gw.operator_annihilates.s":
        ("period_gw.operator_annihilates", "self_s"),
    "period_gw.d4_split.s": ("period_gw.d4_split", "self_s"),
    "crystal_potential.potential_typeA.s":
        ("crystal_potential.potential_typeA", "self_s"),
    "crystal_potential.gw_from_constant_term.s":
        ("crystal_potential.gw_from_constant_term", "self_s"),
    "crystal_potential.gw_from_constant_term.calls":
        ("crystal_potential.gw_from_constant_term", "calls"),
    "crystal_potential.f1_terms": ("crystal_potential.f1_terms", "count"),
    "cli.case.s": ("cli.case", "total_s"),
    "cli.case.calls": ("cli.case", "calls"),
    "cli.self.s": ("cli.case", "self_s"),
}


# --------------------------------------------------------------------------
# arithmetic
# --------------------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of
    the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


def fail_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    return failed / attempted


def reference_work() -> int:
    """A fixed computation of a few milliseconds in the library's style:
    exact rational arithmetic and tuple-keyed dictionaries, in pure
    Python.  It imports nothing from the package, so no change to the
    package can change its cost; only the host's speed does."""
    counts, total = {}, Fraction(0)
    for i in range(1, 1200):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + i
        total += Fraction(i, i % 17 + 1)
    return len(counts) + total.numerator % 7


class Reference:
    """Runs of reference_work interleaved with the workload's timed steps.

    A shared host's speed drifts by tens of percent over a minute, and
    it slows the package and the reference alike.  Running the reference
    after every set-up and item, for a share of its time, samples the
    host's speed weighted the way the timed steps are, so scaling the
    times by the reference keeps the package's cost and drops most of
    the drift.
    """

    def __init__(self):
        self.runs = 0
        self.seconds = 0.0

    def follow(self, item_s: float) -> None:
        """Run the reference for about REFERENCE_SHARE of item_s, at
        least once.

        The garbage collector is off meanwhile: a full collection walks
        every object the package holds, and would make the reference's
        time depend on the package after all.
        """
        end = time.perf_counter() + REFERENCE_SHARE * item_s
        gc.disable()
        try:
            while True:
                t0 = time.perf_counter()
                reference_work()
                t1 = time.perf_counter()
                self.runs += 1
                self.seconds += t1 - t0
                if t1 >= end:
                    return
        finally:
            gc.enable()

    def mean_s(self) -> float:
        return self.seconds / self.runs

    def scale(self) -> float:
        """Factor from this run's seconds to seconds on a host where one
        reference run takes REFERENCE_S."""
        return REFERENCE_S / self.mean_s()


# --------------------------------------------------------------------------
# one workload in this process
# --------------------------------------------------------------------------

def import_cli():
    """Import ``mmirror.cli`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "mmirror" or m.startswith("mmirror.")]:
        del sys.modules[name]
    cli = importlib.import_module("mmirror.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"mmirror imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload, seed: int, tracer=None):
    """Import plus the workload's set-up; returns (cli, items, seconds).

    The caller drops its references to the previous import first, so that
    the untimed collection here frees it and neither the set-up nor the
    next pass pays for collecting it.
    """
    gc.collect()
    start = time.perf_counter()
    cli = import_cli()
    if tracer is not None:
        tracer.install(cli)
    items = workload.setup(cli, random.Random(seed))
    return cli, items, time.perf_counter() - start


class Tally:
    """Item outcomes and latencies across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []     # one per item run, across passes

    def run_pass(self, workload, cli, items, rng, tracer=None,
                 reference=None) -> float:
        """One closed-loop pass in seed order; returns its wall time, less
        the time in ``reference``.  Outputs are checked after the pass,
        outside the timed region."""
        order = list(items)
        rng.shuffle(order)
        outputs = []
        aside = 0.0
        start = time.perf_counter()
        for item in order:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(cli, item)
                else:
                    with tracer.span(workload.item_span,
                                     workload.item_id(item)):
                        out = workload.run(cli, item)
            except Exception:   # the loop must go on; the item counts failed
                traceback.print_exc()
                out = None
            took = time.perf_counter() - t0
            self.latencies.append(took)
            outputs.append(out)
            if reference is not None:
                reference.follow(took)
                aside += time.perf_counter() - t0 - took
        wall = time.perf_counter() - start - aside
        for item, out in zip(order, outputs):
            self.attempted += 1
            try:
                if out is None:
                    raise Mismatch("raised (traceback above)")
                workload.check(cli, item, out)
            except Mismatch as exc:
                self.failed += 1
                print(f"FAIL {workload.item_id(item)}: {exc}", file=sys.stderr)
        return wall


def measure(name: str, seed: int, seconds: int, out_dir: str) -> dict:
    workload = WORKLOADS[name](out_dir)
    rng = random.Random(f"{seed}-order")
    tally = Tally()
    reference = Reference()
    count = max(MIN_PASSES, seconds // workload.nominal_pass_s)
    setups, passes = [], []
    for _ in range(count):
        for _ in range(math.ceil(SETUP_REPEATS / count)):
            cli = items = None
            cli, items, took = set_up(workload, seed)
            setups.append(took)
            reference.follow(took)
        passes.append(tally.run_pass(workload, cli, items, rng,
                                     reference=reference))
    scale = reference.scale()
    metrics = {
        "setup_s": (statistics.mean(setups) * scale, "s"),
        "pass_s": (statistics.mean(passes) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {"workload": name, "seed": seed, "items": len(items),
            "setup_wall_s": statistics.mean(setups), "setups_s": setups,
            "pass_wall_s": statistics.mean(passes), "passes_s": passes,
            "reference_s": reference.mean_s(),
            "reference_runs": reference.runs,
            "fail_ratio": fail_ratio(tally.failed, tally.attempted),
            "item_ids": sorted(workload.item_id(i) for i in items)}
    if workload.case_percentiles:
        runs = tally.latencies
        if beyond(len(runs), 80) < MIN_BEYOND:
            raise RuntimeError(f"{len(runs)} case runs leave fewer than "
                               f"{MIN_BEYOND} beyond p80")
        info.update(case_runs=len(runs),
                    case_p50_s=percentile(runs, 50) * scale,
                    case_p80_s=percentile(runs, 80) * scale)
    return _result(tally, metrics, info)


def measure_traced(name: str, seed: int, out_dir: str) -> dict:
    """TRACE_PAIRS pairs of one untraced and one traced pass, each pass
    after its own set-up so that both start from the same cold caches.
    The order within a pair alternates.  Layer metrics come from the
    first traced set-up and pass; the overhead is the median difference
    within a pair."""
    workload = WORKLOADS[name](out_dir)
    rng = random.Random(f"{seed}-order")
    tally = Tally()
    plain, traced, kept = [], [], None
    for pair in range(TRACE_PAIRS):
        for with_trace in (False, True) if pair % 2 == 0 else (True, False):
            tracer = Tracer() if with_trace else None
            cli = items = None
            cli, items, _ = set_up(workload, seed, tracer)
            wall = tally.run_pass(workload, cli, items, rng, tracer)
            if tracer is None:
                plain.append(wall)
                continue
            tracer.uninstall(cli)
            traced.append(wall)
            if kept is None:
                kept = tracer

    totals = kept.layer_totals()
    metrics = {}
    for metric, (key, field) in LAYER_METRICS.items():
        if field == "count":
            metrics[metric] = (kept.counts.get(key, 0), "count")
        else:
            metrics[metric] = (totals.get(key, {}).get(field, 0),
                               "s" if field.endswith("_s") else "count")
    metrics["trace.pass_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(t - p for t, p in zip(traced, plain)), "s")

    os.makedirs(OUT, exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed,
                   "spans": [s._asdict() for s in kept.spans],
                   "layers": totals, "counts": dict(kept.counts),
                   "calls_per_case": kept.per_case()}, fh)
    info = {"workload": name, "seed": seed, "items": len(items),
            "untraced_pass_s": plain, "traced_pass_s": traced,
            "spans": len(kept.spans),
            "fail_ratio": fail_ratio(tally.failed, tally.attempted)}
    return _result(tally, metrics, info)


def _result(tally: Tally, metrics: dict, info: dict) -> dict:
    return {
        "info": info,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
    }


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def run_all(seed: int, seconds: int) -> int:
    """Each workload in its own process; one summary line per workload."""
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, check=False, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *_, info, last = proc.stdout.strip().splitlines()
        info, result = json.loads(info), json.loads(last)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        metrics.update((k, info[k]) for k in ("setup_wall_s", "pass_wall_s",
                       "case_p50_s", "case_p80_s", "fail_ratio") if k in info)
        summary[name] = {"seed": seed, **metrics}
        print(f"{name:17s} seed={seed} "
              + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()))
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "mmirror" / "cli.py").is_file():
        print(f"error: no mmirror sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs untraced")
        return run_all(args.seed, args.seconds)

    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="verify-", dir=OUT)
    try:
        if args.trace:
            done = measure_traced(args.workload, args.seed, out_dir)
        else:
            done = measure(args.workload, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(done["info"], sort_keys=True))
    print(json.dumps(done["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
