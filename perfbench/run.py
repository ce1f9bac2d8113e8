"""Closed-loop benchmark of orangesplines: one process, one client.

    python3 perfbench/run.py --workload dim_general --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
benchmark sends the next op only when the previous one has returned.  Every
op is checked against the frozen table in ``reference.json``; an op that
raises or disagrees with the table counts as failed.

With ``--trace 0`` the run makes at least ``MIN_OPS`` ops, in whole
cycles of the workload's cells, and runs exactly those ops in rounds for
about ``--seconds`` (at least ``MIN_ROUNDS`` rounds).  Each round starts
cold: it imports the package afresh, loads the reference and generates
the inputs, ``SETUPS_PER_ROUND`` times, each timed as one set-up.  On a
shared host other tenants slow each CPU by up to 1.7x, changing within
seconds, so the run keeps track of the machine's pace: right before and
right after each op and each set-up it times a fixed pure-``Fraction``
probe, which no change to the package can speed up.  Every time the run
reports is its wall time scaled by ``PACE_REF`` over the mean of the two
probes around it, i.e. the wall time it would have taken at the
reference pace; an op's latency is the median of that over the rounds,
and p50 and p90 are Harrell-Davis estimates over the ops.
Between ops, at most every ``REPIN_SECONDS``, the benchmark also pins
itself to whichever CPU it may use runs the probe fastest.  The last
stdout line reports ops per second, per-op p50 and p90 latency, the
median set-up time and the peak RSS; the line before it gives the
unscaled wall-time figures as well.

With ``--trace 1`` the run executes ops untraced for half the time, then,
after a fresh import, the same ops again with every layer call wrapped in
a span (see ``tracing.py``).  It reports busy time, call counts, self time
per layer, structure counts of the first op cycle and the tracing
overhead.  Spans go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402

MIN_OPS = 100
MIN_ROUNDS = 3
SETUPS_PER_ROUND = 4
REPIN_SECONDS = 1.0
PROBE_UNITS = 16
PACE_PROBES = 3
# the pace probe's best time on an idle 2-vCPU Xeon VM; reported times are
# wall times scaled to this pace
PACE_REF = 0.28e-3
# inputs generated during set-up; a round that needs more keeps drawing
# from the same stream, outside the timed ops
POOL = 150
REFERENCE = HERE / "reference.json"
SPAN_DIR = Path(".bench_build") / "perfbench"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - beta_cdf(1.0 - x, b, a)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    return math.exp(front) * h / a


def percentile(samples: Iterable[float], q: float) -> tuple[float, int]:
    """Harrell-Davis estimate of the q-th percentile, and the sample count
    behind it.  It weighs every order statistic by a beta distribution
    centred on the q-th percentile, instead of interpolating between the
    two nearest ones, so one op's noise moves the tail percentiles less."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of no samples")
    a, b = (n + 1) * q / 100.0, (n + 1) * (1.0 - q / 100.0)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(ordered, cdf, cdf[1:])), n


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_package(root: Path | None = None) -> Any:
    """Import orangesplines fresh from ``root``/src (default: the working
    directory), dropping any loaded copy and with it every cache it held."""
    src = (root or Path.cwd()) / "src"
    if not (src / "orangesplines" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package at {src / 'orangesplines'}; run from the repository root")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "orangesplines" or m.startswith("orangesplines.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("orangesplines")


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


@dataclass
class Setup:
    pkg: Any
    reference: dict
    ops: Iterator[dict]
    seconds: float


def set_up(workload: str, seed: int) -> Setup:
    """Import the package afresh, load the reference, generate the inputs."""
    t0 = time.perf_counter()
    pkg = import_package()
    reference = load_reference()
    stream = gen.op_stream(workload, seed, reference["complexes"])
    pool = list(islice(stream, POOL))
    return Setup(pkg, reference, chain(pool, stream), time.perf_counter() - t0)


def cold_start(workload: str, seed: int, times: list[float]) -> Setup:
    """Set up ``SETUPS_PER_ROUND`` times, recording each time at the
    reference pace; keep the last set-up."""
    for _ in range(SETUPS_PER_ROUND):
        gc.collect()  # the previous import's garbage is not this set-up's cost
        before = pace()
        setup = set_up(workload, seed)
        times.append(setup.seconds * PACE_REF / ((before + pace()) / 2))
    return setup


def pace() -> float:
    """Machine pace: best time of a fixed pure-Fraction sum, about 0.3 ms."""
    best = math.inf
    for _ in range(PACE_PROBES):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 150):
            total += Fraction(1, i)
        best = min(best, time.perf_counter() - t0)
    return best


class CpuPicker:
    """Moves the process to whichever allowed CPU runs a fixed probe
    fastest, checking again once ``REPIN_SECONDS`` have passed."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.due = 0.0

    @staticmethod
    def probe() -> float:
        """Median time of a small pure-Fraction computation."""
        samples = []
        for _ in range(PROBE_UNITS):
            t0 = time.perf_counter()
            total = Fraction(0)
            for i in range(1, 20):
                total += Fraction(1, i)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    def repin(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() < self.due:
            return
        paces = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                paces[cpu] = self.probe()
            os.sched_setaffinity(0, {min(paces, key=paces.__getitem__)})
        except OSError as exc:  # pinning not permitted here: stay unpinned
            print(f"cannot pin to a CPU: {exc}", file=sys.stderr)
            if paces:
                os.sched_setaffinity(0, set(self.cpus))
            self.cpus = []
        self.due = time.perf_counter() + REPIN_SECONDS


# ---------------------------------------------------------------------------
# ops: each returns True when every answer matches the reference
# ---------------------------------------------------------------------------

def op_dim_general(pkg: Any, ref: dict, op: dict) -> bool:
    cx = pkg.io.complex_from_dict(op["complex"])
    r, d = op["r"], op["d"]
    want = ref["dims"][op["orange"]][r][d]
    formula = pkg.dimension.orange_dim_formula(cx, r, d)
    oracle = pkg.cofactor.spline_dim(cx, r, d)
    return formula == oracle == want


def op_series_adapted(pkg: Any, ref: dict, op: dict) -> bool:
    cx = pkg.io.complex_from_dict(op["complex"])
    r, dmax = op["r"], op["d"]
    want = ref["dims"][op["orange"]][r][: dmax + 1]
    report = pkg.sweep.run_sweep(cx, [r], range(dmax + 1))
    got_formula = [c.formula for c in report.cells]
    got_oracle = [c.oracle for c in report.cells]
    ok, residuals = pkg.dimension.verify_hilbert_identity(cx, r, dmax)
    return (
        got_formula == got_oracle == want
        and [c.d for c in report.cells] == list(range(dmax + 1))
        and ok
        and residuals == [0] * (dmax + 1)
    )


def op_mds_lift(pkg: Any, ref: dict, op: dict) -> bool:
    # built without the geometric validation of complex_from_dict, which
    # dim_general and series_adapted already measure; here it would hide
    # the Bernstein layer this workload is for
    wire = op["complex"]
    cx = pkg.complexes.SimplicialComplex(
        wire["ambient_dim"],
        [[Fraction(c) for c in v] for v in wire["vertices"]],
        wire["maximal_faces"],
    )
    r, d = op["r"], op["d"]
    name = op["orange"]
    standard = pkg.projection.standard_form(cx).standard
    lifted = pkg.bernstein.lift_mds(standard, r, d)
    verified = pkg.bernstein.verify_mds(standard, r, d)
    layers = pkg.bernstein.layer_decomposition(standard, d)
    want = ref["mds"][name][r][d]
    return (
        lifted.total == len(lifted.points) == lifted.formula_value == want
        and want == ref["dims"][name][r][d]
        and verified is True
        and layers.total == ref["lattice"][name][d]
    )


OPS: dict[str, Callable[[Any, dict, dict], bool]] = {
    "dim_general": op_dim_general,
    "series_adapted": op_series_adapted,
    "mds_lift": op_mds_lift,
}


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    ops: list[dict]
    latencies: list[float]
    failed: int
    paces: list[float]


def run_loop(
    workload: str,
    pkg: Any,
    reference: dict,
    ops: Iterable[dict],
    seconds: float = math.inf,
    min_ops: int = 0,
    max_ops: int | None = None,
    cycle: int = 1,
    tracer: tracing.Tracer | None = None,
    cpus: CpuPicker | None = None,
    paced: bool = False,
) -> LoopResult:
    """Run ops back to back, or until ``max_ops`` are done.  Otherwise stop
    at the end of a ``cycle`` of ops, once ``min_ops`` are done, at the
    cycle boundary nearest to ``seconds`` of op time; whole cycles give
    every run the same mix of cells, so its percentiles are comparable.
    With ``paced``, the machine's pace is probed before and after each op,
    outside its latency, and their mean recorded in ``paces``."""
    fn = OPS[workload]
    done: list[dict] = []
    latencies: list[float] = []
    failed = 0
    busy = 0.0
    paces: list[float] = []
    for op in ops:
        if cpus is not None:
            cpus.repin()
        if tracer is not None:
            tracer.op = op["id"]
        before = pace() if paced else 0.0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok = fn(pkg, reference, op)
            else:
                ok = tracer.span(tracing.ROOT, fn, pkg, reference, op)
        except Exception:
            ok = False
            if failed < 3:
                print(f"op {op['id']} ({op['orange']}, r={op['r']}, d={op['d']}) raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if paced:
            paces.append((before + pace()) / 2)
        done.append(op)
        latencies.append(dt)
        busy += dt
        if not ok:
            failed += 1
            if failed <= 3:
                print(f"op {op['id']} ({op['orange']}, r={op['r']}, d={op['d']}) failed", file=sys.stderr)
        if max_ops is not None and len(done) >= max_ops:
            break
        if len(done) >= min_ops and len(done) % cycle == 0:
            if busy + busy / (len(done) // cycle) / 2 >= seconds:
                break
    return LoopResult(ops=done, latencies=latencies, failed=failed, paces=paces)


# ---------------------------------------------------------------------------
# structure counts, from the systems and lifts seen during the first cycle
# ---------------------------------------------------------------------------

def matrix_blocks(rows: Iterable[Iterable[tuple[int, Any]]]) -> list[int]:
    """Row counts of the connected components of a sparse matrix's
    row/column graph (rows without entries are left out)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    row_roots = []
    for row in rows:
        cols = [c for c, _ in row]
        if not cols:
            continue
        for c in cols:
            parent.setdefault(c, c)
        root = find(cols[0])
        for c in cols[1:]:
            other = find(c)
            if other != root:
                parent[other] = root
        row_roots.append(cols[0])
    sizes: dict[int, int] = {}
    for c in row_roots:
        root = find(c)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted(sizes.values(), reverse=True)


class StructureProbe:
    """Collects the matrices built and the lifts made for ops below ``limit``.

    Each distinct (complex, r, d) system counts once: the sweep's worker
    threads can miss the ``spline_dim`` cache together and build the same
    system twice, which ``cofactor.build_system.calls`` shows instead.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.systems: dict[tuple, Any] = {}
        self.mds_points = 0

    def on_system(self, op: int, system: Any) -> None:
        if op < self.limit:
            self.systems.setdefault((system.complex, system.r, system.d), system.matrix)

    def on_lift(self, op: int, lifted: Any) -> None:
        if op < self.limit:
            self.mds_points += len(lifted.points)

    def observers(self) -> dict[str, Callable[[int, Any], None]]:
        return {"cofactor.build_system": self.on_system, "bernstein.lift_mds": self.on_lift}

    def summary(self) -> dict[str, float]:
        rows = cols = nnz = bits = blocks = block_rows_max = 0
        for m in self.systems.values():
            rows += m.nrows
            cols += m.ncols
            for row in m.rows:
                nnz += len(row)
                for _, v in row:
                    bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
            sizes = matrix_blocks(m.rows)
            blocks += len(sizes)
            if sizes:
                block_rows_max = max(block_rows_max, sizes[0])
        n = self.limit
        return {
            "cofactor.rows": rows / n,
            "cofactor.cols": cols / n,
            "cofactor.nnz": nnz / n,
            "cofactor.entry_bits_max": bits,
            "exact.blocks": blocks / n,
            "exact.block_rows_max": block_rows_max,
            "bernstein.mds_points": self.mds_points / n,
        }


def traced_pass(
    workload: str, pkg: Any, reference: dict, ops: list[dict], struct_ops: int,
    cpus: CpuPicker | None = None,
) -> tuple[LoopResult, dict[str, float], tracing.Tracer]:
    """Run ``ops`` with every layer call traced; ``pkg`` must be freshly
    imported, so that its caches start empty."""
    probe = StructureProbe(struct_ops)
    with tracing.Tracer(probe.observers()) as tracer:
        spline_dim = tracer.originals.get("cofactor.spline_dim")
        info0 = spline_dim.cache_info() if hasattr(spline_dim, "cache_info") else None
        result = run_loop(workload, pkg, reference, ops, tracer=tracer, cpus=cpus)
        info1 = spline_dim.cache_info() if info0 is not None else None
    n = len(result.ops)
    metrics = tracer.summary(n)
    metrics.update(probe.summary())
    if info0 is not None:
        hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
        metrics["cofactor.spline_dim.hits"] = hits / n
        metrics["cofactor.spline_dim.misses"] = misses / n
        metrics["cofactor.spline_dim.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if tracer.missing:
        print(f"not traced (not found): {', '.join(tracer.missing)}", file=sys.stderr)
    return result, metrics, tracer


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    if tail.endswith("ratio"):
        return "ratio"
    if tail in ("ms", "self_ms") or tail.endswith("ms_per_op"):
        return "ms"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="orangesplines closed-loop benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times: list[float] = []
    try:
        setup = cold_start(args.workload, args.seed, setup_times)
    except (FileNotFoundError, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    cycle = len(gen.cells(args.workload, setup.reference["complexes"]))
    cpus = CpuPicker()

    if not args.trace:
        n = math.ceil(MIN_OPS / cycle) * cycle
        ops = list(islice(setup.ops, n))
        walls: list[list[float]] = []
        paces: list[list[float]] = []
        failed = 0
        t0 = time.perf_counter()
        while True:
            done = run_loop(args.workload, setup.pkg, setup.reference, ops, cpus=cpus, paced=True)
            walls.append(done.latencies)
            paces.append(done.paces)
            failed += done.failed
            elapsed = time.perf_counter() - t0
            if len(walls) >= MIN_ROUNDS and elapsed * (len(walls) + 1) / len(walls) > args.seconds:
                break
            setup = cold_start(args.workload, args.seed, setup_times)
        rounds = len(walls)
        latencies = [
            statistics.median(w * PACE_REF / p for w, p in zip(ws, ps))
            for ws, ps in zip(zip(*walls), zip(*paces))
        ]
        raw = [statistics.median(ws) for ws in zip(*walls)]
        p50, _ = percentile(latencies, 50)
        p90, count = percentile(latencies, 90)
        metrics = {
            "ops_per_s": metric(n / sum(latencies), "1/s"),
            "op_p50_ms": metric(1000.0 * p50, "ms"),
            "op_p90_ms": metric(1000.0 * p90, "ms"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        attempted = rounds * n
        print(
            f"{args.workload} seed {args.seed}: {n} ops x {rounds} rounds; p50 and p90 over {count} "
            f"median-of-{rounds} latencies ({n - math.ceil(0.9 * n)} beyond p90); "
            f"{len(setup_times)} set-ups; {failed} failed"
        )
        print(
            f"pace probe {1000.0 * min(chain(*paces)):.3f} ms at best, {1000.0 * statistics.median(chain(*paces)):.3f} ms "
            f"median, {1000.0 * PACE_REF:.3f} ms reference; unscaled: {n / sum(raw):.4g} ops/s, p50 {1000.0 * percentile(raw, 50)[0]:.4g} ms, "
            f"p90 {1000.0 * percentile(raw, 90)[0]:.4g} ms"
        )
    else:
        plain = run_loop(
            args.workload, setup.pkg, setup.reference, setup.ops, args.seconds / 2, MIN_OPS,
            cycle=cycle, cpus=cpus,
        )
        n = len(plain.ops)
        setup = set_up(args.workload, args.seed)
        ops = list(islice(setup.ops, n))
        traced, layer_metrics, tracer = traced_pass(
            args.workload, setup.pkg, setup.reference, ops, struct_ops=cycle, cpus=cpus
        )
        layer_metrics["trace.ops"] = n
        layer_metrics["trace.spans"] = len(tracer.spans)
        layer_metrics["trace.untraced_ms_per_op"] = 1000.0 * sum(plain.latencies) / n
        layer_metrics["trace.traced_ms_per_op"] = 1000.0 * sum(traced.latencies) / n
        layer_metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
        tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: metric(value, layer_unit(name)) for name, value in layer_metrics.items()}
        attempted, failed = 2 * n, plain.failed + traced.failed
        print(f"{args.workload} seed {args.seed}: {n} ops untraced then traced, {failed} failed")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
