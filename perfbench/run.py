"""blocktrid benchmark: verified sparse forms per second on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dense_band --seed 1 --seconds 15 --trace 0

The inputs of the named workload are generated from ``--seed``.  The run is
single-process with BLAS and OpenMP pinned to one thread.  With ``--trace 0``
it times every operation with no wrappers installed and prints the
end-to-end metrics; with ``--trace 1`` it runs each operation once untraced
and once with the per-layer wrappers of ``tracing.py`` installed, and prints
the per-layer metrics for one pass of the mix.  Every output is checked
against the scale-relative oracle in ``oracle.py``.  Lines before the last
describe the run; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# pin threads before numpy loads; the package's threshold comes from its default
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BLOCKTRID_THRESHOLD", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_ROOT = HERE / "_work"
SETUP_REPS = 5

# Baseline defects of the package, recorded when the benchmark was defined.
# The report passes although the oracle rejects the form: the absolute
# dependence tolerance and pattern threshold make tiny inputs pass vacuously.
# A false pass on any other operation makes the run incorrect; a fixed
# defect never does.
KNOWN_FALSE_PASSES = frozenset(
    (form, "gaussian", 1e-12) for form in
    ("staircase", "tri_sparsify", "krylov_hessenberg", "joint_cyclic_staircase", "decompose")
)


def fresh_import():
    """Import blocktrid from this checkout's ``src``, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "blocktrid" or n.startswith("blocktrid.")]:
        del sys.modules[name]
    bt = importlib.import_module("blocktrid")
    importlib.import_module("blocktrid.cli")
    if Path(bt.__file__).resolve().parent != (SRC / "blocktrid").resolve():
        raise ImportError(f"blocktrid imported from {bt.__file__}, not from {SRC}")
    return bt


def input_digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.label.encode())
        for a in item.inputs:
            if isinstance(a, np.ndarray):
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class SpeedProbe:
    """Fixed reference work, timed right before and after each measurement.

    The box's speed moves between levels up to 1.7x apart, each lasting ten
    seconds or more, whatever runs on it.  Every measured span is scaled by
    ``REFERENCE_S`` over the median probe time within ``WINDOW_S`` of it,
    which reports it at the reference speed.  The probe is an interpreted
    loop and one Gram-Schmidt sweep over 96 vectors of length 512, like the
    package's own kernels; its working set (0.75 MiB) makes it feel cache
    contention as they do.
    """

    REFERENCE_S = 5e-4
    WINDOW_S = 1.0

    def __init__(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((512, 96)) + 1j * rng.standard_normal((512, 96))
        self._basis = list(np.linalg.qr(z)[0].T)
        self._x = rng.standard_normal(512) + 0j
        self.timeline = []

    def _once(self) -> float:
        start = perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i
        w = self._x.copy()
        for q in self._basis:
            w -= np.vdot(q, w) * q
        return perf_counter() - start

    def _sample(self):
        value = statistics.median(self._once() for _ in range(3))
        self.timeline.append((perf_counter(), value))

    def span(self, fn):
        """(result, (start, end)) of ``fn()``, with probes on both sides."""
        self._sample()
        start = perf_counter()
        result = fn()
        end = perf_counter()
        self._sample()
        return result, (start, end)

    def scaled(self, span) -> float:
        start, end = span
        near = [v for t, v in self.timeline
                if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        return (end - start) * self.REFERENCE_S / statistics.median(near)


def setup(workload, seed, workdir, probe):
    """Import, generate inputs, write files and warm up, ``SETUP_REPS`` times.

    Returns the time span of each repetition, the items of the last one and
    the input digests.
    """
    spans, digests = [], set()
    for rep in range(SETUP_REPS):
        rep_dir = os.path.join(workdir, f"setup{rep}")
        os.makedirs(rep_dir)

        def once():
            bt = fresh_import()
            masks = oracle.MaskCache()
            items = workload.items(bt, np.random.default_rng(seed), masks, rep_dir)
            workloads.warm(bt, rep_dir)
            return items

        items, span = probe.span(once)
        spans.append(span)
        digests.add(input_digest(items))
    return spans, items, digests


def call_item(item):
    """The operation's result, or the exception it raised."""
    try:
        return item.call()
    except Exception as exc:  # an operation that raises is counted as failed
        return exc


class Ledger:
    """Verdicts per operation, checked on every output."""

    def __init__(self, items):
        self.items = items
        self.verdicts = [None] * len(items)
        self.attempted = 0
        self.raised = 0
        self.errors = []

    def record(self, k, result):
        self.attempted += 1
        item = self.items[k]
        if isinstance(result, Exception):
            self.raised += 1
            verdict = oracle.Verdict(False, False, f"raised {result!r}")
            self.errors.append(f"{item.label}: raised {result!r}")
        else:
            verdict = item.judge(result)
        first = self.verdicts[k]
        if first is None:
            self.verdicts[k] = verdict
        elif first.kind != verdict.kind:
            self.errors.append(f"{item.label}: verdict changed {first.kind} -> {verdict.kind}")
        if verdict.kind == "false_pass" and item.defect_key not in KNOWN_FALSE_PASSES:
            self.errors.append(f"{item.label}: false pass ({verdict.detail})")

    def ratio(self, kind) -> float:
        return sum(v.kind == kind for v in self.verdicts) / len(self.verdicts)

    def table(self, times):
        for item, v, t in zip(self.items, self.verdicts, times):
            known = " known-defect" if item.defect_key in KNOWN_FALSE_PASSES else ""
            yield (f"# verdict {item.form:28s} {item.family:10s} c={item.scale:<6g} "
                   f"d={item.d:<4d} x{item.reps} unscaled={t:.4f}s "
                   f"report={'pass' if v.reported else 'FAIL'} "
                   f"oracle={'accept' if v.accepted else 'REJECT'} "
                   f"{v.kind}{known} {v.detail}")


def spread_schedule(reps):
    """One pass: operation k repeated ``reps[k]`` times, evenly spaced.

    The machine's speed drifts over seconds, so an operation's median is only
    steady when its samples are spread over the whole run.
    """
    slots = [((j + 0.5) / r, k) for k, r in enumerate(reps) for j in range(r)]
    return [k for _, k in sorted(slots)]


def measure(items, seconds, ledger, probe):
    """Closed loop over passes until ``seconds`` pass and every operation has run.

    Returns the time spans of each operation.
    """
    spans = [[] for _ in items]
    schedule = spread_schedule([item.reps for item in items])
    deadline = perf_counter() + seconds
    while True:
        for k in schedule:
            if perf_counter() >= deadline and all(spans):
                return spans
            result, span = probe.span(lambda: call_item(items[k]))
            spans[k].append(span)
            ledger.record(k, result)


def timing_metrics(items, samples, setup_times):
    """(metrics, tail note) from per-operation timings and set-up times."""
    per_item = [statistics.median(s) for s in samples]
    # the mix weights each operation by its repetitions per pass
    timings = sorted(t for t, item in zip(per_item, items) for _ in range(item.reps))
    n = len(timings)
    # highest percentile that still has at least ten samples beyond it
    tail_rank = n - 11 if n > 10 else n - 1
    metrics = {
        "setup_s": statistics.median(setup_times),
        "forms_per_s": len(per_item) / sum(per_item),
        "form_p50_s": statistics.median(timings),
        "form_tail_s": timings[tail_rank],
    }
    note = (f"# form_tail_s is the p{100.0 * (tail_rank + 1) / n:.1f} of {n} operations "
            f"in the mix ({n - tail_rank - 1} beyond it)")
    return metrics, note


def end_to_end(items, spans, setup_spans, ledger, probe):
    timed, tail_note = timing_metrics(
        items, [[probe.scaled(x) for x in s] for s in spans],
        [probe.scaled(x) for x in setup_spans])
    raw_timed, _ = timing_metrics(
        items, [[b - a for a, b in s] for s in spans], [b - a for a, b in setup_spans])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail = 1.0 - ledger.ratio("pass") - ledger.ratio("false_pass")
    metrics = {
        "setup_s": (timed["setup_s"], "s"),
        "forms_per_s": (timed["forms_per_s"], "1/s"),
        "form_p50_s": (timed["form_p50_s"], "s"),
        "form_tail_s": (timed["form_tail_s"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_ratio": (1.0 - fail, "ratio"),
        "no_false_pass_ratio": (1.0 - ledger.ratio("false_pass"), "ratio"),
        "no_false_alarm_ratio": (1.0 - ledger.ratio("false_alarm"), "ratio"),
    }
    notes = [
        tail_note,
        "# unscaled: " + " ".join(f"{k} {v:.6g}" for k, v in raw_timed.items()),
        "# speed probe: " + " ".join(
            f"{name} {f(v for _, v in probe.timeline):.6g} s"
            for name, f in (("median", statistics.median), ("min", min), ("max", max)))
        + f", reference {probe.REFERENCE_S:g} s",
        f"# fail_ratio {fail:.6f} ratio",
        f"# false_pass_ratio {ledger.ratio('false_pass'):.6f} ratio",
        f"# false_alarm_ratio {ledger.ratio('false_alarm'):.6f} ratio",
        f"# samples per operation: min {min(map(len, spans))} "
        f"max {max(map(len, spans))}",
    ]
    return metrics, notes


def traced(items, seconds, ledger, workload):
    """Whole passes; each operation once untraced, then once traced."""
    tracer = tracing.Tracer()
    samples = [[] for _ in items]
    traced_time = 0.0
    passes = 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        for k, item in enumerate(items):
            start = perf_counter()
            result = call_item(item)
            samples[k].append(perf_counter() - start)
            ledger.record(k, result)
            tracer.install()
            start = perf_counter()
            try:
                result = call_item(item)
            finally:
                tracer.uninstall()
            traced_time += perf_counter() - start
            ledger.record(k, result)
        passes += 1
    metrics = tracer.metrics(passes)
    n = len(items) * passes
    plain = sum(map(sum, samples))
    metrics["trace.forms_per_s_untraced"] = (n / plain, "1/s")
    metrics["trace.forms_per_s_traced"] = (n / traced_time, "1/s")
    metrics["trace.overhead_ratio"] = (traced_time / plain, "ratio")
    ledger.errors += tracer.coverage_errors(workload.must_hit, workload.must_skip)
    return samples, metrics, [f"# traced passes: {passes}"]


def environment(seed, digests):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "input_digest": sorted(digests),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blocktrid" / "__init__.py").is_file():
        print(f"error: no blocktrid package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        probe = SpeedProbe()
        setup_spans, items, digests = setup(workload, args.seed, workdir, probe)
        ledger = Ledger(items)
        if args.trace:
            samples, metrics, notes = traced(items, args.seconds, ledger, workload)
        else:
            spans = measure(items, args.seconds, ledger, probe)
            samples = [[b - a for a, b in s] for s in spans]
            metrics, notes = end_to_end(items, spans, setup_spans, ledger, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    if len(digests) != 1:
        ledger.errors.append(f"inputs differ between setup repetitions: {sorted(digests)}")
    print(f"# workload {workload.name}: {workload.why}")
    print("# env " + json.dumps(environment(args.seed, digests), sort_keys=True))
    print("# setup_s repetitions (unscaled): "
          + " ".join(f"{end - start:.4f}" for start, end in setup_spans))
    for line in ledger.table([statistics.median(s) for s in samples]):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} {value:.6g} {unit}")
    for line in notes:
        print(line)
    for line in ledger.errors:
        print(f"# ERROR {line}")
    print(json.dumps({
        "correct": not ledger.errors,
        "attempted": ledger.attempted,
        "failed": ledger.raised,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
