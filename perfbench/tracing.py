"""Per-layer tracing from outside the package.

The package imports its helpers with ``from .x import y``, so one function can
be reachable under several module attributes.  :class:`Tracer` wraps every
public function listed in :data:`SPANS` under every ``blocktrid`` module
attribute that holds it, records spans in memory (calls, inclusive time and
self time, which excludes the time of wrapped callees) and counts work at the
same boundaries.  Nothing is installed unless the traced run asks for it.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter


def _count_mgs(counts, args, kwargs, result):
    basis, v = args[0], args[1]
    # two projection passes, each a complex vdot and axpy per basis vector
    counts["kernel.mgs_append.gflop"] += 32.0 * len(basis) * len(v) * 1e-9


def _count_conjugate(counts, args, kwargs, result):
    d = result.shape[0]
    # two complex d x d products
    counts["basis.conjugate.gflop"] += 16.0 * d ** 3 * 1e-9


def _count_build_log(counts, args, kwargs, result):
    for e in result.log.entries:
        positions = e.position_end - e.position + 1
        counts["words.positions_decided"] += positions
        if e.residual_norm is None:
            counts["words.bulk_skipped_positions"] += positions
        else:
            counts["basis.offers"] += 1
            counts["words.bulk_skipped_positions"] += positions - 1
        if e.accepted:
            counts["basis.accepted"] += 1


def _count_entries(counts, args, kwargs, result):
    counts["verify.check_pattern.entries"] += args[0].size


def _count_bytes_in(counts, args, kwargs, result):
    counts["matio.parse_matrix.bytes_in"] += os.path.getsize(args[0])


def _count_emit_bytes(counts, args, kwargs, result):
    counts["matio.emit_matrix.bytes_out"] += os.path.getsize(result)


def _count_svg_bytes(counts, args, kwargs, result):
    counts["render.render_svg.bytes_out"] += len(result.encode())


FORMS = (
    "staircase",
    "block_tridiagonalize",
    "polar_sparsify",
    "polar_sparsify_tridiagonal",
    "tri_sparsify",
    "krylov_hessenberg",
    "joint_cyclic_staircase",
    "family_staircase",
    "decompose",
)

#: span name -> (module, attribute, work counter or None)
SPANS = {
    "kernel.mgs_append": ("blocktrid.kernel", "mgs_append", _count_mgs),
    "kernel.svd": ("blocktrid.kernel", "svd", None),
    "kernel.hermitian_eigvals": ("blocktrid.kernel", "hermitian_eigvals", None),
    "kernel.unitarity_residual": ("blocktrid.kernel", "unitarity_residual", None),
    "basis.run_program": ("blocktrid.basis", "run_program", _count_build_log),
    "basis.span_residual": ("blocktrid.basis", "span_residual", None),
    "basis.conjugate": ("blocktrid.basis", "conjugate", _count_conjugate),
    "verify.full_report": ("blocktrid.verify", "full_report", None),
    "verify.check_pattern": ("blocktrid.verify", "check_pattern", _count_entries),
    "verify.report_to_json": ("blocktrid.verify", "VerificationReport.to_json", None),
    **{f"transforms.{name}": ("blocktrid.transforms", name, None) for name in FORMS},
    "matio.parse_matrix": ("blocktrid.matio", "parse_matrix", _count_bytes_in),
    "matio.emit_matrix": ("blocktrid.matio", "emit_matrix", _count_emit_bytes),
    "matio.emit_form": ("blocktrid.matio", "emit_form", None),
    "render.render_svg": ("blocktrid.render", "render_svg", _count_svg_bytes),
    "cli.main": ("blocktrid.cli", "main", None),
}


class Tracer:
    """Installs wrappers on demand and aggregates spans and counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "blocktrid" or name.startswith("blocktrid.")]
        for span, (module_name, attr, counter) in SPANS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                self._patches.append((cls, method, original, self._wrap(span, original, counter)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _wrap(self, span, fn, counter):
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[span] += 1
                self.busy[span] += elapsed
                self.self_time[span] += elapsed - children[0]
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def metrics(self, passes: int):
        """Per-layer metrics for one pass of the workload mix."""
        c, busy, own = self.calls, self.busy, self.self_time
        out = {}

        def put(name, value, unit):
            out[name] = (value / passes, unit)

        put("kernel.mgs_append.calls", c["kernel.mgs_append"], "count")
        put("kernel.mgs_append.busy_s", busy["kernel.mgs_append"], "s")
        put("kernel.mgs_append.gflop", self.counts["kernel.mgs_append.gflop"], "GFLOP")
        put("kernel.svd.calls", c["kernel.svd"], "count")
        put("kernel.svd.self_s", own["kernel.svd"], "s")
        put("kernel.hermitian_eigvals.calls", c["kernel.hermitian_eigvals"], "count")
        put("kernel.hermitian_eigvals.busy_s", busy["kernel.hermitian_eigvals"], "s")
        put("kernel.unitarity_residual.busy_s", busy["kernel.unitarity_residual"], "s")
        put("basis.run_program.calls", c["basis.run_program"], "count")
        put("basis.run_program.self_s", own["basis.run_program"], "s")
        for name in ("basis.offers", "basis.accepted", "words.positions_decided",
                     "words.bulk_skipped_positions"):
            put(name, self.counts[name], "count")
        offers = self.counts["basis.offers"]
        out["basis.accept_ratio"] = (
            self.counts["basis.accepted"] / offers if offers else 0.0, "ratio")
        put("basis.span_residual.calls", c["basis.span_residual"], "count")
        put("basis.span_residual.busy_s", busy["basis.span_residual"], "s")
        put("basis.conjugate.busy_s", busy["basis.conjugate"], "s")
        put("basis.conjugate.gflop", self.counts["basis.conjugate.gflop"], "GFLOP")
        put("verify.full_report.self_s", own["verify.full_report"], "s")
        put("verify.check_pattern.calls", c["verify.check_pattern"], "count")
        put("verify.check_pattern.busy_s", busy["verify.check_pattern"], "s")
        put("verify.check_pattern.entries", self.counts["verify.check_pattern.entries"],
            "count")
        put("verify.report_to_json.busy_s", busy["verify.report_to_json"], "s")
        for name in FORMS:
            put(f"transforms.{name}.busy_s", busy[f"transforms.{name}"], "s")
        put("transforms.self_s", sum(own[f"transforms.{name}"] for name in FORMS), "s")
        put("matio.parse_matrix.calls", c["matio.parse_matrix"], "count")
        put("matio.parse_matrix.busy_s", busy["matio.parse_matrix"], "s")
        put("matio.parse_matrix.bytes_in", self.counts["matio.parse_matrix.bytes_in"], "B")
        put("matio.emit_matrix.calls", c["matio.emit_matrix"], "count")
        put("matio.emit_matrix.busy_s", busy["matio.emit_matrix"], "s")
        put("matio.emit_matrix.bytes_out", self.counts["matio.emit_matrix.bytes_out"], "B")
        put("matio.emit_form.self_s", own["matio.emit_form"], "s")
        put("render.render_svg.calls", c["render.render_svg"], "count")
        put("render.render_svg.busy_s", busy["render.render_svg"], "s")
        put("render.render_svg.bytes_out", self.counts["render.render_svg.bytes_out"], "B")
        put("cli.main.self_s", own["cli.main"], "s")
        # computed operation counts over measured busy time
        for layer in ("kernel.mgs_append", "basis.conjugate"):
            flops = self.counts[f"{layer}.gflop"]
            out[f"{layer}.gflop_per_s"] = (flops / busy[layer] if busy[layer] else 0.0,
                                           "GFLOP/s")
        return out

    def coverage_errors(self, must_hit, must_skip):
        """Spans the workload must use but did not, and spans it must not use but did."""
        errors = [f"span {name} never hit" for name in must_hit if not self.calls[name]]
        errors += [f"span {name} hit {self.calls[name]} times, predicted zero"
                   for name in must_skip if self.calls[name]]
        return errors
