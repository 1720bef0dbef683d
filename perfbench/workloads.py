"""Workloads: inputs generated from a seed, and the fixed mix of operations on them.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  An operation is one call of a public
form on one input, or one in-process ``blocktrid.cli.main(argv)`` call.
Operations call through module attributes at call time, so the traced run
sees the same code the untraced run does, plus its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

import oracle

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
FORMATS = {"mm": ".mtx", "csv": ".csv", "json": ".json"}
# the CLI default; the benchmark process removes BLOCKTRID_THRESHOLD
CLI_THRESHOLD = 1e-10


@dataclass
class Item:
    """One operation of a workload's mix."""

    form: str
    family: str
    scale: float
    d: int
    call: Callable[[], object]
    judge: Callable[[object], oracle.Verdict]
    inputs: Tuple[np.ndarray, ...]
    reps: int = 1

    @property
    def label(self) -> str:
        return f"{self.form} {self.family} c={self.scale:g} d={self.d}"

    @property
    def defect_key(self):
        return self.form, self.family, self.scale


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable
    reps: Dict[int, int]
    must_hit: Tuple[str, ...]
    must_skip: Tuple[str, ...]

    def items(self, bt, rng, masks, workdir) -> List[Item]:
        """The mix, with ``reps`` repetitions per pass by dimension.

        Short operations repeat so that the weighted mix holds enough timings
        for a tail with ten beyond it, and so that its median and tail fall
        inside a cluster of similar operations rather than on a gap.
        """
        items = self.build(bt, rng, masks, workdir)
        for item in items:
            item.reps = self.reps.get(item.d, 1)
        return items


def gaussian(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def gaussian_vector(rng, d: int) -> np.ndarray:
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(rng, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def banded(rng, bt, d: int):
    """Random block tridiagonal matrix over the canonical schedule for ``d``."""
    schedule = bt.schedule_for_dim(d)
    block = np.concatenate([np.full(b - a, k) for k, (a, b) in
                            enumerate(bt.block_slices(schedule, d))])
    return gaussian(rng, d) * (np.abs(block[:, None] - block[None, :]) <= 1), schedule


def _form(bt, masks, fn, T, *args, label=None, family="gaussian", scale=1.0, **kwargs):
    def call():
        return getattr(bt, fn)(T, *args, **kwargs)

    def judge(form):
        return oracle.judge_form(T, form, masks)

    return Item(label or fn, family, scale, T.shape[0], call, judge, (T,) + args)


def _family(bt, masks, ops, family="gaussian"):
    def call():
        return bt.family_staircase(ops)

    def judge(result):
        return oracle.judge_family(ops, result, masks)

    return Item("family_staircase", family, 1.0, ops[0].shape[0], call, judge, tuple(ops))


def _decompose(bt, masks, T, family="gaussian", scale=1.0):
    def call():
        return bt.decompose(T)

    def judge(result):
        return oracle.judge_decomposition(T, result, masks)

    return Item("decompose", family, scale, T.shape[0], call, judge, (T,))


def dense_band(bt, rng, masks, workdir) -> List[Item]:
    items = []
    for d in (64, 128, 256):
        T, S, v = gaussian(rng, d), gaussian(rng, d), gaussian_vector(rng, d)
        items += [
            _form(bt, masks, "staircase", T),
            _form(bt, masks, "block_tridiagonalize", T),
            _form(bt, masks, "tri_sparsify", T),
            _form(bt, masks, "krylov_hessenberg", T, v),
            _form(bt, masks, "joint_cyclic_staircase", T, v),
            _family(bt, masks, [T, S]),
            _decompose(bt, masks, T),
        ]
    T = gaussian(rng, 512)
    items += [_form(bt, masks, "staircase", T), _form(bt, masks, "block_tridiagonalize", T)]
    return items


def polar_blocks(bt, rng, masks, workdir) -> List[Item]:
    items = []
    for d in (32, 64, 96, 128):
        T = gaussian(rng, d)
        items += [
            _form(bt, masks, "polar_sparsify", T),
            _form(bt, masks, "polar_sparsify", T, alt=True, label="polar_sparsify(alt)"),
        ]
    Mb, schedule = banded(rng, bt, 128)
    items.append(_form(bt, masks, "polar_sparsify_tridiagonal", Mb, schedule,
                       family="banded"))
    return items


def degenerate_inputs(rng, d: int):
    """Structured inputs that drive Gram-Schmidt down its rejection path."""
    u, w = gaussian_vector(rng, d), gaussian_vector(rng, d)
    q = random_unitary(rng, d)
    eigs = gaussian_vector(rng, d)
    half = d // 2
    coupled = 1e-9 * gaussian(rng, d)
    coupled[:half, :half] = gaussian(rng, half)
    coupled[half:, half:] = gaussian(rng, d - half)
    return {
        "rank_one": np.outer(u, w.conj()),
        "jordan": np.eye(d, k=1, dtype=np.complex128),
        "identity": np.eye(d, dtype=np.complex128),
        "zero": np.zeros((d, d), dtype=np.complex128),
        "normal": (q * eigs) @ q.conj().T,
        "graded": gaussian(rng, d) * np.logspace(0, -8, d),
        "direct_sum": coupled,
    }


def degenerate_mix(bt, rng, masks, workdir) -> List[Item]:
    items = []
    for d in (64, 128):
        inputs = [(family, 1.0, T) for family, T in degenerate_inputs(rng, d).items()]
        T = gaussian(rng, d)
        inputs += [("gaussian", c, c * T) for c in SCALES]
        e1 = np.zeros(d, dtype=np.complex128)
        e1[0] = 1.0
        for family, c, A in inputs:
            kw = dict(family=family, scale=c)
            items += [
                _form(bt, masks, "staircase", A, **kw),
                _form(bt, masks, "tri_sparsify", A, **kw),
                _form(bt, masks, "krylov_hessenberg", A, e1, **kw),
                _form(bt, masks, "joint_cyclic_staircase", A, e1, **kw),
                _decompose(bt, masks, A, **kw),
            ]
    return items


def read_matrix(path: str) -> np.ndarray:
    """The benchmark's own reader for the three file formats the CLI writes."""
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".json"):
        payload = json.loads(text)
        data = np.array(payload["data"], dtype=float).reshape(
            payload["rows"], payload["cols"], 2)
        return data[..., 0] + 1j * data[..., 1]
    if path.endswith(".csv"):
        return np.array([[complex(tok.strip().replace("i", "j")) for tok in line.split(",")]
                         for line in text.splitlines() if line.strip()])
    lines = [line for line in text.splitlines() if line and not line.startswith("%")]
    rows, cols = (int(x) for x in lines[0].split())
    pairs = np.array([line.split() for line in lines[1:]], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(cols, rows).T


def svg_matches(path: str, M) -> bool:
    """One background rect plus one cell per entry above the CLI threshold."""
    with open(path) as handle:
        text = handle.read()
    cells = int(np.count_nonzero(np.abs(M) > CLI_THRESHOLD))
    return text.startswith("<svg") and text.count("<rect ") == 1 + cells


def run_cli(argv):
    """One in-process CLI call; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sys.modules["blocktrid.cli"].main(argv)
    return code, out.getvalue()


def write_inputs(bt, arrays, workdir, stem):
    """Write each array in every format; returns {fmt: path}."""
    paths = {}
    for fmt, ext in FORMATS.items():
        paths[fmt] = os.path.join(workdir, f"{stem}{ext}")
        bt.emit_matrix(arrays, paths[fmt], fmt)
    return paths


def files_cli(bt, rng, masks, workdir) -> List[Item]:
    items = []
    for d in (64, 128, 256):
        T = gaussian(rng, d)
        B, schedule = banded(rng, bt, d)
        band = bt.block_band(schedule, d)
        t_paths = write_inputs(bt, T, workdir, f"T_d{d}")
        b_paths = write_inputs(bt, B, workdir, f"B_d{d}")
        for fmt, ext in FORMATS.items():
            out = os.path.join(workdir, f"out_{fmt}_d{d}")
            items += [
                _tridiag_item(masks, T, band, t_paths[fmt], out, ext),
                _verify_item(masks, B, band, b_paths[fmt], fmt),
                _render_item(T, t_paths[fmt], out, fmt),
            ]
    return items


def _tridiag_item(masks, T, band, path, out, ext):
    d = T.shape[0]
    argv = ["tridiag", "--input", path, "--output", out, "--svg", "--report", "json"]

    def judge(result):
        code, text = result
        report = json.loads(text.splitlines()[0])
        reported = report["passing"] and code == 0
        prefix = os.path.join(out, "block_tridiagonal_")
        M, U = read_matrix(prefix + "M" + ext), read_matrix(prefix + "U" + ext)
        ok, detail = oracle.similarity(T, U, M, masks.get(band, d))
        ok = ok and svg_matches(prefix + "pattern.svg", M)
        return oracle.Verdict(reported, ok, detail)

    return Item("cli tridiag", ext[1:], 1.0, d, lambda: run_cli(argv), judge, (T,))


def _verify_item(masks, B, band, path, fmt):
    d = B.shape[0]
    argv = ["verify", "--input", path, "--pattern", "band", "--schedule", "canonical"]

    def judge(result):
        code, _ = result
        ok, rel = oracle.off_pattern(B, masks.get(band, d), float(np.max(np.abs(B))))
        return oracle.Verdict(code == 0, ok, f"off={rel:.1e}")

    return Item("cli verify", fmt, 1.0, d, lambda: run_cli(argv), judge, (B,))


def _render_item(T, path, out, fmt):
    argv = ["render", "--input", path, "--output", out]
    svg = os.path.join(out, os.path.splitext(os.path.basename(path))[0] + "_pattern.svg")

    def judge(result):
        code, _ = result
        return oracle.Verdict(code == 0, svg_matches(svg, T))

    return Item("cli render", fmt, 1.0, T.shape[0], lambda: run_cli(argv), judge, (T,))


def warm(bt, workdir, d: int = 12) -> None:
    """Run every form and CLI command once at small ``d``."""
    rng = np.random.default_rng(0)
    T, S, v = gaussian(rng, d), gaussian(rng, d), gaussian_vector(rng, d)
    Mb, schedule = banded(rng, bt, d)
    bt.staircase(T)
    bt.block_tridiagonalize(T)
    bt.polar_sparsify(T)
    bt.polar_sparsify(T, alt=True)
    bt.polar_sparsify_tridiagonal(Mb, schedule)
    bt.tri_sparsify(T)
    bt.krylov_hessenberg(T, v)
    bt.joint_cyclic_staircase(T, v)
    bt.family_staircase([T, S])
    bt.decompose(T)
    path = write_inputs(bt, T, workdir, "warm")["mm"]
    out = os.path.join(workdir, "warm_out")
    run_cli(["tridiag", "--input", path, "--output", out, "--svg", "--report", "json"])
    run_cli(["verify", "--input", path, "--pattern", "band", "--schedule", "canonical"])
    run_cli(["render", "--input", path, "--output", out])


_KERNEL_BASIS = ("kernel.mgs_append", "basis.run_program", "basis.conjugate",
                 "verify.full_report", "verify.check_pattern",
                 "kernel.unitarity_residual")
_FILES = ("matio.parse_matrix", "matio.emit_matrix", "matio.emit_form",
          "render.render_svg", "cli.main", "verify.report_to_json")
_POLAR = ("kernel.svd", "kernel.hermitian_eigvals", "transforms.polar_sparsify",
          "transforms.polar_sparsify_tridiagonal")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "dense_band",
            "random T through every non-polar form up to d=512: the Python O(d^3) "
            "loops in mgs_append and span_residual dominate",
            dense_band,
            {64: 8, 128: 8},
            _KERNEL_BASIS + ("basis.span_residual", "transforms.staircase",
                             "transforms.block_tridiagonalize", "transforms.tri_sparsify",
                             "transforms.krylov_hessenberg",
                             "transforms.joint_cyclic_staircase",
                             "transforms.family_staircase", "transforms.decompose"),
            _POLAR + _FILES,
        ),
        Workload(
            "polar_blocks",
            "polar forms up to d=128: the Jacobi svd and its null-space completion "
            "take nearly all the time; no span checks run",
            polar_blocks,
            {32: 6, 64: 4, 96: 2},
            _KERNEL_BASIS + _POLAR,
            ("basis.span_residual",) + _FILES,
        ),
        Workload(
            "degenerate_mix",
            "rank-one, nilpotent, identity, zero, normal, graded, weakly coupled and "
            "scaled inputs: Gram-Schmidt on its rejection path, bulk skips, early closure",
            degenerate_mix,
            {},
            _KERNEL_BASIS + ("basis.span_residual", "transforms.decompose"),
            _POLAR + _FILES,
        ),
        Workload(
            "files_cli",
            "in-process CLI on Matrix Market, CSV and JSON files: per-entry parse, "
            "emit, render and verify loops",
            files_cli,
            {64: 3, 128: 2},
            _FILES + ("transforms.block_tridiagonalize",),
            _POLAR,
        ),
    )
}
