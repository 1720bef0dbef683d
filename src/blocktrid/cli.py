"""Command line surface.

Exit codes: 0 when the produced report passes (or the query succeeds),
2 when a report fails or a schedule is invalid, 1 on usage and IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import transforms
from .kernel import DEPENDENCE_TOL, unit_vector
from .matio import (
    FORMAT_EXTENSIONS,
    FORMATS,
    emit_form,
    emit_matrix,
    format_for_path,
    parse_matrix,
)
from .render import render_svg
from .schedules import (
    CYCLIC,
    GENERAL,
    InvalidScheduleError,
    parse_spec,
    validate,
)
from .transforms import decompose, family_staircase
from .verify import (
    DEFAULT_THRESHOLD,
    block_band,
    check_pattern,
    family_stride,
    hessenberg_pattern,
    joint_cyclic_pattern,
    polar_blocks,
    staircase_coarse,
    staircase_refined,
    tri_blocks,
)

ENV_THRESHOLD = "BLOCKTRID_THRESHOLD"


class _CliError(Exception):
    """Usage-level failure: report and exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


#: Flags that only some commands read, in the order build commands add them.
_OPTIONAL_FLAGS = {
    "--tol-dep": dict(dest="tol_dep", type=float, default=DEPENDENCE_TOL,
                      help="linear dependence tolerance for basis building"),
    "--output": dict(default=None, metavar="DIR",
                     help="write matrices, unitaries and reports here"),
    "--report": dict(choices=("json",), default=None,
                     help="print the full report as JSON on stdout"),
    "--svg": dict(action="store_true",
                  help="also write a pattern rendering (needs --output)"),
}


def _add_common(parser, *optional: str, multi_input: bool = False):
    """Input, format and threshold flags, then the named ``_OPTIONAL_FLAGS``."""
    parser.add_argument("--input", action="append" if multi_input else "store",
                        required=True,
                        help="matrix file (mm/csv/json)")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="input format; inferred from the extension if omitted")
    parser.add_argument("--threshold", type=float, default=None,
                        help="magnitude threshold for pattern checks "
                             f"(default: ${ENV_THRESHOLD} or {DEFAULT_THRESHOLD:g})")
    for flag in optional:
        parser.add_argument(flag, **_OPTIONAL_FLAGS[flag])


def _add_schedule_flags(parser, default: Optional[str] = "canonical"):
    parser.add_argument("--schedule", default=default,
                        help="canonical, cyclic, or custom:n1,n2,...")
    parser.add_argument("--kind", choices=(GENERAL, CYCLIC), default=GENERAL,
                        help="growth rule the schedule is checked against")


class _FormCommand(NamedTuple):
    function: str
    help: str
    flags: Tuple[str, ...] = ()
    alt_help: Optional[str] = None


#: Single-form subcommands.  Each runs ``transforms.<function>(T, ...)`` with
#: the input matrix, then the parsed schedule when ``flags`` holds
#: "schedule", the seed vector when it holds "seed", and ``alt`` when
#: ``alt_help`` is set (the help text of ``--alt``).  The function is looked
#: up by name on every call, never stored, so a wrapper put on the
#: ``transforms`` module attribute sees every CLI call.
_FORMS = {
    "staircase": _FormCommand("staircase", "staircase form (3n bounds)"),
    "tridiag": _FormCommand("block_tridiagonalize", "block tridiagonal form",
                            ("schedule",)),
    "polar": _FormCommand("polar_sparsify", "block tridiagonal with positive blocks",
                          ("schedule",), "mirror the positive blocks below the diagonal"),
    "trisparse": _FormCommand("tri_sparsify", "triangular sub-block form",
                              alt_help="mirror the triangular claims"),
    "hessenberg": _FormCommand("krylov_hessenberg", "Krylov upper Hessenberg form",
                               ("seed",)),
    "jointcyclic": _FormCommand("joint_cyclic_staircase",
                                "two-sided cyclic staircase form", ("seed",)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="blocktrid",
                     description="Universal sparse forms of complex matrices "
                                 "under unitary similarity.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    for name, spec in _FORMS.items():
        p = sub.add_parser(name, help=spec.help)
        _add_common(p, *_OPTIONAL_FLAGS)
        if "schedule" in spec.flags:
            _add_schedule_flags(p)
        if "seed" in spec.flags:
            p.add_argument("--seed-vector", dest="seed_vector", default="1",
                           help="k for e_k, or random:SEED")
        if spec.alt_help:
            p.add_argument("--alt", action="store_true", help=spec.alt_help)

    p = sub.add_parser("family", help="simultaneous staircase for a family")
    _add_common(p, *_OPTIONAL_FLAGS, multi_input=True)
    p.add_argument("--selfadjoint", action="store_true",
                   help="use the shorter stride for a selfadjoint family")

    p = sub.add_parser("decompose", help="direct sum of jointly cyclic parts")
    _add_common(p, "--tol-dep", "--output", "--report")

    p = sub.add_parser("schedule", help="validate or print a block schedule")
    _add_schedule_flags(p, default=None)
    p.add_argument("--dim", type=int, default=None,
                   help="matrix dimension the schedule should cover")

    p = sub.add_parser("verify", help="check a matrix file against a pattern")
    _add_common(p, "--report")
    _add_schedule_flags(p, default=None)
    p.add_argument("--pattern", required=True,
                   help="staircase | coarse | hessenberg | jointcyclic | "
                        "band | polar | polar-alt | tri | tri-alt | family:STRIDE")

    p = sub.add_parser("render", help="render a matrix sparsity pattern to SVG")
    _add_common(p, "--output")
    _add_schedule_flags(p, default=None)
    return parser


def _threshold(args) -> float:
    if getattr(args, "threshold", None) is not None:
        if args.threshold <= 0:
            raise _CliError("--threshold must be positive")
        return args.threshold
    env = os.environ.get(ENV_THRESHOLD)
    if env:
        try:
            value = float(env)
        except ValueError:
            raise _CliError(f"cannot parse {ENV_THRESHOLD}={env!r}")
        if value <= 0:
            raise _CliError(f"{ENV_THRESHOLD} must be positive")
        return value
    return DEFAULT_THRESHOLD


def _load(args) -> np.ndarray:
    return parse_matrix(args.input, args.format)


def _seed_vector(text: str, d: int) -> np.ndarray:
    if text.startswith("random:"):
        try:
            seed = int(text[len("random:"):])
        except ValueError:
            raise _CliError(f"cannot parse seed in {text!r}")
        rng = np.random.default_rng(seed)
        return rng.standard_normal(d) + 1j * rng.standard_normal(d)
    try:
        k = int(text)
    except ValueError:
        raise _CliError(f"--seed-vector expects an index or random:SEED, got {text!r}")
    if not 1 <= k <= d:
        raise _CliError(f"seed index {k} out of range 1..{d}")
    return unit_vector(d, k - 1)


def _format_of(args) -> str:
    if args.format:
        return args.format
    path = args.input[0] if isinstance(args.input, list) else args.input
    return format_for_path(path)


def _finish_form(form, args) -> int:
    if args.svg and not args.output:
        raise _CliError("--svg needs --output")
    report = form.report
    if args.report == "json":
        print(report.to_json())
    else:
        status = "passing" if report.passing else "FAILING"
        print(f"{form.form_kind}: dim {form.dim}, pattern {report.pattern_kind}, "
              f"{len(report.pattern_violations)} violations, {status}")
    if args.output:
        paths = emit_form(form, args.output, _format_of(args), svg=args.svg)
        for path in paths:
            print(f"wrote {path}")
    return 0 if report.passing else 2


def _cmd_form(args) -> int:
    spec = _FORMS[args.command]
    thr = _threshold(args)
    T = _load(args)
    extra = []
    if "schedule" in spec.flags:
        extra.append(parse_spec(args.schedule, T.shape[0], args.kind))
    if "seed" in spec.flags:
        extra.append(_seed_vector(args.seed_vector, T.shape[0]))
    kwargs = {"alt": args.alt} if spec.alt_help else {}
    build = getattr(transforms, spec.function)
    form = build(T, *extra, tol=args.tol_dep, threshold=thr, **kwargs)
    return _finish_form(form, args)


def _cmd_family(args) -> int:
    if args.svg and not args.output:
        raise _CliError("--svg needs --output")
    thr = _threshold(args)
    ops = [parse_matrix(path, args.format) for path in args.input]
    _, forms = family_staircase(ops, selfadjoint=args.selfadjoint,
                                tol=args.tol_dep, threshold=thr)
    passing = all(form.passing for form in forms)
    if args.report == "json":
        payload = {
            "passing": passing,
            "forms": [json.loads(form.report.to_json()) for form in forms],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for k, form in enumerate(forms, start=1):
            status = "passing" if form.passing else "FAILING"
            print(f"family[{k}]: dim {form.dim}, stride {form.extras['stride']}, "
                  f"{len(form.report.pattern_violations)} violations, {status}")
    if args.output:
        for k, form in enumerate(forms, start=1):
            paths = emit_form(form, args.output, _format_of(args),
                              prefix=f"family_{k}", svg=args.svg)
            for path in paths:
                print(f"wrote {path}")
    return 0 if passing else 2


def _cmd_decompose(args) -> int:
    thr = _threshold(args)
    T = _load(args)
    res = decompose(T, tol=args.tol_dep, threshold=thr)
    if args.report == "json":
        payload = {
            "passing": res.passing,
            "dims": res.dims,
            "coupling_residual": res.coupling_residual,
            "summands": [json.loads(s.report.to_json()) for s in res.summands],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        status = "passing" if res.passing else "FAILING"
        print(f"decompose: dims {res.dims}, coupling {res.coupling_residual:.3e}, "
              f"{status}")
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        fmt = _format_of(args)
        ext = FORMAT_EXTENSIONS[fmt]
        for name, mat in (("M", res.matrix), ("U", res.basis_change)):
            path = os.path.join(args.output, f"decompose_{name}{ext}")
            emit_matrix(mat, path, fmt)
            print(f"wrote {path}")
    return 0 if res.passing else 2


def _cmd_schedule(args) -> int:
    if args.schedule is None:
        raise _CliError("schedule requires --schedule")
    sched = parse_spec(args.schedule, args.dim, args.kind)
    bad = validate(sched.sizes, sched.kind)
    if bad is None:
        print(f"valid {sched.kind} schedule: {sched.describe()} "
              f"(span {sched.span})")
        return 0
    factor = 2 if sched.kind == GENERAL else 1
    bound = factor * sum(sched.sizes[:bad])
    rule = "2*(n_1+...+n_k)" if sched.kind == GENERAL else "n_1+...+n_k"
    print(f"invalid {sched.kind} schedule {sched.describe()}: "
          f"violation at k={bad}: n_{bad + 1} = {sched.sizes[bad]} < {rule} = {bound}")
    return 2


def _pattern_for(name: str, d: int, args):
    fixed = {
        "staircase": staircase_refined,
        "coarse": staircase_coarse,
        "hessenberg": hessenberg_pattern,
        "jointcyclic": joint_cyclic_pattern,
    }
    if name in fixed:
        return fixed[name]()
    if name.startswith("family:"):
        try:
            stride = int(name[len("family:"):])
        except ValueError:
            raise _CliError(f"cannot parse stride in {name!r}")
        return family_stride(stride)
    if name in ("band", "polar", "polar-alt", "tri", "tri-alt"):
        if not args.schedule:
            raise _CliError(f"pattern {name!r} needs --schedule")
        sched = parse_spec(args.schedule, d, args.kind)
        if name == "band":
            return block_band(sched, d)
        if name.startswith("polar"):
            return polar_blocks(sched, d, alt=name.endswith("alt"))
        return tri_blocks(sched, d, alt=name.endswith("alt"))
    raise _CliError(f"unknown pattern {name!r}")


def _cmd_verify(args) -> int:
    thr = _threshold(args)
    M = _load(args)
    spec = _pattern_for(args.pattern, M.shape[0], args)
    hits = check_pattern(M, spec, thr)
    if args.report == "json":
        payload = {
            "passing": not hits,
            "pattern": spec.kind,
            "threshold": thr,
            "violations": [list(v) for v in hits],
        }
        print(json.dumps(payload, sort_keys=True))
    elif not hits:
        print(f"{spec.kind}: clean at threshold {thr:g}")
    else:
        print(f"{spec.kind}: {len(hits)} violations at threshold {thr:g}")
        for i, j, mag in hits[:10]:
            print(f"  ({i},{j}) |entry| = {mag:.6e}")
        if len(hits) > 10:
            print(f"  ... and {len(hits) - 10} more")
    return 0 if not hits else 2


def _cmd_render(args) -> int:
    thr = _threshold(args)
    M = _load(args)
    sched = None
    if args.schedule:
        sched = parse_spec(args.schedule, M.shape[0], args.kind)
    text = render_svg(M, sched, thr)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.input))[0]
        path = os.path.join(args.output, f"{stem}_pattern.svg")
        with open(path, "w") as handle:
            handle.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    **{name: _cmd_form for name in _FORMS},
    "family": _cmd_family,
    "decompose": _cmd_decompose,
    "schedule": _cmd_schedule,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except InvalidScheduleError as exc:
        print(f"invalid schedule: {exc}", file=sys.stderr)
        return 2
    except (_CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
