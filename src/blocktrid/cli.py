"""Command line surface.  Every form command, its flags and ``verify``'s
pattern names are read off the registry :data:`blocktrid.transforms.FORMS`.

Exit codes: 0 when the produced report passes (or the query succeeds),
2 when a report fails or a schedule is invalid, 1 on usage and IO errors
and on a build that cannot finish.  Every verdict, from a form, a family,
a decomposition or ``verify``'s pattern records, is read from the
library's ``failures`` and printed by :func:`_verdict`, which names the
first failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import List, Optional

import numpy as np

from . import transforms
from .basis import InstructionCapError
from .kernel import DEPENDENCE_TOL, checked_operator, unit_vector
from .matio import FORMATS, emit_form, format_for_path, parse_matrix
from .render import render_svg
from .schedules import (
    CYCLIC,
    GENERAL,
    InvalidScheduleError,
    covering_index,
    growth_violation,
    parse_spec,
)
from .verify import DEFAULT_THRESHOLD, Check, pattern_checks, pattern_fields, require_finite

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
    "--schedule": dict(default=None, help="canonical, cyclic, or custom:n1,n2,..."),
    "--seed-vector": dict(dest="seed_vector", default="1", help="k for e_k, or random:SEED"),
    "--selfadjoint": dict(action="store_true",
                          help="use the shorter stride for a selfadjoint family"),
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


def build_parser() -> _Parser:
    parser = _Parser(prog="blocktrid",
                     description="Universal sparse forms of complex matrices "
                                 "under unitary similarity.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    for command, form in transforms.FORMS.items():
        p = sub.add_parser(command, help=form.help)
        _add_common(p, "--tol-dep", "--output", "--report",
                    *(flag for flag in form.flags if flag in _OPTIONAL_FLAGS),
                    multi_input="--input" in form.flags)
        if form.alt:
            p.add_argument("--alt", action="store_true", help=form.alt)

    p = sub.add_parser("schedule", help="validate or print a block schedule")
    p.add_argument("--schedule", **_OPTIONAL_FLAGS["--schedule"])
    p.add_argument("--kind", choices=(GENERAL, CYCLIC), default=GENERAL,
                   help="growth rule the schedule is checked against")
    p.add_argument("--dim", type=int, default=None,
                   help="matrix dimension the schedule should cover")

    p = sub.add_parser("verify", help="check a matrix file against a pattern")
    _add_common(p, "--report", "--schedule")
    p.add_argument("--pattern", required=True,
                   help=" | ".join(name + {"closure_dim": "[:N]", "stride": ":STRIDE"}
                                   .get(form.parameter, "")
                                   for form in transforms.FORMS.values()
                                   for name in form.patterns))

    p = sub.add_parser("render", help="render a matrix sparsity pattern to SVG")
    _add_common(p, "--output", "--schedule")
    return parser


def _threshold(args) -> float:
    env = os.environ.get(ENV_THRESHOLD)
    if getattr(args, "threshold", None) is not None:
        value, name = args.threshold, "--threshold"
    elif env:
        try:
            value, name = float(env), ENV_THRESHOLD
        except ValueError:
            raise _CliError(f"cannot parse {ENV_THRESHOLD}={env!r}")
    else:
        return DEFAULT_THRESHOLD
    try:
        require_finite(value)
    except ValueError:
        raise _CliError(f"{name} must be finite and positive")
    return value


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


def _verdict(args, failures: List[Check], lines: List[str], payload, emit=None) -> int:
    """Print ``payload()`` under ``--report json``, else ``lines`` and the
    first of ``failures``; under ``--output`` write ``emit(dir, format)``'s
    files.  Exit 2 exactly when ``failures`` holds a record."""
    if args.report == "json":
        print(payload())
    else:
        print(*lines, sep="\n")
        if failures:
            print("  first failed check: {} at {}: {:.6e}, limit {:.6e}".format(*failures[0]))
    if emit is not None and args.output:
        for path in emit(args.output, _format_of(args)):
            print(f"wrote {path}")
    return 2 if failures else 0


def _cmd_form(args) -> int:
    spec = transforms.FORMS[args.command]
    thr = _threshold(args)
    # an empty matrix fails here, before a schedule or seed is fitted to it
    T = checked_operator(parse_matrix(args.input, args.format))
    extra = []
    if "--schedule" in spec.flags:
        extra.append(spec.fit(args.schedule, T.shape[0]))
    if "--seed-vector" in spec.flags:
        extra.append(_seed_vector(args.seed_vector, T.shape[0]))
    kwargs = {"alt": args.alt} if spec.alt else {}
    build = getattr(transforms, spec.function)
    form = build(T, *extra, tol=args.tol_dep, threshold=thr, **kwargs)
    report = form.report
    failures = report.failures
    claim = (f"dim {form.dim}, pattern {report.pattern_kind}" if report.dims is None
             else f"dims {report.dims}")
    line = (f"{form.form_kind}: {claim}, {len(report.pattern_violations)} violations, "
            f"{'FAILING' if failures else 'passing'}")
    text = cache(report.to_json)  # stdout and the report file share one encoding
    svg = getattr(args, "svg", False)
    return _verdict(args, failures, [line], text,
                    lambda out_dir, fmt: emit_form(form, text(), out_dir, fmt, svg=svg))


def _cmd_family(args) -> int:
    thr = _threshold(args)
    build = getattr(transforms, transforms.FORMS[args.command].function)
    ops = [parse_matrix(path, args.format) for path in args.input]
    _, forms = build(ops, selfadjoint=args.selfadjoint, tol=args.tol_dep, threshold=thr)
    each = [form.report.failures for form in forms]
    failures = [c for fails in each for c in fails]
    lines = [f"{form.form_kind}[{k}]: dim {form.dim}, stride {form.extras['stride']}, "
             f"{len(form.report.pattern_violations)} violations, "
             f"{'FAILING' if fails else 'passing'}"
             for k, (form, fails) in enumerate(zip(forms, each), start=1)]

    texts = cache(lambda: [form.report.to_json() for form in forms])

    def payload():
        # json.dumps({"passing": ..., "forms": [...]}, sort_keys=True), with
        # each member's object nested as the text it encodes to on its own
        return '{"forms": [%s], "passing": %s}' % (", ".join(texts()),
                                                  json.dumps(not failures))

    def emit(out_dir, fmt):
        return [path for k, (form, text) in enumerate(zip(forms, texts()), start=1)
                for path in emit_form(form, text, out_dir, fmt, prefix=f"{form.form_kind}_{k}",
                                      svg=args.svg)]

    return _verdict(args, failures, lines, payload, emit)


def _cmd_schedule(args) -> int:
    if args.schedule is None:
        raise _CliError("schedule requires --schedule")
    sched = parse_spec(args.schedule, args.dim, args.kind)
    bad = growth_violation(sched.sizes, sched.kind)
    if bad is not None:
        print(f"invalid {sched.kind} schedule {sched.describe()}: {bad}")
        return 2
    print(f"valid {sched.kind} schedule: {sched.describe()} (span {sched.span})")
    if args.dim is not None:
        covering_index(sched, args.dim)
    return 0


def _cmd_verify(args) -> int:
    thr = _threshold(args)
    M = parse_matrix(args.input, args.format)
    spec = transforms.named_pattern(args.pattern, M.shape[0], args.schedule)
    fields = pattern_fields(M, spec, thr)
    hits = fields["pattern_violations"]
    failures = [c for c in pattern_checks(fields) if c.failed]
    if not failures:
        lines = [f"{spec.kind}: clean at threshold {thr:g}"]
    else:
        lines = [f"{spec.kind}: {len(hits)} violations at threshold {thr:g}",
                 *(f"  ({i},{j}) |entry| = {mag:.6e}" for i, j, mag in hits[:10])]
        if len(hits) > 10:
            lines.append(f"  ... and {len(hits) - 10} more")
    return _verdict(args, failures, lines, lambda: json.dumps({
        "passing": not failures,
        "pattern": spec.kind,
        "threshold": thr,
        "violations": [list(v) for v in hits],
        "failures": failures,
    }, sort_keys=True))


def _cmd_render(args) -> int:
    thr = _threshold(args)
    M = parse_matrix(args.input, args.format)
    sched = None
    if args.schedule:
        sched = parse_spec(args.schedule, M.shape[0])
    text = render_svg(M, sched, thr)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.input))[0]
        path = os.path.join(args.output, f"{stem}_pattern.svg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    **{name: _cmd_family if "--input" in form.flags else _cmd_form
       for name, form in transforms.FORMS.items()},
    "schedule": _cmd_schedule,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


#: The one parser of the process; parsing leaves no state on it.
_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command is None:
            _PARSER.print_usage(sys.stderr)
            return 1
        if getattr(args, "svg", False) and not args.output:
            raise _CliError("--svg needs --output")
        return _COMMANDS[args.command](args)
    except InvalidScheduleError as exc:
        print(f"invalid schedule: {exc}", file=sys.stderr)
        return 2
    except (_CliError, InstructionCapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
