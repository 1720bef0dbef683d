"""The one registry of forms: every form's pattern rebuilds from its report,
every ``verify --pattern`` name agrees with the form it is registered under,
and the CLI reads its commands and names off the registry."""

import json
import re

import numpy as np
import pytest

import blocktrid.transforms as transforms
from blocktrid import (GENERAL, BlockSchedule, check_pattern, emit_matrix, parse_matrix,
                       unit_vector)
from blocktrid.cli import main
from blocktrid.transforms import FORMS, claim_of, named_pattern


def _gaussian(d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _two_blocks(d, seed, first=6):
    """Block diagonal with Gaussian blocks of sizes ``first`` and d - first:
    e_1 is not cyclic, and its closure has dimension ``first``."""
    T = np.zeros((d, d), dtype=complex)
    T[:first, :first] = _gaussian(first, seed)
    T[first:, first:] = _gaussian(d - first, seed + 1)
    return T


def _forms(d):
    """Every pipeline, both orientations, cyclic and non-cyclic seeds, every
    family member and a decomposition, at dimension d."""
    T, B = _gaussian(d, 5), _two_blocks(d, 6)
    e1, v = unit_vector(d, 0), _gaussian(d, 7)[:, 0]
    band = transforms.block_tridiagonalize(T)
    H, K = T + T.conj().T, B + B.conj().T
    return [
        transforms.staircase(T),
        band,
        # a custom schedule whose last block the dimension clips
        transforms.block_tridiagonalize(T, BlockSchedule((2, 4, 12, 36, 108), GENERAL)),
        transforms.polar_sparsify(T),
        transforms.polar_sparsify(T, alt=True),
        transforms.polar_sparsify_tridiagonal(band.matrix, band.schedule),
        transforms.tri_sparsify(T),
        transforms.tri_sparsify(T, alt=True),
        transforms.krylov_hessenberg(T, v),
        transforms.krylov_hessenberg(B, e1),
        transforms.joint_cyclic_staircase(T, v),
        transforms.joint_cyclic_staircase(B, e1),
        *transforms.family_staircase([T, B])[1],
        *transforms.family_staircase([H, K], selfadjoint=True)[1],
        transforms.decompose(B),
    ]


def _mask(spec, d):
    i, j = np.ogrid[1:d + 1, 1:d + 1]
    return np.broadcast_to(spec.allowed(i, j), (d, d))


@pytest.mark.parametrize("d", [16, 64])
def test_every_form_pattern_rebuilds_from_its_written_report(d):
    for form in _forms(d):
        report = json.loads(form.report.to_json())
        name, schedule = claim_of(report)
        rebuilt = named_pattern(name, d, schedule)
        assert rebuilt.kind == form.pattern.kind, (name, schedule)
        assert np.array_equal(_mask(rebuilt, d), _mask(form.pattern, d)), (name, schedule)


def test_reports_name_the_claims_parameters():
    d = 16
    forms = {form.form_kind: form for form in _forms(d)}
    keys = {kind: {"schedule", "dims", "stride"} & set(json.loads(form.report.to_json()))
            for kind, form in forms.items()}
    assert keys == {
        "staircase": set(), "block_tridiagonal": {"schedule"}, "polar": {"schedule"},
        "polar_alt": {"schedule"}, "triangular": {"schedule"}, "triangular_alt": {"schedule"},
        "hessenberg": set(), "joint_cyclic": set(), "family": {"stride"}, "decompose": {"dims"},
    }
    # the partition the triangular form claims, not the tail-merged fit
    assert forms["triangular"].report.schedule == [1, 2, 6, 7]
    assert forms["decompose"].report.dims == [6, 10]
    assert claim_of(json.loads(forms["decompose"].report.to_json())) == ("direct-sum",
                                                                         "custom:6,10")
    assert claim_of(json.loads(forms["joint_cyclic"].report.to_json())) == ("jointcyclic:6",
                                                                            None)


def test_every_name_builds_the_pattern_of_the_form_registered_under_it():
    d = 16
    forms = _forms(d)
    reported = {}
    for form in forms:
        reported.setdefault(form.form_kind, set()).add(form.pattern.kind)
    staircase = transforms.staircase(_gaussian(d, 5))
    for form in FORMS.values():
        assert callable(getattr(transforms, form.function))
        for name, (kind, _) in form.patterns.items():
            if form.parameter == "stride":
                name += ":5"
            needs = form.parameter in ("schedule", "dims")
            spec = named_pattern(name, d, "canonical" if needs else None)
            if kind is None:
                # a weaker pattern than a form's claim: the staircase form holds it
                assert not check_pattern(staircase.matrix, spec)
            else:
                assert spec.kind in reported[kind], name
    # every form's report names a claim, and every claim is some form's
    claimed = {claim_of(json.loads(form.report.to_json()))[0].partition(":")[0]
               for form in forms}
    assert claimed == {name for form in FORMS.values()
                       for name, (kind, _) in form.patterns.items() if kind is not None}


def test_verify_help_lists_exactly_the_registry_names(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    listed = text.rsplit("--pattern PATTERN ", 1)[1].split(" | ")
    assert [re.sub(r"\[?:(N|STRIDE)\]?$", "", name) for name in listed] == [
        name for form in FORMS.values() for name in form.patterns]


def test_canonical_tri_reads_the_partition_the_form_claims(tmp_path, capsys):
    # at d=64 the tail-merged fit is 1, 2, 6, 55, and the triangular form
    # claims 1, 2, 6, 18, 37: entry (11, 48) lies in one diagonal block of
    # the first and is a claimed zero of the second
    path = str(tmp_path / "T.json")
    emit_matrix(_gaussian(64, 0), path)
    assert main(["trisparse", "--input", path, "--output", str(tmp_path)]) == 0
    M = parse_matrix(str(tmp_path / "triangular_M.json"))
    M[10, 47] = 1.0
    emit_matrix(M, str(tmp_path / "bad.json"))
    capsys.readouterr()
    for schedule in ("canonical", "custom:1,2,6,18,37"):
        assert main(["verify", "--input", str(tmp_path / "bad.json"), "--pattern", "tri",
                     "--schedule", schedule]) == 2
        assert "(11,48)" in capsys.readouterr().out


@pytest.mark.parametrize("command, pattern", [("jointcyclic", "jointcyclic"),
                                              ("hessenberg", "hessenberg")])
def test_cyclic_patterns_take_the_closure(tmp_path, capsys, command, pattern):
    # e_1 closes after the first block of a block diagonal input: the form
    # passes with closure 6, and its written M verifies against the claim
    # with that closure, not against the cyclic one
    path = str(tmp_path / "B.json")
    emit_matrix(_two_blocks(16, 6), path)
    assert main([command, "--input", path, "--output", str(tmp_path), "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert report["closure_dim"] == 6
    written = str(tmp_path / f"{report['form_kind']}_M.json")
    assert main(["verify", "--input", written, "--pattern", pattern]) == 2
    capsys.readouterr()
    assert main(["verify", "--input", written, "--pattern", f"{pattern}:6"]) == 0
    assert capsys.readouterr().out.endswith("clean at threshold 1e-10\n")


@pytest.mark.parametrize("pattern, schedule, message", [
    ("band:3", "canonical", "unknown pattern 'band:3'"),
    ("staircase:2", None, "unknown pattern 'staircase:2'"),
    ("family", None, "unknown pattern 'family'"),
    ("hessenberg:x", None, "cannot parse closure_dim in 'hessenberg:x'"),
    ("hessenberg:0", None, "closure_dim must be positive"),
    ("family:0", None, "stride must be positive"),
    ("jointcyclic:3", "canonical", "pattern 'jointcyclic:3' takes no --schedule"),
    ("direct-sum", None, "pattern 'direct-sum' needs --schedule"),
])
def test_verify_rejects_a_name_it_cannot_read(tmp_path, capsys, pattern, schedule, message):
    path = str(tmp_path / "T.json")
    emit_matrix(_gaussian(9, 1), path)
    argv = ["verify", "--input", path, "--pattern", pattern]
    assert main(argv + (["--schedule", schedule] if schedule else [])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_direct_sum_reads_the_summand_sizes(tmp_path, capsys):
    path = str(tmp_path / "B.json")
    emit_matrix(transforms.decompose(_two_blocks(16, 6)).matrix, path)
    argv = ["verify", "--input", path, "--pattern", "direct-sum", "--schedule"]
    assert main(argv + ["custom:6,10"]) == 0
    assert main(argv + ["custom:10,6"]) == 2
    assert main(argv + ["custom:6,4"]) == 2
    assert "too short for dimension 16" in capsys.readouterr().err
    # dims past d were once clipped to 6, 10, and the file passed
    assert main(argv + ["custom:6,12"]) == 2
    assert capsys.readouterr().err == ("invalid schedule: direct-sum dims sum to 18, "
                                       "past dimension 16\n")


@pytest.mark.parametrize("command", ["family", "decompose"])
def test_family_and_decompose_call_the_module_attribute(tmp_path, capsys, monkeypatch,
                                                        command):
    # a wrapper on transforms.<function> sees every CLI call
    function = FORMS[command].function
    calls = []
    original = getattr(transforms, function)

    def counting(*args, **kwargs):
        calls.append(function)
        return original(*args, **kwargs)

    monkeypatch.setattr(transforms, function, counting)
    path = str(tmp_path / "T.json")
    emit_matrix(_gaussian(6, 2), path)
    assert main([command, "--input", path]) == 0
    assert calls == [function]
