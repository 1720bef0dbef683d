import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import blocktrid.cli as cli
import blocktrid.transforms as transforms
from blocktrid import (
    CYCLIC,
    SparsifiedForm,
    block_band,
    check_pattern,
    VerificationReport,
    emit_matrix,
    emit_matrix_text,
    full_report,
    parse_matrix,
    parse_spec,
    polar_blocks,
    render_svg,
    schedule_for_dim,
    tri_blocks,
    unit_vector,
)
from blocktrid.cli import main
from blocktrid.matio import FORMAT_EXTENSIONS
from reference_verdict import corner_max, tail_max
from tamper import scaled_column


def _write(tmp_path, name, M):
    path = tmp_path / name
    emit_matrix(np.asarray(M, dtype=complex), str(path))
    return str(path)


def _random_file(tmp_path, d, seed, name="T.json"):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _write(tmp_path, name, M)


def test_staircase_exit_and_summary(tmp_path, capsys):
    path = _random_file(tmp_path, 6, 50)
    assert main(["staircase", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "staircase" in out and "passing" in out


def test_report_json_deterministic(tmp_path, capsys):
    path = _random_file(tmp_path, 5, 51)
    assert main(["staircase", "--input", path, "--report", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["staircase", "--input", path, "--report", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passing"] is True
    assert payload["pattern"]["violations"] == []


def test_output_directory_files(tmp_path, capsys):
    path = _random_file(tmp_path, 4, 52)
    out_dir = tmp_path / "out"
    code = main(["staircase", "--input", path, "--output", str(out_dir), "--svg"])
    assert code == 0
    assert (out_dir / "staircase_M.json").exists()
    assert (out_dir / "staircase_U.json").exists()
    assert (out_dir / "staircase_report.json").exists()
    assert (out_dir / "staircase_pattern.svg").exists()
    M = parse_matrix(str(out_dir / "staircase_M.json"))
    U = parse_matrix(str(out_dir / "staircase_U.json"))
    T = parse_matrix(path)
    assert np.max(np.abs(U.conj().T @ T @ U - M)) <= 1e-10


def test_svg_without_output_is_usage_error(tmp_path, capsys):
    path = _random_file(tmp_path, 3, 53)
    assert main(["staircase", "--input", path, "--svg"]) == 1
    # rejected before any input is read or built
    for command in ("staircase", "family"):
        assert main([command, "--input", str(tmp_path / "missing.json"), "--svg"]) == 1
        assert capsys.readouterr().err.endswith("error: --svg needs --output\n")


def test_tridiag_and_polar_schedules(tmp_path, capsys):
    path = _random_file(tmp_path, 9, 54)
    assert main(["tridiag", "--input", path]) == 0
    assert main(["tridiag", "--input", path,
                 "--schedule", "custom:1,3,8"]) == 0
    assert main(["polar", "--input", path, "--schedule", "canonical"]) == 0
    capsys.readouterr()
    # a schedule breaking the growth rule is a validation failure, not usage
    assert main(["tridiag", "--input", path, "--schedule", "custom:1,2,5"]) == 2
    err = capsys.readouterr().err
    assert "k=2" in err


def test_trisparse_variants(tmp_path, capsys):
    path = _random_file(tmp_path, 9, 55)
    assert main(["trisparse", "--input", path]) == 0
    assert main(["trisparse", "--input", path, "--alt"]) == 0


def test_cyclic_commands(tmp_path, capsys):
    path = _random_file(tmp_path, 8, 56)
    assert main(["hessenberg", "--input", path]) == 0
    assert main(["hessenberg", "--input", path, "--seed-vector", "3"]) == 0
    assert main(["hessenberg", "--input", path, "--seed-vector", "random:7"]) == 0
    assert main(["jointcyclic", "--input", path, "--seed-vector", "random:7"]) == 0
    assert main(["hessenberg", "--input", path, "--seed-vector", "zebra"]) == 1
    assert main(["hessenberg", "--input", path, "--seed-vector", "99"]) == 1


def test_family_command(tmp_path, capsys):
    a = _random_file(tmp_path, 6, 57, "A.json")
    b = _random_file(tmp_path, 6, 58, "B.json")
    assert main(["family", "--input", a, "--input", b]) == 0
    out = capsys.readouterr().out
    assert "family[1]" in out and "family[2]" in out and "stride 5" in out
    assert main(["family", "--input", a, "--input", b,
                 "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passing"] is True
    assert len(payload["forms"]) == 2
    # selfadjoint claim on a non-Hermitian matrix is rejected
    assert main(["family", "--input", a, "--selfadjoint"]) == 1


def test_family_selfadjoint_pair(tmp_path, capsys):
    rng = np.random.default_rng(59)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = _write(tmp_path, "HA.json", A + A.conj().T)
    b = _write(tmp_path, "HB.json", B + B.conj().T)
    assert main(["family", "--input", a, "--input", b, "--selfadjoint"]) == 0
    assert "stride 3" in capsys.readouterr().out


def test_decompose_command(tmp_path, capsys):
    path = _write(tmp_path, "D.json", np.diag([1.0, 2.0, 3.0]))
    assert main(["decompose", "--input", path]) == 0
    assert capsys.readouterr().out == "decompose: dims [1, 1, 1], 0 violations, passing\n"
    assert main(["decompose", "--input", path, "--report", "json",
                 "--output", str(tmp_path / "dec")]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[0])
    # one report on decompose's own basis change and matrix, plus the dims
    res = transforms.decompose(parse_matrix(path))
    assert payload == {**json.loads(res.report.to_json()), "dims": [1, 1, 1]}
    assert payload["form_kind"] == "decompose"
    assert payload["pattern"] == {"kind": "direct_sum", "violations": []}
    assert "coupling_residual" not in payload and "summands" not in payload
    assert (tmp_path / "dec" / "decompose_M.json").exists()
    assert (tmp_path / "dec" / "decompose_U.json").exists()
    # the report file holds the --report json payload, newline-terminated
    report = tmp_path / "dec" / "decompose_report.json"
    assert report.read_text() == out.splitlines()[0] + "\n"
    assert f"wrote {report}" in out.splitlines()


def test_schedule_subcommand(capsys):
    assert main(["schedule", "--schedule", "custom:1,2,5", "--kind", "general"]) == 2
    out = capsys.readouterr().out
    assert "violation at k=2" in out
    assert main(["schedule", "--schedule", "custom:1,2,6", "--kind", "general"]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["schedule", "--schedule", "custom:1,1,2,4", "--kind", "cyclic"]) == 0
    assert main(["schedule", "--schedule", "custom:1,1,2,3", "--kind", "cyclic"]) == 2
    assert "k=3" in capsys.readouterr().out
    assert main(["schedule", "--schedule", "canonical", "--dim", "9"]) == 0
    assert "1,2,6" in capsys.readouterr().out
    assert main(["schedule", "--schedule", "canonical"]) == 1
    assert main(["schedule"]) == 1


def test_schedule_dim_checks_coverage(capsys):
    # the growth check and its line come first; --dim then checks the span
    # as every other command that fits a schedule to a matrix does
    assert main(["schedule", "--schedule", "custom:1,2", "--dim", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "valid general schedule: 1,2 (span 3)\n"
    assert captured.err == "invalid schedule: schedule spans 3, too short for dimension 10\n"
    assert main(["schedule", "--schedule", "custom:1,2", "--dim", "3"]) == 0
    assert main(["schedule", "--schedule", "custom:1,2,6", "--dim", "4"]) == 0
    assert main(["schedule", "--schedule", "custom:1,2,5", "--dim", "10"]) == 2
    assert "violation at k=2" in capsys.readouterr().out
    assert main(["schedule", "--schedule", "canonical", "--dim", "512"]) == 0
    assert capsys.readouterr().out == "valid general schedule: 1,2,6,18,54,431 (span 512)\n"


def test_verify_subcommand(tmp_path, capsys):
    H = np.triu(np.ones((4, 4)), -1)
    path = _write(tmp_path, "H.json", H)
    assert main(["verify", "--input", path, "--pattern", "hessenberg"]) == 0
    full = _write(tmp_path, "F.json", np.ones((4, 4)))
    assert main(["verify", "--input", full, "--pattern", "hessenberg"]) == 2
    out = capsys.readouterr().out
    assert "(3,1)" in out
    assert main(["verify", "--input", full, "--pattern", "band",
                 "--schedule", "custom:1,3"]) == 0
    assert main(["verify", "--input", full, "--pattern", "nope"]) == 1
    assert main(["verify", "--input", full, "--pattern", "polar"]) == 1  # no schedule
    assert main(["verify", "--input", full, "--pattern", "family:5"]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", full, "--pattern", "staircase",
                 "--report", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["passing"] is False
    assert [4, 1, 1.0] in payload["violations"]


@pytest.mark.parametrize("schedule", ["garbage", "custom:1", "canonical"])
@pytest.mark.parametrize("pattern", ["staircase", "coarse", "hessenberg", "jointcyclic",
                                     "family:5"])
def test_verify_rejects_a_schedule_its_pattern_does_not_read(tmp_path, capsys, pattern,
                                                             schedule):
    # custom:1 is too short for the 9x9 file; no schedule is read, so
    # neither it nor garbage may pass unnoticed
    path = _random_file(tmp_path, 9, 68)
    assert main(["verify", "--input", path, "--pattern", pattern, "--schedule", schedule]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: pattern {pattern!r} takes no --schedule\n"


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main parses with the parser built at import; no call may leave state
    # on it that changes a later one, so each call must match the same call
    # on a fresh parser
    a, b, c = (_random_file(tmp_path, 5, seed, f"{name}.json")
               for seed, name in ((70, "A"), (71, "B"), (72, "C")))
    M = np.zeros((4, 4), dtype=complex)
    M[3, 0] = 0.3  # outside the staircase support
    v = _write(tmp_path, "V.json", M)
    calls = [
        (["family", "--input", a, "--input", b, "--input", c, "--report", "json"], None),
        (["family", "--input", a, "--report", "json"], None),
        (["staircase", "--input", a, "--kind", "general"], None),
        (["verify", "--help"], None),
        (["verify", "--input", v, "--pattern", "staircase"], "0.5"),
        (["verify", "--input", v, "--pattern", "staircase"], None),
        (["verify", "--input", v, "--pattern", "band", "--schedule", "custom:1,3"], None),
        (["verify", "--input", v, "--pattern", "band"], None),
        (["verify", "--input", v, "--pattern", "staircase", "--schedule", "custom:1,3"], None),
    ]

    def run(argv, threshold):
        if threshold is None:
            monkeypatch.delenv("BLOCKTRID_THRESHOLD", raising=False)
        else:
            monkeypatch.setenv("BLOCKTRID_THRESHOLD", threshold)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "__init__", counting_init)
        shared = [run(*call) for call in calls]
    assert built == []
    assert [code for code, _ in shared] == [0, 0, 1, 0, 0, 2, 0, 1, 1]
    assert [len(json.loads(out)["forms"]) for _, out in shared[:2]] == [3, 1]
    assert shared[3][1].startswith("usage: blocktrid verify")
    for call, got in zip(calls, shared):
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        assert run(*call) == got, call


def test_render_subcommand(tmp_path, capsys):
    path = _random_file(tmp_path, 4, 60)
    assert main(["render", "--input", path, "--output", str(tmp_path / "img")]) == 0
    assert (tmp_path / "img" / "T_pattern.svg").exists()
    capsys.readouterr()
    assert main(["render", "--input", path,
                 "--schedule", "custom:1,3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg")
    assert "#b03030" in out


def test_render_rejects_schedule_shorter_than_matrix(tmp_path, capsys):
    path = _write(tmp_path, "E.mtx", np.eye(3))
    for command in (["render"], ["verify", "--pattern", "band"]):
        assert main(command + ["--input", path, "--schedule", "custom:1"]) == 2
        err = capsys.readouterr().err
        assert "schedule spans 1, too short for dimension 3" in err
    assert main(["render", "--input", path, "--schedule", "custom:1,2"]) == 0


def test_verify_rejects_non_finite_and_malformed_entries(tmp_path, capsys):
    text = "%%MatrixMarket matrix array complex general\n3 3\n" + "0 0\n" * 9
    lines = text.splitlines()
    lines[4] = "5 0"  # entry (3,1), below the Hessenberg band
    path = tmp_path / "H.mtx"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--input", str(path), "--pattern", "hessenberg"]) == 2
    lines[4] = "nan 0"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--input", str(path), "--pattern", "hessenberg"]) == 1
    assert "line 5: non-finite real part 'nan'" in capsys.readouterr().err
    for payload in ('{"rows":1,"cols":1,"data":[[[null,0]]]}', "5",
                    '{"rows":1,"cols":1,"data":[[["x",0]]]}'):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(["verify", "--input", str(bad), "--pattern", "hessenberg"]) == 1
        assert capsys.readouterr().err.startswith("error: line 1: ")


def test_threshold_env_and_flag(tmp_path, capsys, monkeypatch):
    M = np.zeros((4, 4), dtype=complex)
    M[3, 0] = 0.3  # outside the staircase support
    path = _write(tmp_path, "V.json", M)
    assert main(["verify", "--input", path, "--pattern", "staircase"]) == 2
    monkeypatch.setenv("BLOCKTRID_THRESHOLD", "0.5")
    assert main(["verify", "--input", path, "--pattern", "staircase"]) == 0
    # explicit flag wins over the environment
    assert main(["verify", "--input", path, "--pattern", "staircase",
                 "--threshold", "1e-3"]) == 2
    monkeypatch.setenv("BLOCKTRID_THRESHOLD", "zebra")
    assert main(["verify", "--input", path, "--pattern", "staircase"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_threshold_is_a_usage_error(tmp_path, capsys, monkeypatch, value):
    # nothing lies above a NaN or infinite threshold: every check would pass
    path = _write(tmp_path, "ones.json", np.ones((4, 4)))
    argv = ["verify", "--input", path, "--pattern", "hessenberg"]
    assert main(argv + ["--threshold", value]) == 1
    assert "--threshold must be finite and positive" in capsys.readouterr().err
    monkeypatch.setenv("BLOCKTRID_THRESHOLD", value)
    assert main(argv) == 1
    assert "BLOCKTRID_THRESHOLD must be finite and positive" in capsys.readouterr().err
    assert main(["staircase", "--input", path]) == 1


@pytest.mark.parametrize("tol", ["-1", "nan", "10", "inf"])
@pytest.mark.parametrize("name", ["identity", "gaussian"])
def test_bad_dependence_tolerance_is_a_usage_error(tmp_path, capsys, tol, name):
    if name == "identity":
        path = _write(tmp_path, "I.json", np.eye(6))
    else:
        path = _random_file(tmp_path, 6, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["staircase", "--input", path, "--tol-dep", tol]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dependence tolerance must lie in [0, 1)")


def test_build_that_cannot_finish_is_an_error(tmp_path, capsys):
    # the zero operator closes the span of the seed vector at once; at this
    # tolerance both padding seeds fall within 0.9 of that span
    path = _write(tmp_path, "Z.json", np.zeros((2, 2)))
    argv = ["hessenberg", "--input", path, "--seed-vector", "random:3", "--tol-dep", "0.9"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed index 3 exceeds dimension 2\n"


def test_usage_and_io_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["staircase"]) == 1  # --input required
    assert main(["staircase", "--input", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1+0i, zebra\n0+0i, 1+0i\n")
    assert main(["staircase", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err
    noext = tmp_path / "matrix.dat"
    noext.write_text("1+0i\n")
    assert main(["staircase", "--input", str(noext)]) == 1
    assert main(["staircase", "--input", str(noext), "--format", "csv"]) == 0


def _cli_parity_cases(d):
    rng = np.random.default_rng(7)  # the CLI's random:7 seed vector
    v7 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    e1 = unit_vector(d, 0)
    return [
        (["staircase"], lambda T: transforms.staircase(T)),
        (["tridiag"], lambda T: transforms.block_tridiagonalize(T)),
        (["polar"], lambda T: transforms.polar_sparsify(T)),
        (["polar", "--alt"], lambda T: transforms.polar_sparsify(T, alt=True)),
        (["trisparse"], lambda T: transforms.tri_sparsify(T)),
        (["trisparse", "--alt"], lambda T: transforms.tri_sparsify(T, alt=True)),
        (["hessenberg"], lambda T: transforms.krylov_hessenberg(T, e1)),
        (["jointcyclic"], lambda T: transforms.joint_cyclic_staircase(T, e1)),
        (["jointcyclic", "--seed-vector", "random:7"],
         lambda T: transforms.joint_cyclic_staircase(T, v7)),
    ]


#: command -> the library call it makes, at a given threshold
VERDICT_COMMANDS = {
    "staircase": lambda T, thr: transforms.staircase(T, threshold=thr),
    "tridiag": lambda T, thr: transforms.block_tridiagonalize(T, threshold=thr),
    "polar": lambda T, thr: transforms.polar_sparsify(T, threshold=thr),
    "trisparse": lambda T, thr: transforms.tri_sparsify(T, threshold=thr),
    "hessenberg": lambda T, thr: transforms.krylov_hessenberg(
        T, unit_vector(T.shape[0], 0), threshold=thr),
    "jointcyclic": lambda T, thr: transforms.joint_cyclic_staircase(
        T, unit_vector(T.shape[0], 0), threshold=thr),
    "family": lambda T, thr: transforms.family_staircase([T], threshold=thr)[1],
    "decompose": lambda T, thr: transforms.decompose(T, threshold=thr),
}


def _failures_and_payload(command, result):
    """``result``'s failed records in order, and its ``--report json`` text."""
    if command == "family":
        return [c for form in result for c in form.report.failures], json.dumps({
            "passing": all(form.passing for form in result),
            "forms": [json.loads(form.report.to_json()) for form in result],
        }, sort_keys=True)
    if command == "decompose":
        return result.report.failures, json.dumps({
            **json.loads(result.report.to_json()),
            "dims": result.dims,
        }, sort_keys=True)
    return result.report.failures, result.report.to_json()


def test_a_form_command_on_a_non_unitary_build_names_unitarity(tmp_path, capsys):
    # conjugate does not raise on such a U: the report fails, first on it
    path = _random_file(tmp_path, 16, 66)
    with scaled_column(0, 1 + 1e-6):
        assert main(["staircase", "--input", path]) == 2
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("  first failed check: unitarity_residual at None: ")


@pytest.mark.parametrize("command", list(VERDICT_COMMANDS))
def test_every_verdict_command_names_its_first_failure(tmp_path, capsys, monkeypatch,
                                                       command):
    # a Gaussian passes at the default threshold and fails at 1e-300 on its
    # roundoff entries, in every form
    monkeypatch.delenv("BLOCKTRID_THRESHOLD", raising=False)
    path = _random_file(tmp_path, 16, 65)
    T = parse_matrix(path)
    assert main([command, "--input", path]) == 0
    assert "first failed check" not in capsys.readouterr().out
    argv = [command, "--input", path, "--threshold", "1e-300"]
    failures, payload = _failures_and_payload(command, VERDICT_COMMANDS[command](T, 1e-300))
    assert failures
    assert main(argv) == 2
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "  first failed check: {} at {}: {:.6e}, limit {:.6e}".format(*failures[0])
    assert main(argv + ["--report", "json"]) == 2
    assert capsys.readouterr().out == payload + "\n"


@pytest.mark.parametrize("argv", [
    ["tridiag"], ["polar"], ["verify", "--pattern", "band"], ["verify", "--pattern", "polar"],
    ["verify", "--pattern", "tri"], ["render"],
], ids=" ".join)
def test_a_schedule_too_short_for_the_matrix_exits_2(tmp_path, capsys, argv):
    path = _random_file(tmp_path, 9, 66)
    assert main(argv + ["--input", path, "--schedule", "custom:1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "schedule spans 3, too short for dimension 9" in captured.err


@pytest.mark.parametrize("pattern", ["polar", "polar-alt"])
@pytest.mark.parametrize("d, schedule", [(12, "custom:1,2,6,18"), (5, "custom:3,2,1,6"),
                                         (9, "custom:3,2,1,6"), (12, "custom:3,2,1,6")])
def test_verify_polar_on_shrinking_blocks_exits_2(tmp_path, capsys, pattern, d, schedule):
    # a cut block right of a larger one has no leading square; this once
    # died in numpy broadcasting and exited 1
    path = _random_file(tmp_path, d, 67)
    assert main(["verify", "--input", path, "--pattern", pattern,
                 "--schedule", schedule]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid schedule: block sizes must be non-decreasing")


def test_form_commands_match_library_reports(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BLOCKTRID_THRESHOLD", raising=False)
    path = _random_file(tmp_path, 10, 61)
    T = parse_matrix(path)
    for argv, call in _cli_parity_cases(10):
        code = main(argv + ["--input", path, "--report", "json"])
        out = capsys.readouterr().out
        report = call(T).report
        assert out == report.to_json() + "\n", argv
        assert code == (0 if report.passing else 2)


@pytest.mark.parametrize("argv", [["tridiag"], ["polar", "--alt"], ["family"]], ids=" ".join)
def test_output_files_hold_the_one_printed_encoding(tmp_path, capsys, monkeypatch, argv):
    # under --report json --output each report is encoded once, and the files
    # hold the same bytes as the library's own encoding
    monkeypatch.delenv("BLOCKTRID_THRESHOLD", raising=False)
    paths = [_random_file(tmp_path, 10, 68, "A.json"), _random_file(tmp_path, 10, 69, "B.json")]
    ops = [parse_matrix(path) for path in paths]
    if argv == ["family"]:
        forms = transforms.family_staircase(ops)[1]
        inputs = ["--input", paths[0], "--input", paths[1]]
        prefixes = ["family_1", "family_2"]
        printed = json.dumps({"passing": True, "forms": [
            json.loads(form.report.to_json()) for form in forms]}, sort_keys=True)
    else:
        build = {tuple(case): call for case, call in _cli_parity_cases(10)}[tuple(argv)]
        forms = [build(ops[0])]
        inputs = ["--input", paths[0]]
        prefixes = [forms[0].form_kind]
        printed = forms[0].report.to_json()
    texts = [form.report.to_json() + "\n" for form in forms]
    encoded = []
    original = VerificationReport.json_object

    def counting(report):
        encoded.append(report.form_kind)
        return original(report)

    monkeypatch.setattr(VerificationReport, "json_object", counting)
    out_dir = tmp_path / "out"
    assert main(argv + inputs + ["--report", "json", "--output", str(out_dir), "--svg"]) == 0
    assert len(encoded) == len(forms)
    assert capsys.readouterr().out.splitlines()[0] == printed
    for prefix, form, text in zip(prefixes, forms, texts):
        assert (out_dir / f"{prefix}_report.json").read_text() == text
        for name, mat in (("M", form.matrix), ("U", form.basis_change)):
            assert (out_dir / f"{prefix}_{name}.json").read_text() == emit_matrix_text(mat, "json")


@pytest.mark.parametrize("command, function", [
    ("staircase", "staircase"),
    ("tridiag", "block_tridiagonalize"),
    ("polar", "polar_sparsify"),
    ("trisparse", "tri_sparsify"),
    ("hessenberg", "krylov_hessenberg"),
    ("jointcyclic", "joint_cyclic_staircase"),
])
def test_form_commands_call_module_attribute(tmp_path, capsys, monkeypatch,
                                             command, function):
    # external tracers wrap transforms.<function> in place; a CLI that kept
    # its own reference to the function would bypass the wrapper
    calls = []
    original = getattr(transforms, function)

    def counting(*args, **kwargs):
        calls.append(function)
        return original(*args, **kwargs)

    monkeypatch.setattr(transforms, function, counting)
    path = _random_file(tmp_path, 6, 62)
    assert main([command, "--input", path]) == 0
    assert calls == [function]


@pytest.mark.parametrize("command, flag", [
    ("decompose", ["--svg"]),
    ("verify", ["--tol-dep", "1e-9"]),
    ("verify", ["--output", "OUT"]),
    ("verify", ["--svg"]),
    ("render", ["--tol-dep", "1e-9"]),
    ("render", ["--report", "json"]),
    ("render", ["--svg"]),
    ("tridiag", ["--kind", "general"]),
    ("polar", ["--kind", "general"]),
    ("verify", ["--kind", "general"]),
    ("render", ["--kind", "general"]),
])
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, command, flag):
    path = _write(tmp_path, "D.json", np.diag([1.0, 2.0, 3.0, 4.0]))
    base = [command, "--input", path]
    if command == "verify":
        base += ["--pattern", "staircase"]
    out_dir = tmp_path / "out"
    assert main(base) == 0
    capsys.readouterr()
    argv = base + [str(out_dir) if arg == "OUT" else arg for arg in flag]
    runs = [argv, argv + ["--output", str(out_dir)]] if command == "decompose" else [argv]
    for run in runs:
        assert main(run) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out_dir.exists()


def test_verify_and_render_read_cyclic_as_the_cyclic_canonical_schedule(tmp_path, capsys):
    rng = np.random.default_rng(64)
    T = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    path = _write(tmp_path, "B.json", transforms.block_tridiagonalize(T).matrix)
    M = parse_matrix(path)
    cyclic = schedule_for_dim(40, CYCLIC)
    assert cyclic.sizes != schedule_for_dim(40).sizes
    assert main(["render", "--input", path, "--schedule", "cyclic"]) == 0
    assert capsys.readouterr().out == render_svg(M, cyclic)
    code = main(["verify", "--input", path, "--pattern", "band", "--schedule", "cyclic",
                 "--report", "json"])
    hits = check_pattern(M, block_band(cyclic, 40))
    assert hits and code == 2
    assert json.loads(capsys.readouterr().out)["violations"] == [list(v) for v in hits]


EMPTY = '{"rows": 0, "cols": 0, "data": []}'


@pytest.mark.parametrize("command", [
    "staircase", "tridiag", "polar", "trisparse", "hessenberg", "jointcyclic",
    "decompose", "family",
])
def test_form_commands_reject_an_empty_operator(tmp_path, capsys, command):
    path = tmp_path / "E.json"
    path.write_text(EMPTY)
    assert main([command, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is empty; an operator needs dimension at least 1" in captured.err


def test_verify_and_render_accept_an_empty_file(tmp_path, capsys):
    path = tmp_path / "E.json"
    path.write_text(EMPTY)
    assert main(["verify", "--input", str(path), "--pattern", "staircase"]) == 0
    assert main(["render", "--input", str(path)]) == 0
    assert capsys.readouterr().out.count("<svg") == 1


#: pattern name -> (form, pattern function, threshold, entry to break, broken
#: value, the check that sees it).  A positive block's square lies inside the
#: support, so only the pattern's PSD check can catch a broken one; a
#: triangular corner is a claimed zero, caught as one entry at the threshold.
BLOCK_CLAIMS = {
    "polar": ("polar_sparsify", polar_blocks, 1e-10, (0, 1), -5.0, "psd_min_eigs"),
    "polar-alt": ("polar_sparsify", polar_blocks, 1e-10, (1, 0), -5.0, "psd_min_eigs"),
    "tri": ("tri_sparsify", tri_blocks, 1e-6, (2, 0), 1e-3, "pattern_violations"),
    "tri-alt": ("tri_sparsify", tri_blocks, 1e-6, (0, 2), 1e-3, "pattern_violations"),
}


@pytest.mark.parametrize("tampered", [False, True])
@pytest.mark.parametrize("pattern", list(BLOCK_CLAIMS))
def test_verify_agrees_with_the_report_on_block_claims(tmp_path, capsys, pattern, tampered):
    build, make_pattern, thr, (i, j), value, check = BLOCK_CLAIMS[pattern]
    alt = pattern.endswith("-alt")
    rng = np.random.default_rng(90)
    T = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    M = getattr(transforms, build)(T, alt=alt).matrix
    if tampered:
        M[i, j] = value
    path = _write(tmp_path, "M.json", M)
    M = parse_matrix(path)
    # the library's verdict on the file: its report with the identity as
    # basis change, whose basis and similarity checks all hold exactly
    spec = make_pattern(parse_spec("canonical", 9), 9, alt=alt)
    form = SparsifiedForm(input=M, basis_change=np.eye(9, dtype=complex), matrix=M,
                          form_kind="file", pattern=spec)
    failures = full_report(form, thr).failures
    assert [c.check for c in failures] == ([check] if tampered else [])
    if not tampered:
        # the built form's tails and corners are within 1e-10, not only 1e-6
        assert max(tail_max(form), corner_max(form)) <= 1e-10

    argv = ["verify", "--input", path, "--pattern", pattern, "--schedule", "canonical",
            "--threshold", repr(thr)]
    assert main(argv) == (2 if failures else 0)
    out = capsys.readouterr().out
    if failures:
        first = "{} at {}: {:.6e}, limit {:.6e}".format(*failures[0])
        assert f"first failed check: {first}" in out
    else:
        assert out == f"{spec.kind}: clean at threshold {thr:g}\n"
    assert main(argv + ["--report", "json"]) == (2 if failures else 0)
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == json.loads(json.dumps(failures))
    assert payload["passing"] is not tampered


def test_files_round_trip_as_utf8_with_encoding_warnings_as_errors(tmp_path):
    """Every file the CLI opens names its encoding: with a default-encoding
    ``open()`` made an error, each step of a files round trip exits 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "blocktrid.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)

    T = np.random.default_rng(54).standard_normal((6, 6)) * (1 + 1j)
    for fmt, ext in FORMAT_EXTENSIONS.items():
        path = _write(tmp_path, f"T{ext}", T)
        out = tmp_path / f"out_{fmt}"
        run("tridiag", "--input", path, "--output", str(out), "--svg")
        run("verify", "--input", str(out / f"block_tridiagonal_M{ext}"),
            "--pattern", "band", "--schedule", "canonical")
        run("render", "--input", path, "--output", str(out))
    # Arabic-Indic digits, which the reader takes as float() does
    (tmp_path / "uni.csv").write_text("\u0661, \u0662i\n\u0662, \u0661\n", encoding="utf-8")
    run("verify", "--input", str(tmp_path / "uni.csv"), "--pattern", "staircase")
