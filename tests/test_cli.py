import json

import numpy as np
import pytest

import blocktrid.transforms as transforms
from blocktrid import emit_matrix, parse_matrix, unit_vector
from blocktrid.cli import main


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
    assert "dims [1, 1, 1]" in capsys.readouterr().out
    assert main(["decompose", "--input", path, "--report", "json",
                 "--output", str(tmp_path / "dec")]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.splitlines()[0])
    assert payload["dims"] == [1, 1, 1]
    assert (tmp_path / "dec" / "decompose_M.json").exists()
    assert (tmp_path / "dec" / "decompose_U.json").exists()


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
