"""Command-line contract: schemas, determinism, exit codes."""

import argparse
import dataclasses
import json
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import krauslab as kl
from krauslab import cli, cuntz, opcore, schur

WALL = re.compile(rb'"wall_time_ms": \d+')


def strip_wall(payload: bytes) -> bytes:
    return WALL.sub(b'"wall_time_ms": 0', payload)


@pytest.fixture()
def pinching_file(tmp_path):
    fam = kl.KrausFamily(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    )
    path = tmp_path / "pinching.json"
    path.write_text(json.dumps(fam.to_json()))
    return str(path)


@pytest.fixture()
def symbol_file(tmp_path):
    s = schur.ToeplitzSymbol({-1: 0.5j, 0: 1.0, 1: -0.5j})
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(schur.symbol_to_json(s)))
    return str(path)


def test_analyze_report(pinching_file, capsys):
    code = cli.main(["analyze", "--input", pinching_file])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema_version"] == cli.SCHEMA_VERSION
    assert obj["command"] == "analyze"
    assert obj["results"]["fix_dim"] == 2
    assert obj["results"]["sigma_min"] == pytest.approx(0.0, abs=1e-12)
    assert obj["results"]["restricted_gap"] == pytest.approx(1.0, abs=1e-12)
    assert set(obj["results"]) == {
        "sigma_min",
        "restricted_gap",
        "fix_dim",
        "unital_defect",
        "counital_defect",
        "failures",
        "diagnostics",
    }
    assert obj["config"]["input_path"] == pinching_file


def test_cuntz_report(capsys):
    assert cli.main(["cuntz", "--dim", "8"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["results"]["failures"] == 0
    assert obj["results"]["n"] == 8
    assert obj["results"]["fix_dim"] == 1
    assert obj["results"]["v2_comm"] == 0.0


def test_cuntz_report_diagnoses_its_blocks(capsys):
    with pytest.warns(UserWarning):
        assert cli.main(["cuntz", "--dim", "48"]) == 0
    diagnostics = json.loads(capsys.readouterr().out)["results"]["diagnostics"]
    assert diagnostics["blocks"] > 1
    assert 1 <= diagnostics["largest_block"] < 48 * 48


def test_analyze_report_diagnoses_one_dense_block(tmp_path, capsys):
    fam = kl.KrausFamily([np.diag([1.0, 1j])])
    path = tmp_path / "unitary.json"
    path.write_text(json.dumps(fam.to_json()))
    assert cli.main(["analyze", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["diagnostics"] == {"blocks": 1, "largest_block": 4}


def test_fuzz_csv_and_json(tmp_path, capsys):
    csv_path = tmp_path / "fuzz.csv"
    json_path = tmp_path / "fuzz.json"
    code = cli.main(
        ["fuzz", "--trials", "7", "--dim", "4", "--ops", "2", "--seed", "3",
         "--json", str(json_path), "--csv", str(csv_path)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""  # --json diverts the report
    obj = json.loads(json_path.read_text())
    assert obj["results"]["trials"] == 7
    assert obj["results"]["failures"] == 0
    assert obj["results"]["min_slack"] >= -1e-9
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,lhs,rhs,slack,digest"
    assert len(lines) == 8  # header + one row per trial
    assert [row.split(",")[0] for row in lines[1:]] == [str(i) for i in range(7)]


def test_commuting_report(tmp_path):
    csv_path = tmp_path / "comm.csv"
    json_path = tmp_path / "comm.json"
    code = cli.main(
        ["commuting", "--dim", "4", "--ops", "2", "--trials", "4", "--seed", "5",
         "--json", str(json_path), "--csv", str(csv_path)]
    )
    assert code == 0
    obj = json.loads(json_path.read_text())
    assert obj["results"]["failures"] == 0
    assert obj["results"]["worst_hausdorff"] <= 1e-8
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    # even trials share conjugated diagonals (dim d), odd trials are generic (dim 0)
    dims = [int(r.split(",")[1]) for r in rows]
    assert dims == [4, 0, 4, 0]


def test_schur_report(symbol_file, capsys):
    assert cli.main(["schur", "--input", symbol_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["results"]["source"] == "symbol"
    assert obj["results"]["kmax"] == 1
    assert obj["results"]["n"] == 2
    assert obj["results"]["hermitian_symbol"] is True
    assert len(obj["results"]["spectrum"]) == 4


def test_schur_measure_input(tmp_path, capsys):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(schur.measure_to_json(schur.CircleMeasure.point_mass(1j))))
    assert cli.main(["schur", "--input", str(path), "--dim", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["results"]["source"] == "measure"
    spectrum = [complex(re, im) for re, im in obj["results"]["spectrum"]]
    np.testing.assert_allclose(spectrum, [-1j, 1j, 1.0, 1.0], atol=1e-12)


def test_json_determinism_modulo_wall_time(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = cli.main(
            ["fuzz", "--trials", "5", "--dim", "4", "--ops", "2", "--seed", "11",
             "--json", str(p)]
        )
        assert code == 0
    a, b = (p.read_bytes() for p in paths)
    assert strip_wall(a) == strip_wall(b)


def test_csv_determinism_and_seed_sensitivity(tmp_path):
    out = []
    for name, seed in (("a.csv", 9), ("b.csv", 9), ("c.csv", 10)):
        p = tmp_path / name
        cli.main(["fuzz", "--trials", "4", "--seed", str(seed), "--csv", str(p),
                  "--json", str(tmp_path / (name + ".json"))])
        out.append(p.read_bytes())
    assert out[0] == out[1]
    assert out[0] != out[2]


def test_commuting_determinism(tmp_path):
    payloads = []
    for name in ("x.csv", "y.csv"):
        p = tmp_path / name
        cli.main(["commuting", "--dim", "4", "--ops", "2", "--trials", "4",
                  "--seed", "2", "--csv", str(p), "--json", str(tmp_path / (name + ".json"))])
        payloads.append(p.read_bytes())
    assert payloads[0] == payloads[1]


def test_exit_code_on_failures(capsys):
    # an impossible tolerance turns the spectrum check into a failure
    code = cli.main(["commuting", "--dim", "4", "--ops", "2", "--trials", "2",
                     "--seed", "1", "--tol", "1e-30"])
    assert code == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["results"]["failures"] > 0


def test_exit_code_on_input_errors(tmp_path, capsys):
    assert cli.main(["analyze", "--input", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["analyze", "--input", str(bad)]) == 2
    capsys.readouterr()
    assert cli.main(["analyze"]) == 2  # analyze requires --input
    capsys.readouterr()
    # a symbol cannot be truncated beyond its window
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps(schur.symbol_to_json(schur.ToeplitzSymbol({0: 1.0}))))
    assert cli.main(["schur", "--input", str(sym), "--dim", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_analyze_exits_2_on_an_overflowing_family(scale, tmp_path, capsys):
    # at 1e200 the Gram sums of the one generator overflow the float range
    path, out = tmp_path / "family.json", tmp_path / "report.json"
    a = scale * np.array([[1.0, 1.0], [0.0, 2.0]])
    path.write_text(json.dumps({"dim": 2, "kraus": [opcore.matrix_to_json(a)]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["analyze", "--input", str(path), "--json", str(out)])
    err = capsys.readouterr().err
    if scale > 1.0:
        assert code == 2 and "overflows the float range" in err and not out.exists()
    else:
        assert code == 0 and err == ""
        json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(f"{name} in the report"))


def test_a_report_holding_nan_exits_2(monkeypatch, capsys):
    def with_nan(cfg):
        return cli.Report("2", "cuntz", {}, {"sigma_min": float("nan")}, 0)

    monkeypatch.setattr(cli, "run", with_nan)
    assert cli.main(["cuntz", "--dim", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not JSON compliant" in captured.err


def test_out_of_memory_exits_2(monkeypatch, capsys):
    # stands in for numpy failing to allocate S; nothing large is allocated
    def refuse(n):
        raise MemoryError(f"Unable to allocate 4.00 GiB for S at n = {n}")

    monkeypatch.setattr(cuntz, "experiment", refuse)
    assert cli.main(["cuntz", "--dim", "128"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate 4.00 GiB for S at n = 128\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, key", [("fuzz", "min_slack"), ("commuting", "worst_min_real")])
def test_empty_sweep_report_is_valid_json(command, key, capsys):
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    assert cli.main([command, "--trials", "0"]) == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert obj["results"]["trials"] == 0
    assert obj["results"][key] is None


@pytest.mark.parametrize("command", ["fuzz", "commuting"])
def test_negative_trials_rejected(command, capsys):
    assert cli.main([command, "--trials", "-3"]) == 2
    captured = capsys.readouterr()
    assert "--trials must be >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fuzz", "--dim", "1"], "--dim must be >= 2, got 1"),
        (["fuzz", "--dim", "0"], "--dim must be >= 2, got 0"),
        (["fuzz", "--ops", "0"], "--ops must be >= 1, got 0"),
        (["commuting", "--ops", "0"], "--ops must be >= 1, got 0"),
        (["commuting", "--dim", "0"], "--dim must be >= 1, got 0"),
        (["cuntz", "--dim", "3"], "--dim must be >= 4, got 3"),
    ],
)
def test_out_of_range_flags_name_the_flag(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


DEMO_DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.mark.parametrize(
    "command, demo, path, value, field",
    [
        ("analyze", "pinching.json", ["kraus", 0, "data", 0], [None, 0.0], "data[0][0]"),
        ("analyze", "pinching.json", ["dim"], [1], "dim"),
        ("analyze", "pinching.json", ["dim"], 1.7, "dim"),
        ("schur", "symbol.json", ["coeffs", 0], [None, 0.5, 0.0], "coeffs[0][0]"),
        ("schur", "symbol.json", ["coeffs"], 5, "coeffs"),
        (
            "schur",
            "symbol.json",
            ["coeffs"],
            [[-1, 0.0, 0.5], [0, 1.0, 0.0], [1.5, 0.0, 0.0], [1, 0.0, -0.5]],
            "coeffs[2][0]",
        ),
        ("schur", "measure.json", ["atoms", 0], [1.0, 0.0, None, 0.0], "atoms[0][2]"),
        # an integer literal too large for a float
        ("analyze", "pinching.json", ["kraus", 0, "data", 0], [10**400, 0.0], "data[0][0]"),
        (
            "schur",
            "symbol.json",
            ["coeffs"],
            [[-1, 0.0, 0.5], [0, 1.0, 0.0], [1, 0.0, -0.5], [0, 7.0, 0.0]],
            "coeffs[3][0]",
        ),
    ],
    ids=[
        "null-entry", "list-dim", "fractional-dim", "null-k", "scalar-coeffs",
        "fractional-k", "null-atom-weight", "huge-entry", "repeated-k",
    ],
)
def test_malformed_json_field_exits_2(command, demo, path, value, field, tmp_path, capsys):
    obj = json.loads((DEMO_DATA / demo).read_text())
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / demo
    bad.write_text(json.dumps(obj))
    assert cli.main([command, "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    assert f"error: {field} must be" in captured.err
    assert captured.out == ""


def test_schur_far_k_exits_2_quickly(tmp_path, capsys):
    # one k far out opens a window of 6e6 coefficients: count the holes, list few
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"coeffs": [[0, 1, 0], [3000000, 0, 0]]}))
    start = time.perf_counter()
    assert cli.main(["schur", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "misses 5999999 of 6000001 coefficients" in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "command, demo",
    [
        ("analyze", "pinching.json"),
        ("analyze", "unitary_mix.json"),
        ("analyze", "tensor_mix.json"),
        ("schur", "symbol.json"),
        ("schur", "measure.json"),
    ],
)
def test_demo_inputs_decode(command, demo, capsys):
    assert cli.main([command, "--input", str(DEMO_DATA / demo)]) == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("demo, fix_dim", [("pinching.json", 2), ("unitary_mix.json", 1), ("tensor_mix.json", 4)])
def test_analyze_reads_values_only(demo, fix_dim, monkeypatch, capsys):
    # analyze reads singular values and block shapes: no routine that forms
    # vectors runs, and every SVD is of a real matrix (S_h - I, not S - I)
    svd = np.linalg.svd

    def values_only_svd(a, *args, **kwargs):
        assert kwargs.get("compute_uv") is False
        assert np.isrealobj(a), f"complex SVD of {np.shape(a)}"
        return svd(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("analyze formed vectors")

    monkeypatch.setattr(np.linalg, "svd", values_only_svd)
    for name in ("eigh", "eig", "qr"):
        monkeypatch.setattr(np.linalg, name, refused)
    assert cli.main(["analyze", "--input", str(DEMO_DATA / demo)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["fix_dim"] == fix_dim


def test_schur_rejects_nonpositive_dim(symbol_file, capsys):
    assert cli.main(["schur", "--input", symbol_file, "--dim", "0"]) == 2
    assert "--dim must be >= 1, got 0" in capsys.readouterr().err


def test_cuntz_counts_failed_checks(monkeypatch, capsys):
    real = cuntz.commutation_report

    def broken(n):
        return dataclasses.replace(real(n), v2_comm=1.0)

    monkeypatch.setattr(cuntz, "commutation_report", broken)
    assert cli.main(["cuntz", "--dim", "8"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["results"]["failures"] == 1
    assert obj["results"]["v2_comm"] == 1.0


def test_wrong_payload_kind_rejected(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"something": 1}))
    assert cli.main(["schur", "--input", str(path)]) == 2
    capsys.readouterr()


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["explode"])
    assert exc.value.code == 2


def test_entry_raises_system_exit(pinching_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["krauslab", "analyze", "--input", pinching_file])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    capsys.readouterr()


def test_console_script_runs(pinching_file):
    proc = subprocess.run(
        [sys.executable, "-m", "krauslab.cli", "analyze", "--input", pinching_file],
        capture_output=True,
        text=True,
    )
    # module execution path mirrors the console script
    assert proc.returncode in (0, 1)
    assert "RuntimeWarning" not in proc.stderr


def test_run_rejects_unknown_command():
    with pytest.raises(ValueError):
        cli.run(cli.RunConfig(command="nonsense"))


REMOVED_FLAGS = [
    ("analyze", "--dim", "4"),
    ("analyze", "--ops", "2"),
    ("analyze", "--trials", "5"),
    ("analyze", "--seed", "4"),
    ("cuntz", "--ops", "99"),
    ("cuntz", "--trials", "5"),
    ("cuntz", "--seed", "4"),
    ("cuntz", "--tol", "1e-3"),
    ("cuntz", "--input", "nothing.json"),
    ("commuting", "--input", "nothing.json"),
    ("fuzz", "--tol", "1e-3"),
    ("fuzz", "--input", "nothing.json"),
    ("schur", "--ops", "2"),
    ("schur", "--trials", "5"),
    ("schur", "--seed", "4"),
]

KEPT_FLAGS = {
    "analyze": {"--input", "--tol"},
    "cuntz": {"--dim"},
    "commuting": {"--dim", "--ops", "--trials", "--seed", "--tol"},
    "fuzz": {"--dim", "--ops", "--trials", "--seed"},
    "schur": {"--input", "--dim", "--tol"},
}


def subparsers() -> dict:
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
def test_removed_flag_is_rejected(command, flag, value, capsys):
    base = [command, "--input", "in.json"] if command in ("analyze", "schur") else [command]
    with pytest.raises(SystemExit) as exc:
        cli.main(base + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err


def test_each_subcommand_takes_exactly_its_flags():
    parsers = subparsers()
    assert set(parsers) == set(KEPT_FLAGS)
    for name, p in parsers.items():
        options = {opt for a in p._actions for opt in a.option_strings}
        assert options == KEPT_FLAGS[name] | {"--json", "--csv", "-h", "--help"}, name


def test_help_states_default_and_lowest():
    parsers = subparsers()
    assert "(default 16; lowest 4)" in parsers["cuntz"].format_help()
    fuzz_help = parsers["fuzz"].format_help()
    for text in ("(default 8; lowest 2)", "(default 6; lowest 1)", "(default 200; lowest 0)"):
        assert text in fuzz_help


def test_config_echoes_every_field_for_a_one_flag_command(capsys):
    assert cli.main(["cuntz", "--dim", "8"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["config"] == {
        "command": "cuntz",
        "dim": 8,
        "input_path": None,
        "ops": None,
        "seed": 0,
        "tol": None,
        "trials": None,
    }


@pytest.mark.parametrize("weight, failures", [(1.0, 1), (-1.0, 0), (1j, 0)])
def test_schur_gates_the_toeplitz_matrix_of_a_positive_measure(
    weight, failures, tmp_path, monkeypatch, capsys
):
    # only a positive measure (real weights >= 0) promises a PSD Toeplitz matrix
    path = tmp_path / "measure.json"
    mu = schur.CircleMeasure.point_mass(1j, weight)
    path.write_text(json.dumps(schur.measure_to_json(mu)))
    monkeypatch.setattr(schur, "multiplier_matrix", lambda s, n: np.diag([1.0, -1.0]))
    assert cli.main(["schur", "--input", str(path), "--dim", "2"]) == failures
    obj = json.loads(capsys.readouterr().out)
    assert obj["results"]["failures"] == failures



@pytest.mark.parametrize("value, shown", [("-1", "-1.0"), ("0", "0.0"), ("nan", "nan"), ("inf", "inf")])
@pytest.mark.parametrize("command", ["analyze", "commuting", "schur"])
def test_tol_must_be_positive_and_finite(command, value, shown, pinching_file, symbol_file, capsys):
    argv = {
        "analyze": ["analyze", "--input", pinching_file],
        "commuting": ["commuting", "--dim", "2", "--trials", "2"],
        "schur": ["schur", "--input", symbol_file],
    }[command]
    assert cli.main(argv + ["--tol", value]) == 2
    captured = capsys.readouterr()
    assert f"error: --tol must be > 0, got {shown}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"command": "cuntz", "dim": 4, "ops": 99, "tol": 1e-3}, "cuntz does not take --ops"),
        ({"command": "cuntz", "seed": 4}, "cuntz does not take --seed"),
        ({"command": "fuzz", "input_path": "in.json"}, "fuzz does not take --input"),
        ({"command": "analyze", "input_path": "in.json", "dim": 3}, "analyze does not take --dim"),
    ],
)
def test_run_rejects_a_field_its_command_does_not_read(fields, message):
    with pytest.raises(ValueError, match=message):
        cli.run(cli.RunConfig(**fields))


def test_run_accepts_the_default_seed_everywhere():
    rep = cli.run(cli.RunConfig(command="cuntz", dim=4, seed=0))
    assert rep.config["seed"] == 0
    assert rep.failures == 0


def test_analyze_counts_a_trivial_fixed_space_of_a_unital_family(
    pinching_file, tmp_path, monkeypatch, capsys
):
    # a unital family fixes the identity, so fix_dim 0 is a failed check
    real = cli.gap_report

    def trivial(fam, tol):
        return dataclasses.replace(real(fam, tol), fix_dim=0)

    monkeypatch.setattr(cli, "gap_report", trivial)
    assert cli.main(["analyze", "--input", pinching_file]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["failures"] == 1
    # a non-unital family promises no fixed point
    shrunk = tmp_path / "shrunk.json"
    shrunk.write_text(json.dumps(kl.KrausFamily([0.5 * np.eye(2)]).to_json()))
    assert cli.main(["analyze", "--input", str(shrunk)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["failures"] == 0


@pytest.mark.parametrize("weight", [1e-6, 1.0, 1e6])
def test_schur_hermitian_symbol_is_judged_relative_to_its_size(weight, tmp_path, capsys):
    # a real point mass has d_{-k} = conj(d_k) at every scale; a complex one never
    path = tmp_path / "measure.json"
    for w, hermitian in ((weight, True), (1j * weight, False)):
        mu = schur.CircleMeasure.point_mass(np.exp(0.7j), w)
        path.write_text(json.dumps(schur.measure_to_json(mu)))
        assert cli.main(["schur", "--input", str(path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["hermitian_symbol"] is hermitian
        if hermitian:
            # w v v* is PSD of rank one
            assert abs(results["toeplitz_min_eig"]) <= 1e-12 * weight
        else:
            assert results["toeplitz_min_eig"] is None


def test_schur_measure_atoms_are_optional(tmp_path, capsys):
    density = json.loads((DEMO_DATA / "measure.json").read_text())["density"]
    path = tmp_path / "measure.json"
    results = []
    for obj in ({"density": density}, {"atoms": [], "density": density}):
        path.write_text(json.dumps(obj))
        assert cli.main(["schur", "--input", str(path)]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1]
    assert results[0]["source"] == "measure"
    # neither a symbol nor a measure
    path.write_text(json.dumps({"grid": density["grid"]}))
    assert cli.main(["schur", "--input", str(path)]) == 2
    assert "'atoms' or 'density' measure" in capsys.readouterr().err
