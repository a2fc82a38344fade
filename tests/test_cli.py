import dataclasses
import json
import os

import pytest

from cutdim.cli import _build_parser, _configure, main
from cutdim.config import RunConfig, load_config
from cutdim.fileio import write_instance
from cutdim.model import build_instance


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in list(os.environ):
        if var.startswith("CUTDIM_"):
            monkeypatch.delenv(var)


def square():
    return build_instance(
        name="square",
        constraint_matrix=[],
        rhs=[],
        objective=[1, 1],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[1, 1],
    )


def knapsack():
    return build_instance(
        name="knap",
        constraint_matrix=[[3, 4]],
        rhs=[10],
        objective=[5, 4],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[3, 3],
    )


def void():
    return build_instance(
        name="void",
        constraint_matrix=[[1], [-1]],
        rhs=[0, -1],
        objective=[1],
        integer_vars=(0,),
    )


@pytest.fixture
def square_path(tmp_path):
    path = tmp_path / "square.json"
    write_instance(square(), str(path))
    return str(path)


@pytest.fixture
def trio_path(tmp_path):
    path = tmp_path / "trio.txt"
    path.write_text(
        "# three cuts against the unit square\n"
        "loose, 1, 1, ≤ 3\n"
        "bad, 1, 1, 1.99\n"
        "tight, 1, 1, <= 2\n"
    )
    return str(path)


def test_dim_square(square_path, capsys):
    assert main(["dim", square_path]) == 0
    out = capsys.readouterr().out
    assert out == "dim = 2, queries = 4, equations = 0\n"


def test_dim_prints_equations(tmp_path, capsys):
    diagonal = build_instance(
        name="diag",
        constraint_matrix=[[1, -1], [-1, 1]],
        rhs=[0, 0],
        objective=[1, 0],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[3, 3],
    )
    path = tmp_path / "diag.json"
    write_instance(diagonal, str(path))
    assert main(["dim", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dim = 1, ")
    assert "equations = 1" in out
    assert out.splitlines()[1].startswith("  ")  # the equation, indented


def test_dim_lattice_engine_agrees(square_path, capsys):
    assert main(["dim", square_path, "--engine", "lattice"]) == 0
    assert capsys.readouterr().out.startswith("dim = 2, ")


def test_classify_table(square_path, trio_path, capsys):
    assert main(["classify", square_path, trio_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "square: dim(P) = 2"
    assert lines[1].split() == ["label", "category", "verdict", "beta", "beta_true", "face_dim"]
    table = {line.split()[0]: line.split() for line in lines[2:]}
    assert table["loose"][1:] == ["non-supporting", "3", "2", "-"]
    assert table["bad"][1:] == ["invalid", "199/100", "2", "-"]
    assert table["tight"][1:] == ["supporting", "2", "2", "0"]


def test_impact_output(tmp_path, capsys):
    path = tmp_path / "knap.json"
    write_instance(knapsack(), str(path))
    cuts = tmp_path / "cuts.txt"
    cuts.write_text("strong, 1, 1, ≤ 3\n")
    assert main(["impact", str(path), str(cuts)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("knap: z* = 15, z_lp = 16, node budget N = ")
    assert lines[1].split()[:4] == ["label", "status", "nodes", "closed_gap"]
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert "(baseline)" in rows
    assert rows["strong"][3] == "1"  # closes the whole gap


def test_impact_infeasible_instance(tmp_path, capsys):
    path = tmp_path / "void.json"
    write_instance(void(), str(path))
    cuts = tmp_path / "cuts.txt"
    cuts.write_text("c, 1, 0\n")
    assert main(["impact", str(path), str(cuts)]) == 1
    err = capsys.readouterr().err
    assert "impact protocol failed" in err


def test_analyze_writes_json_report(square_path, trio_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["analyze", square_path, trio_path, "--output", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "square: dim(P) = 2, N = 1, analyzed = 2, "
        "failed: 0/0 = 0, timeout = 0, invalid = 1, degenerate = 0"
    )
    assert f"report written to {report}" in out
    doc = json.loads(report.read_text())
    assert doc["instance"] == "square"
    assert doc["summary"]["failed"]["invalid"] == 1


def test_analyze_csv_to_stdout(square_path, trio_path, capsys):
    assert main(["analyze", square_path, trio_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "row,instance,dimension,label" in out
    assert "\nsummary,square,2," in out


def test_analyze_infeasible_sets_exit_code(tmp_path, capsys):
    path = tmp_path / "void.json"
    write_instance(void(), str(path))
    cuts = tmp_path / "cuts.txt"
    cuts.write_text("c, 1, 0\n")
    assert main(["analyze", str(path), str(cuts)]) == 1
    captured = capsys.readouterr()
    assert "dim(P) = -1" in captured.out
    assert "impact protocol failed" in captured.err


def test_histogram_roundtrip(square_path, trio_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["analyze", square_path, trio_path, "--output", str(report)]) == 0
    capsys.readouterr()
    assert main(["histogram", str(report)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "bin,weight,weight_decimal"
    assert any(line.startswith("empty,1/2,") for line in lines)

    target = tmp_path / "bins.csv"
    assert main(["histogram", str(report), "--output", str(target)]) == 0
    assert target.read_text().splitlines()[0] == "bin,weight,weight_decimal"


def test_selftest_command(capsys):
    assert main(["selftest", "--seed", "2024"]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 6


def test_missing_file_is_usage_error(capsys):
    assert main(["dim", "/nonexistent/instance.json"]) == 2
    assert "file not found" in capsys.readouterr().err


def test_malformed_cuts_are_parse_errors(square_path, tmp_path, capsys):
    cuts = tmp_path / "cuts.txt"
    cuts.write_text("c1, 1, 2\n")  # wrong coefficient count for n=2
    assert main(["classify", square_path, str(cuts)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_bad_config_file(square_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    assert main(["dim", square_path, "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_env_var_is_honored(square_path, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_format": "yaml"}))
    monkeypatch.setenv("CUTDIM_CONFIG", str(cfg))
    assert main(["dim", square_path]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_tolerance_flag_changes_verdict(square_path, tmp_path, capsys):
    cuts = tmp_path / "cuts.txt"
    cuts.write_text("edge, 1, 1, 1.99\n")
    # with a slack of 1/50 the 0.01 shortfall counts as touching
    assert main(["classify", square_path, str(cuts), "--tolerance", "1/50"]) == 0
    out = capsys.readouterr().out
    assert "supporting" in out and "invalid" not in out


def test_malformed_config_value_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify_oracle": 1}))
    assert main(["selftest", "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dim", "classify", "analyze"])
def test_interrupted_hull_reports_bracket(square_path, trio_path, tmp_path, capsys, command):
    report = tmp_path / "report.json"
    argv = [command, square_path] + ([] if command == "dim" else [trio_path])
    argv += ["--hull-time-budget", "1e-9", "--output", str(report)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("interrupted: dim in [-1, 2] after 0 queries (")
    assert not report.exists()


SUBCOMMAND_POSITIONALS = {
    "dim": ["instance"],
    "classify": ["instance", "cuts"],
    "impact": ["instance", "cuts"],
    "analyze": ["instance", "cuts"],
    "histogram": ["reports"],
    "selftest": [],
}


def _subparsers():
    (action,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return action.choices


def test_option_strings_of_every_subcommand():
    options = {
        "-h", "--help", "--config", "--tolerance", "--hull-time-budget",
        "--face-time-budget", "--solve-time-limit", "--solve-node-limit",
        "--impact-node-limit", "--jobs", "--output", "--format", "--engine",
        "--no-verify", "--seed",
    }  # fmt: skip
    subparsers = _subparsers()
    assert sorted(subparsers) == sorted(SUBCOMMAND_POSITIONALS)
    for name, parser in subparsers.items():
        strings = {s for a in parser._actions for s in a.option_strings}
        positionals = [a.dest for a in parser._actions if not a.option_strings]
        assert strings == options, name
        assert positionals == SUBCOMMAND_POSITIONALS[name], name


TEXTS = {
    "tolerance": ["1/50", "0.25"],
    "hull_time_budget": ["none", "2.5"],
    "face_time_budget": ["none", "30"],
    "solve_time_limit": ["none", "7"],
    "solve_node_limit": ["none", "250"],
    "impact_node_limit": ["none", "9"],
    "jobs": ["3"],
    "output": ["r.json"],
    "output_format": ["csv"],
    "engine": ["lattice"],
    "verify_oracle": ["off"],
    "seed": ["11", "-4"],
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
def test_flag_env_and_file_read_the_same_text(field, tmp_path, monkeypatch):
    (action,) = [a for a in _subparsers()["selftest"]._actions if a.dest == field]
    for text in TEXTS[field]:
        if action.const is not None:
            assert action.const == text  # a flag that takes no value passes this text
            argv = [action.option_strings[0]]
        else:
            argv = [action.option_strings[0], text]
        from_flag = _configure(_build_parser().parse_args(["selftest"] + argv))
        monkeypatch.setenv("CUTDIM_" + field.upper(), text)
        from_env = load_config()
        monkeypatch.delenv("CUTDIM_" + field.upper())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: text}))
        from_file = load_config(str(path))
        values = {getattr(c, field) for c in (from_flag, from_env, from_file)}
        assert len(values) == 1, (field, text, values)
