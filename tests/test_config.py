import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

import cutdim

from cutdim.analysis import analyze_instance, classify_cut, impact_protocol
from cutdim.config import RunConfig, load_config
from cutdim.hull import affine_hull, face_hull
from cutdim.oracle import BruteForceOracle, MipOracle, make_provider
from cutdim.rational import rat


def test_defaults():
    cfg = load_config()
    assert cfg.tolerance == rat(1, 10000)
    assert cfg.hull_time_budget == 600.0
    assert cfg.solve_time_limit == 60.0
    assert cfg.solve_node_limit is None
    assert cfg.jobs == 1
    assert cfg.output_format == "json"
    assert cfg.engine == "solver"
    assert cfg.verify_oracle is True
    assert cfg.seed == 2024


@pytest.mark.parametrize(
    "function, parameter, setting",
    [
        (affine_hull, "time_budget", "hull_time_budget"),
        (face_hull, "time_budget", "face_time_budget"),
        (classify_cut, "tolerance", "tolerance"),
        (classify_cut, "face_time_budget", "face_time_budget"),
        (impact_protocol, "time_limit", "solve_time_limit"),
        (impact_protocol, "node_limit", "impact_node_limit"),
        (MipOracle, "time_limit", "solve_time_limit"),
        (MipOracle, "node_limit", "solve_node_limit"),
        (MipOracle, "verify", "verify_oracle"),
        (BruteForceOracle, "verify", "verify_oracle"),
        (make_provider, "engine", "engine"),
        (make_provider, "time_limit", "solve_time_limit"),
        (make_provider, "node_limit", "solve_node_limit"),
        (make_provider, "verify", "verify_oracle"),
    ],
)
def test_library_defaults_are_the_run_defaults(function, parameter, setting):
    default = inspect.signature(function).parameters[parameter].default
    assert default == getattr(RunConfig(), setting)


def test_precedence_file_env_overrides(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"solve_node_limit": 2, "seed": 7, "tolerance": "1/500"}))
    env = {
        "CUTDIM_SOLVE_NODE_LIMIT": "3",
        "CUTDIM_OUTPUT_FORMAT": "csv",
        "HOME": "/ignored",  # unrelated env entries are skipped
    }
    cfg = load_config(str(path), env=env, overrides={"solve_node_limit": 4})
    assert cfg.solve_node_limit == 4  # flag beats env beats file
    assert cfg.output_format == "csv"  # env beats default
    assert cfg.seed == 7  # file beats default
    assert cfg.tolerance == rat(1, 500)


def test_overrides_skip_none_values(tmp_path):
    cfg = load_config(env={"CUTDIM_SEED": "11"}, overrides={"seed": None})
    assert cfg.seed == 11


def test_none_literals_and_bools():
    env = {
        "CUTDIM_SOLVE_TIME_LIMIT": "none",
        "CUTDIM_SOLVE_NODE_LIMIT": "250",
        "CUTDIM_VERIFY_ORACLE": "off",
        "CUTDIM_OUTPUT": "",
    }
    cfg = load_config(env=env)
    assert cfg.solve_time_limit is None
    assert cfg.solve_node_limit == 250
    assert cfg.verify_oracle is False
    assert cfg.output is None

    cfg = load_config(env={"CUTDIM_VERIFY_ORACLE": "Yes"})
    assert cfg.verify_oracle is True
    with pytest.raises(ValueError, match="CUTDIM_VERIFY_ORACLE"):
        load_config(env={"CUTDIM_VERIFY_ORACLE": "maybe"})


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"jbos": 2}))
    with pytest.raises(ValueError, match="jbos"):
        load_config(str(path))


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("tolerance", "-1/10", "tolerance"),
        ("hull_time_budget", -5.0, "hull_time_budget"),
        ("solve_node_limit", 0, "solve_node_limit"),
        ("jobs", 0, "jobs"),
        ("output_format", "yaml", "output format"),
        ("engine", "magic", "engine"),
    ],
)
def test_validation_errors(field, value, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_config(overrides={field: value})


def test_validate_on_mutated_config():
    cfg = RunConfig()
    cfg.jobs = -2
    with pytest.raises(ValueError, match="jobs"):
        cfg.validate()


def test_malformed_env_value_names_the_variable():
    with pytest.raises(ValueError, match="CUTDIM_JOBS"):
        load_config(env={"CUTDIM_JOBS": "many"})


@pytest.mark.parametrize("value", [1, None, "maybe"])
def test_verify_oracle_takes_only_on_off(tmp_path, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"verify_oracle": value}))
    with pytest.raises(ValueError, match="verify_oracle"):
        load_config(str(path))
    assert load_config(env={"CUTDIM_VERIFY_ORACLE": "0"}).verify_oracle is False


@pytest.mark.parametrize(
    "field, value",
    [("jobs", 2.7), ("solve_node_limit", 2.5), ("jobs", True), ("output", 5), ("tolerance", True)],
)
def test_non_whole_numbers_and_non_paths_rejected(tmp_path, field, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({field: value}))
    with pytest.raises(ValueError, match=field):
        load_config(str(path))


@pytest.mark.parametrize(
    "field, text",
    [
        ("solve_node_limit", "1_000"),
        ("solve_node_limit", "\u0661\u0662"),  # Arabic-Indic 12
        ("seed", "2_024"),
        ("impact_node_limit", "\uff15"),  # fullwidth 5
        ("solve_time_limit", "1_0"),
        ("hull_time_budget", "\u0663"),  # Arabic-Indic 3
        ("face_time_budget", "2.5_0"),
    ],
)
def test_numbers_take_the_rational_literal_grammar(field, text):
    """A count or a time in text is ASCII with no underscores, as
    `rational.parse_rational` reads literals: `int` and `float` alone
    would read "1_000" as 1000 and other scripts' digits as 12."""
    var = "CUTDIM_" + field.upper()
    with pytest.raises(ValueError, match=var):
        load_config(env={var: text})
    with pytest.raises(ValueError, match=field):
        load_config(overrides={field: text})
    plain = text.replace("_", "").translate({0x661: "1", 0x662: "2", 0x663: "3", 0xFF15: "5"})
    parsed = load_config(env={var: plain}, overrides={field: plain})
    assert getattr(parsed, field) == (float(plain) if "time" in field else int(plain))


@pytest.mark.parametrize("text", ["inf", "Infinity", "-inf", "nan"])
@pytest.mark.parametrize("field", ["hull_time_budget", "face_time_budget", "solve_time_limit"])
def test_a_time_is_finite(field, text):
    """`float` reads "inf" and "nan"; no limit is spelled `none` alone."""
    var = "CUTDIM_" + field.upper()
    with pytest.raises(ValueError, match=var):
        load_config(env={var: text})
    with pytest.raises(ValueError, match=field):
        load_config(overrides={field: float(text)})
    assert getattr(load_config(env={var: "none"}), field) is None


@pytest.mark.parametrize("field", ["hull_time_budget", "face_time_budget", "solve_time_limit"])
def test_a_boolean_is_no_time_limit(tmp_path, field):
    """JSON true is not one second: `float(True)` would read it as 1.0."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({field: True}))
    with pytest.raises(ValueError, match=field):
        load_config(str(path))


def test_every_setting_but_jobs_is_read():
    """A setting no module reads changes nothing.  `jobs` stays only as a
    flag that accepts 1; once it goes, this set is empty."""
    read = set()
    for path in Path(cutdim.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            read |= {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            }
    unread = {f.name for f in dataclasses.fields(RunConfig)} - read
    assert unread == {"jobs"}


def test_validate_keeps_the_parsed_values(monkeypatch):
    """A library run with text settings runs on what they parse to: "off"
    turns verification off (the text is truthy) and the limits are numbers."""
    from test_exactness import knapsack

    verified = []
    monkeypatch.setattr("cutdim.oracle._verify_response", lambda *args: verified.append(args))
    cfg = RunConfig(
        verify_oracle="off", solve_time_limit="5", hull_time_budget="none", solve_node_limit="7"
    )
    analysis = analyze_instance(knapsack(), (), cfg)
    assert analysis.dimension == 3 and verified == []
    parsed = (cfg.verify_oracle, cfg.solve_time_limit, cfg.hull_time_budget, cfg.solve_node_limit)
    assert parsed == (False, 5.0, None, 7)


def test_readme_environment_examples_load():
    """Every `CUTDIM_NAME=value` example in README.md is a setting that loads."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"`(CUTDIM_[A-Z_]+)=([^`\s]+)`", text)
    assert examples
    for name, value in examples:
        load_config(env={name: value})
