import json

import pytest

from cutdim.config import RunConfig, load_config
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


def test_precedence_file_env_overrides(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"jobs": 2, "seed": 7, "tolerance": "1/500"}))
    env = {
        "CUTDIM_JOBS": "3",
        "CUTDIM_OUTPUT_FORMAT": "csv",
        "HOME": "/ignored",  # unrelated env entries are skipped
    }
    cfg = load_config(str(path), env=env, overrides={"jobs": 4})
    assert cfg.jobs == 4  # flag beats env beats file
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
    [("jobs", 2.7), ("solve_node_limit", 2.5), ("jobs", True), ("output", 5)],
)
def test_non_whole_numbers_and_non_paths_rejected(tmp_path, field, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({field: value}))
    with pytest.raises(ValueError, match=field):
        load_config(str(path))
