import csv
import io
import json
import random

import pytest

from cutdim.analysis import analyze_instance, build_histogram
from cutdim.config import RunConfig
from cutdim.fileio import (
    ParseError,
    analysis_to_csv,
    analysis_to_json,
    histogram_items_from_report,
    histogram_to_csv,
    instance_from_json,
    instance_to_json,
    load_histogram_items,
    parse_cuts,
    read_instance,
    write_instance,
    write_report,
)
from cutdim.model import Inequality, build_instance
from cutdim.rational import rat
from cutdim.selftest import random_instance


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


def square_analysis(**kwargs):
    cuts = [
        Inequality([1, 1], 3, label="loose"),
        Inequality([1, 1], rat("1.99"), label="bad"),
        Inequality([1, 1], 2, label="tight"),
    ]
    return analyze_instance(square(), cuts, RunConfig(solve_time_limit=None, **kwargs))


def test_instance_json_round_trip():
    inst = build_instance(
        name="frac",
        constraint_matrix=[[rat(1, 3), -2]],
        rhs=[rat(5, 7)],
        objective=[1, rat(-3, 2)],
        integer_vars=(0,),
        lower_bounds=[None, -1],
        upper_bounds=[4, None],
    )
    text = instance_to_json(inst)
    doc = json.loads(text)
    assert doc["constraint_matrix"] == [["1/3", "-2"]]
    assert doc["lower_bounds"] == [None, "-1"]
    assert instance_from_json(text) == inst


def test_instance_json_round_trip_random():
    rng = random.Random(89)
    for i in range(15):
        inst = random_instance(rng, name=f"j{i}", require_nonempty=False)
        assert instance_from_json(instance_to_json(inst)) == inst


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"name": "x"}', "lacks keys"),
        (
            '{"name": "x", "objective": [1], "constraint_matrix": [], "rhs": [1]}',
            "malformed instance",
        ),
    ],
)
def test_instance_json_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        instance_from_json(text)


def test_read_write_dispatch(tmp_path):
    inst = square()
    for name in ("box.json", "box.mps"):
        path = tmp_path / name
        write_instance(inst, str(path))
        assert read_instance(str(path)) == inst
    # the two on-disk formats describe the same instance
    assert read_instance(str(tmp_path / "box.json")) == read_instance(
        str(tmp_path / "box.mps")
    )
    odd = tmp_path / "box.dat"
    odd.write_text(instance_to_json(inst))
    with pytest.raises(ParseError, match="cannot infer format"):
        read_instance(str(odd))
    assert read_instance(str(odd), fmt="json") == inst


def test_parse_cuts_grammar():
    cuts = parse_cuts("c1, 1, 1, ≤ 2", 2)
    assert cuts == [Inequality([1, 1], 2, label="c1", normalized=True)]
    # the relation may also be its own field, or absent
    assert parse_cuts("c1, 1, 1, <=, 2", 2) == cuts
    assert parse_cuts("c1, 1, 1, 2", 2) == cuts

    text = """
    # leading comment
    plain, 2, 2, 4          # scaled copy, normalized on read
    ascii, 1, 0, <= 1, mir
    """
    cuts = parse_cuts(text, 2)
    assert [c.label for c in cuts] == ["plain", "ascii"]
    assert cuts[0].coefficients == (rat(1), rat(1)) and cuts[0].rhs == 2
    assert cuts[1].category == "mir"

    assert parse_cuts("", 2) == []
    assert parse_cuts("# only comments\n\n", 2) == []


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("c1, 1, 2", "expected label, 2 coefficients and a rhs"),
        ("c1, 1, x, 2", "line 1"),
        ("c1, 1, 1, <=", "missing right-hand side"),
        ("ok, 1, 1, 2\nc2, 1, 1, 2, cat, extra", "line 2: unexpected trailing fields"),
    ],
)
def test_parse_cuts_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_cuts(text, 2)


def test_json_report_shape():
    analysis = square_analysis()
    doc = json.loads(analysis_to_json(analysis))
    assert doc["instance"] == "square" and doc["dimension"] == 2
    assert doc["hull"]["equations"] == []
    assert doc["summary"]["analyzed"]["total"] == 2
    assert doc["summary"]["failed"] == {"numerical": 0, "timeout": 0, "invalid": 1}
    assert doc["summary"]["degenerate"] == 0
    verdicts = [c["verdict"] for c in doc["cuts"]]
    assert verdicts == ["non-supporting", "invalid", "supporting"]
    tight = doc["cuts"][2]
    assert tight["beta_true"] == "2" and tight["face_dimension"] == 0
    assert tight["bin"] == "[0%,5%)"  # k=0 inside d=2
    loose = doc["cuts"][0]
    assert loose["bin"] == "empty" and loose["face_dimension"] is None
    assert doc["cuts"][1]["bin"] is None  # invalid cuts are never binned
    assert doc["impact"]["z_star"] == "2"
    bins = {row["bin"]: row["weight"] for row in doc["histogram"]}
    assert bins == {"empty": "1/2", "[0%,5%)": "1/2"}


def test_csv_report_shape():
    analysis = square_analysis()
    records = list(csv.reader(io.StringIO(analysis_to_csv(analysis))))
    header = records[0]
    assert header[:6] == ["row", "instance", "dimension", "label", "category", "verdict"]
    kinds = [rec[0] for rec in records[1:]]
    assert kinds == ["summary", "cut", "cut", "cut", "histogram", "histogram"]
    summary = dict(zip(header, records[1]))
    assert summary["analyzed"] == "2"
    assert summary["failed_invalid"] == "1"
    assert summary["failed_numerical"] == "0"
    assert summary["degenerate"] == "0"
    rows = [dict(zip(header, rec)) for rec in records[2:5]]
    assert [r["verdict"] for r in rows] == ["non-supporting", "invalid", "supporting"]
    assert rows[2]["face_dimension"] == "0"
    assert rows[1]["closed_gap"] == ""  # invalid cut: impact run skipped
    hist = [dict(zip(header, rec)) for rec in records[5:]]
    assert {(r["bin"], r["weight"]) for r in hist} == {
        ("empty", "1/2"),
        ("[0%,5%)", "1/2"),
    }


def test_report_without_cuts_is_summary_only():
    analysis = analyze_instance(square(), [], RunConfig(solve_time_limit=None))
    lines = analysis_to_csv(analysis).splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("summary,square,2,")
    doc = json.loads(analysis_to_json(analysis))
    assert doc["cuts"] == [] and doc["histogram"] == []
    assert "impact" not in doc  # no cuts, nothing to measure


def test_degenerate_cuts_excluded_from_report_bins():
    cuts = [Inequality([0, 0], 0, label="flat"), Inequality([1, 1], 2, label="tight")]
    analysis = analyze_instance(square(), cuts, RunConfig(solve_time_limit=None))
    doc = json.loads(analysis_to_json(analysis))
    assert doc["summary"]["degenerate"] == 1
    flat = doc["cuts"][0]
    assert flat["degenerate"] is True and flat["bin"] is None
    assert flat["face_dimension"] == 2  # face is all of P, still reported
    assert histogram_items_from_report(doc) == (2, [0])


def test_reports_are_deterministic_bytes():
    first = square_analysis(jobs=1)
    second = square_analysis(jobs=3)
    assert analysis_to_json(first) == analysis_to_json(second)
    assert analysis_to_csv(first) == analysis_to_csv(second)


def test_histogram_items_from_report():
    doc = json.loads(analysis_to_json(square_analysis()))
    assert histogram_items_from_report(doc) == (2, [-1, 0])

    doc["cuts"][2]["verdict"] = None  # pretend the face run failed
    assert histogram_items_from_report(doc) == (2, [-1])

    assert histogram_items_from_report({"dimension": -1, "cuts": []}) is None
    assert histogram_items_from_report({"dimension": 3, "cuts": []}) is None


def test_load_histogram_items_and_csv(tmp_path):
    analysis = square_analysis()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_report(analysis, str(a), fmt="json")
    write_report(analysis, str(b), fmt="json")
    items = load_histogram_items([str(a), str(b)])
    assert items == [(2, [-1, 0]), (2, [-1, 0])]
    rows = build_histogram(items)
    assert sum(w for _, w in rows) == 1
    text = histogram_to_csv(rows)
    assert text.splitlines()[0] == "bin,weight,weight_decimal"
    assert "empty,1/2," in text

    bad = tmp_path / "bad.json"
    bad.write_text("nonsense")
    with pytest.raises(ParseError, match="not a JSON report"):
        load_histogram_items([str(bad)])


def test_write_report_rejects_unknown_format(tmp_path):
    analysis = analyze_instance(square(), [], RunConfig(solve_time_limit=None))
    with pytest.raises(ValueError, match="unknown report format"):
        write_report(analysis, str(tmp_path / "r.xml"), fmt="xml")
