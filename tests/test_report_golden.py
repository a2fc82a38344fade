"""Golden bytes of the reports and of the CLI tables.

Fixed instances and cut files reach every per-cut branch of a report:
each verdict, zero-row (degenerate) cuts, a supporting cut inside the
tolerance band, face runs that fail on their time budget, cuts the
strength protocol skips as invalid-cut, an unbounded cut direction
(beta_true = inf), and strength runs that end in an impact error (an
infeasible instance).  Each case pins the SHA-256 of the JSON and CSV
reports and of the stdout of `cutdim classify` and `cutdim analyze`, so
any change to a report byte shows here.  Beside them, each case pins
the SHA-256 of its JSON report with the base run's two counts,
`oracle_queries` and `cache_hits`, removed: those digests hold every
answer of the report and none of the counts.
"""

import hashlib
import json
import os

import pytest

from cutdim.analysis import analyze_instance
from cutdim.cli import main
from cutdim.config import RunConfig
from cutdim.fileio import analysis_to_csv, analysis_to_json, parse_cuts, write_instance
from cutdim.model import build_instance


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in list(os.environ):
        if var.startswith("CUTDIM_"):
            monkeypatch.delenv(var)


def knapsack():
    # z* = 15 at (3, 0), z_lp = 16
    return build_instance(
        name="knap",
        constraint_matrix=[[3, 4]],
        rhs=[10],
        objective=[5, 4],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[3, 3],
    )


KNAPSACK_CUTS = (
    "cover, 1, 1, <= 3, cover\n"
    "vertex, 3, 4, <= 10, knapsack\n"
    "band, 1, 1, <= 3.00001, cover\n"
    "loose, 1, 0, <= 5\n"
    "bad, 1, 0, <= 2, bound\n"
    "zero-loose, 0, 0, <= 1\n"
    "zero-bad, 0, 0, <= -1\n"
    "zero-tight, 0, 0, <= 0\n"
)


def wedge():
    # x, y >= 0 integer with |x - y| <= 2: unbounded along (1, 1)
    return build_instance(
        name="wedge",
        constraint_matrix=[[1, -1], [-1, 1]],
        rhs=[2, 2],
        objective=[-1, -1],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
    )


WEDGE_CUTS = (
    "ray, 1, 1, <= 10, ray\n"
    "side, 1, -1, <= 2, ray\n"
    "corner, -1, -1, <= 0\n"
    "loose, -1, 0, <= 1\n"
    "bad, 0, 1, <= 1/2\n"
    "zero-tight, 0, 0, <= 0\n"
)


def void():
    return build_instance(
        name="void",
        constraint_matrix=[[1, 1], [-1, -1]],
        rhs=[0, -1],
        objective=[1, 0],
        integer_vars=(0, 1),
        lower_bounds=[0, 0],
        upper_bounds=[2, 2],
    )


VOID_CUTS = "c, 1, 0, <= 0\nzero-bad, 0, 0, <= -1\n"

CASES = {
    "knapsack": (knapsack, KNAPSACK_CUTS, {}),
    "knapsack-failed-faces": (knapsack, KNAPSACK_CUTS, {"face_time_budget": 1e-9}),
    "wedge": (wedge, WEDGE_CUTS, {}),
    "void": (void, VOID_CUTS, {}),
}

# case: (json, csv, classify stdout, analyze stdout, classify exit, analyze exit)
GOLDEN = {
    "knapsack": (
        "9b0be3be3584bad9104c6f717680d5cb01d98a3731ce724d508a89f27cc6b95b",
        "64fde340e40c701652c2c1926446439d564e6ddf5298c60ebb8f44ab99ba2e14",
        "9ae0a0822f498fd3f109d112810744f325fbcc0e8e94f3653e1e99f33045e93d",
        "619e653fd2e48eebafd9172eb0fc802af39265fe532b2bc688c414b42af54d30",
        0,
        0,
    ),
    "knapsack-failed-faces": (
        "0cbb38747aa5da7cdd942a22e9ca9c5f3b81f0562b85899382425c283944acc1",
        "86add191616352ab3b508636e52bbb727927163cf0cc91ffc9c71ded428f2826",
        "36a6c3d4b0bda3394a3b14e1b4e8e911b73a2ac3889d77c2e2816643e6c83e72",
        "b72e9b73919657c093d92247cf0d410430a79d808059588459439624c8ad2ed1",
        1,
        1,
    ),
    "void": (
        "06af30354d336e4ca9718f1a3c4d3c64574be8f5e10d03337aaed11560e31854",
        "b6faf6f2c071add544e8ff41cc7b055f3d5dd29d465085a2e3180f0efbb04e13",
        "dac4027569f99172bd1ceb46c9457520989e8a17a3771ae002860e75e63d4c28",
        "8caae7b2d6ca2ffa70e01c82f327549d1134b71839800be4ffc65b61c54a8477",
        0,
        1,
    ),
    "wedge": (
        "c2a34faf2a66f6006dadabbc4d715103c0d4e812bfcd4ac459f075364b7363fa",
        "38b07cb49ed01198e7939dcdb70cb32ee6e4509288ca135b525feacbe5f98751",
        "4ff876dcd752b575a1f736c47abf77118e3ba1d254da50d4b2221417bad1de05",
        "4ca8742f10187be25d7545c90bf20dbf3c16b9f914af9fb01697b479b8ae9acf",
        0,
        0,
    ),
}


# case: SHA-256 of the JSON report without hull.oracle_queries and hull.cache_hits
COUNT_FREE = {
    "knapsack": "17dfaba89a9f62821c67b0ebb6162922d6f5fe9d445f0d81ab2a04bdca8ab34a",
    "knapsack-failed-faces": "1fae966de9ccc6f55badfc9e1f750ce87d7564985257a8e7c92fd4282afe3787",
    "void": "4267fd56ea9562f5201586addba3d5b28b911bff7e65ebad3253ed419a89a201",
    "wedge": "c0f14268d84cbdfdf13459aa2b74561b7b18edecaa81b7471f5a8b3c235e3b5f",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _flags(settings: dict) -> list:
    return [
        item
        for name, value in settings.items()
        for item in ("--" + name.replace("_", "-"), str(value))
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_golden(case, tmp_path, capsys):
    build, cut_text, settings = CASES[case]
    inst = build()
    cuts = parse_cuts(cut_text, inst.num_vars)
    analysis = analyze_instance(inst, cuts, RunConfig(**settings))

    instance_path = tmp_path / "instance.json"
    write_instance(inst, str(instance_path))
    cuts_path = tmp_path / "cuts.txt"
    cuts_path.write_text(cut_text, encoding="utf-8")
    args = [str(instance_path), str(cuts_path), *_flags(settings)]
    classify_rc = main(["classify", *args])
    classify_out = capsys.readouterr().out
    analyze_rc = main(["analyze", *args])
    analyze_out = capsys.readouterr().out

    got = (
        _sha(analysis_to_json(analysis)),
        _sha(analysis_to_csv(analysis)),
        _sha(classify_out),
        _sha(analyze_out),
        classify_rc,
        analyze_rc,
    )
    assert got == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_answers_are_golden(case):
    build, cut_text, settings = CASES[case]
    inst = build()
    analysis = analyze_instance(inst, parse_cuts(cut_text, inst.num_vars), RunConfig(**settings))
    doc = json.loads(analysis_to_json(analysis))
    del doc["hull"]["oracle_queries"], doc["hull"]["cache_hits"]
    assert _sha(json.dumps(doc, indent=2)) == COUNT_FREE[case]
