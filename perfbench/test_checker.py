"""Tests of the benchmark's proof checker.

    python3 -m pytest perfbench/test_checker.py

The checker must accept every YES and NO that the prover gives on the
fixtures, under every criterion, and reject one mutant of each kind.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402

DATA = HERE.parent / "tests" / "data"
FIXTURES = sorted(DATA.glob("*.trs"))
CRITERIA = ("auto", "nc", "ortho", "rl", "kb", "dd1", "dd2", "dd2x")


def prove(name: str, criterion: str) -> str:
    import ddrt.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert ddrt.cli.run(["--criterion", criterion, "--proof",
                             str(DATA / name)]) == 0
    return buf.getvalue()


def text(name: str) -> str:
    return (DATA / name).read_text()


def proof_of(name: str, criterion: str) -> dict:
    return json.loads(prove(name, criterion).split("\n", 1)[1])


def render(proof: dict) -> str:
    return proof["verdict"] + "\n" + json.dumps(proof)


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_accepts_every_fixture_verdict(path, criterion):
    output = prove(path.name, criterion)
    ok, why = checker.check(path.read_text(), output)
    assert ok, why


def test_fixtures_give_yes_and_no_under_every_yes_criterion():
    seen = set()
    for path in FIXTURES:
        for criterion in CRITERIA[1:]:
            proof = proof_of(path.name, criterion)
            if proof["verdict"] != "MAYBE":
                seen.add((proof["verdict"], proof["criterion"]))
    assert {c for v, c in seen if v == "YES"} == {
        "orthogonality", "rule-labeling", "knuth-bendix", "dd-duplication-split",
        "dd-relative", "dd-relative-nontrivial"}
    assert {c for v, c in seen if v == "NO"} == {"nonconfluence", "knuth-bendix"}


def test_rejects_a_wrong_rewrite_step():
    proof = proof_of("stream.trs", "dd2")
    inst = proof["details"]["joins"][0]["instance"]
    inst["right_trace"][0][0] = [1]
    ok, why = checker.check(text("stream.trs"), render(proof))
    assert not ok and "does not apply" in why


def test_rejects_a_wrong_printed_term():
    proof = proof_of("diamond.trs", "kb")
    proof["details"]["normalizations"][0]["left_steps"][0][2] = "c"
    ok, why = checker.check(text("diamond.trs"), render(proof))
    assert not ok and "printed term" in why


def test_rejects_a_wrong_matrix_entry():
    proof = proof_of("stream.trs", "dd2")
    funcs = proof["details"]["relative"]["chain"][0]["interpretation"]["funcs"]
    funcs["tl"]["const"] = [0, 0]
    ok, why = checker.check(text("stream.trs"), render(proof))
    assert not ok and "oriented" in why


def test_rejects_a_nonmonotone_matrix():
    proof = proof_of("nested_g.trs", "dd1")
    funcs = proof["details"]["relative"]["chain"][0]["interpretation"]["funcs"]
    funcs["f"]["matrices"][0][0][0] = 0
    ok, why = checker.check(text("nested_g.trs"), render(proof))
    assert not ok and "upper-left" in why


def test_rejects_a_level_map_that_breaks_one_peak():
    proof = proof_of("diamond.trs", "rl")
    assert proof["details"]["level_map"] == {"0": 0, "1": 1, "2": 0, "3": 0}
    proof["details"]["level_map"]["1"] = 0
    ok, why = checker.check(text("diamond.trs"), render(proof))
    assert not ok and "no decreasing join" in why


def test_rejects_a_missing_critical_pair_step():
    proof = proof_of("stream.trs", "dd2")
    first = proof["details"]["relative"]["chain"][0]
    first["strict_before"] = first["strict_before"][1:]
    ok, why = checker.check(text("stream.trs"), render(proof))
    assert not ok and "missing critical-pair step" in why


def test_rejects_a_missing_join():
    proof = proof_of("diamond.trs", "rl")
    proof["details"]["joins"] = proof["details"]["joins"][1:]
    ok, why = checker.check(text("diamond.trs"), render(proof))
    assert not ok and "no join entry" in why


@pytest.mark.parametrize("criterion", ("nc", "kb"))
def test_rejects_a_reducible_normal_form(criterion):
    proof = proof_of("fork.trs", criterion)
    assert proof["verdict"] == "NO"
    proof["details"]["witness"]["normal_forms"][0] = "a"
    ok, why = checker.check(text("fork.trs"), render(proof))
    assert not ok and "reducible" in why

