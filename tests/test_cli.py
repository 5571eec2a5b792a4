"""Tests for TPDB parsing, formatting and the command-line driver."""

from __future__ import annotations

import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ddrt import Config, cli
from ddrt.cli import CRITERION_CHOICES, run
from ddrt.terms import Fun, Var
from ddrt.tpdb import ParseError, format_trs, parse_trs
from ddrt.verdict import Verdict
from conftest import DATA_DIR, data_path, term
from helpers import build_parser, trace_by_json


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _deep_rules(depth: int) -> str:
    return "(RULES " + "f(" * depth + "a" + ")" * depth + " -> a)"


def _python(args: list[str], hash_seed: str = "0") -> subprocess.CompletedProcess:
    """Run the interpreter on args in a fresh process that imports ddrt from this checkout."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    )


def _cli_under_hash_seeds(argv: list[str]) -> list[str]:
    """The output of `python -m ddrt.cli argv` in fresh processes under hash seeds 0 and 1."""
    return [_python(["-m", "ddrt.cli", *argv], seed).stdout for seed in ("0", "1")]


class TestParseTrs:
    def test_minimal(self):
        R = parse_trs("(VAR x y)(RULES hd(:(x,y)) -> x)")
        assert len(R) == 1
        assert R.signature == {"hd": 1, ":": 2}
        assert R.rules[0].lhs == term("hd(:(x,y))")

    def test_stream_file_indices(self, stream):
        text = (DATA_DIR / "stream.trs").read_text()
        R = parse_trs(text)
        assert [r.index for r in R.rules] == [0, 1, 2, 3, 4]
        assert [str(r) for r in R.rules] == [str(r) for r in stream.rules]

    def test_comment_section_ignored(self):
        R = parse_trs("(COMMENT a tiny system)(RULES a -> b)")
        assert len(R) == 1

    def test_variable_lhs_rejected(self):
        with pytest.raises(ParseError):
            parse_trs("(VAR x)(RULES x -> a)")

    def test_extra_rhs_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_trs("(VAR x y)(RULES f(x) -> g(y))")

    def test_arity_clash_rejected(self):
        with pytest.raises(ParseError):
            parse_trs("(VAR x)(RULES f(x) -> a  f(x,x) -> b)")

    def test_missing_rules_section(self):
        with pytest.raises(ParseError):
            parse_trs("(VAR x)")

    def test_variable_with_arguments_rejected(self):
        with pytest.raises(ParseError):
            parse_trs("(VAR x)(RULES f(x(a)) -> a)")


class TestFormatTrs:
    def test_round_trip(self, stream, stream_d, toggle, nonleftlinear):
        for R in (stream, stream_d, toggle, nonleftlinear):
            reparsed = parse_trs(format_trs(R))
            assert [str(r) for r in reparsed.rules] == [str(r) for r in R.rules]

    def test_round_trip_all_data_files(self):
        for path in sorted(DATA_DIR.glob("*.trs")):
            R = parse_trs(path.read_text())
            assert [str(r) for r in parse_trs(format_trs(R)).rules] == [
                str(r) for r in R.rules
            ]


class TestRunSingle:
    def test_yes_first_line(self, capsys):
        assert run([data_path("stream.trs")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "YES"

    def test_no_first_line(self, capsys):
        assert run([data_path("fork.trs")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "NO"

    def test_maybe_under_kb_only(self, capsys):
        assert run(["--criterion", "kb", data_path("nested_g.trs")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "MAYBE"

    def test_nc_on_nested_g_within_a_quarter_second(self, capsys):
        # g(a) -> g(g(a)) pumps, so nc cuts both closures at their first
        # step instead of building 2000 terms each (about 0.7 s)
        start = time.perf_counter()
        assert run(["--criterion", "nc", data_path("nested_g.trs")]) == 0
        assert time.perf_counter() - start < 0.25
        assert capsys.readouterr().out.splitlines()[0] == "MAYBE"

    def test_proof_trace_is_json(self, capsys):
        assert run(["--proof", data_path("stream.trs")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "YES"
        trace = json.loads("\n".join(lines[1:]))
        assert trace["verdict"] == "YES"
        assert trace["criterion"] == "rule-labeling"
        assert "details" in trace

    def test_trace_deterministic(self, capsys):
        run(["--proof", data_path("stream.trs")])
        first = capsys.readouterr().out
        run(["--proof", data_path("stream.trs")])
        second = capsys.readouterr().out
        assert first == second

    def test_proof_does_not_depend_on_the_hash_seed(self, tmp_path):
        # equal candidate counts for f0, f1 and f2 used to be ordered by hash
        path = tmp_path / "ties.trs"
        path.write_text(
            "(VAR x)(RULES f0(c0) -> c1 f0(c2(x)) -> c2(c1) "
            "f1(c0) -> c2(c0) f2(c0) -> c2(c1))"
        )
        outputs = _cli_under_hash_seeds(["--criterion", "kb", "--proof", str(path)])
        assert outputs[0].splitlines()[0] == "YES"
        assert outputs[0] == outputs[1]

    def test_rule_labeling_proof_does_not_depend_on_the_hash_seed(self, tmp_path):
        # two meets join the same label sequences; the first one found used
        # to come from a set of terms
        path = tmp_path / "meets.trs"
        path.write_text(
            "(VAR x)(RULES b(a(x)) -> a(a(x)) b(b(x)) -> x a(x) -> x "
            "a(a(x)) -> b(b(x)) b(x) -> a(x))"
        )
        outputs = _cli_under_hash_seeds(["--criterion", "rl", "--proof", str(path)])
        assert outputs[0].splitlines()[0] == "YES"
        assert outputs[0] == outputs[1]

    def test_missing_file(self, capsys):
        assert run(["no-such-file.trs"]) == 2
        assert "error" in capsys.readouterr().err

    def test_multiple_files_rejected(self, capsys):
        code = run([data_path("fork.trs"), data_path("stream.trs")])
        assert code == 2

    def test_no_files_usage_error(self, capsys):
        assert run([]) == 2

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.trs"
        bad.write_text("(RULES x -> )")
        assert run([str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_timeout(self, capsys):
        assert run(["--timeout", "0", data_path("fork.trs")]) == 2

    def test_nan_timeout(self, capsys):
        assert run(["--timeout", "nan", data_path("fork.trs")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("timeout", ["1e7", "inf"])
    def test_huge_timeout_reaches_the_external_prover(self, timeout, tmp_path, capsys):
        # the prover's wait reaches poll() in whole milliseconds, at most 2**31 - 1
        tool = tmp_path / "prover.sh"
        tool.write_text("#!/bin/sh\necho YES\n")
        tool.chmod(0o755)
        path = tmp_path / "cycle.trs"
        path.write_text("(RULES c -> a f(a) -> f(b) f(b) -> f(a))")
        argv = ["--criterion", "kb", "--external-prover", str(tool), "--timeout", timeout]
        assert run(argv + ["--proof", str(path)]) == 0
        first, trace = capsys.readouterr().out.split("\n", 1)
        assert first == "YES"
        assert json.loads(trace)["details"]["termination"]["union_termination"] == "external"

    def test_term_deeper_than_recursion_limit(self, tmp_path, capsys):
        deep = tmp_path / "deep.trs"
        deep.write_text(_deep_rules(3000))
        assert run([str(deep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "nested too deeply" in captured.err

    @pytest.mark.parametrize("depth", [300, 900])
    def test_proof_prints_deep_terms(self, depth, tmp_path):
        # f(a) -> g^depth(a); a -> b: the proof holds terms depth levels deep
        path = tmp_path / "deep.trs"
        path.write_text("(RULES f(a) -> " + "g(" * depth + "a" + ")" * depth + " a -> b)")
        out = _python(["-m", "ddrt.cli", "--proof", str(path)]).stdout
        first, trace = out.split("\n", 1)
        assert first == json.loads(trace)["verdict"]
        # each term's hash is computed once, from its arguments' stored hashes
        assert first == "NO"

    def test_directory_as_file(self, tmp_path, capsys):
        assert run([str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--criterion", "kb", "--coef-max", "0"],
            ["--criterion", "kb", "--dim-max", "0"],
            ["--criterion", "dd2", "--coef-max", "-1"],
        ],
    )
    def test_invalid_search_bounds(self, argv, capsys):
        assert run(argv + [data_path("stream.trs")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


GOLDEN = DATA_DIR / "proofs"


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.txt")))
def test_proof_matches_golden_output(golden, capsys):
    """`ddrt [--criterion C] --proof NAME.trs` prints NAME.C.txt byte for byte,
    where C is "auto" for the whole portfolio. A file is written with
    `python -m ddrt.cli [--criterion C] --proof tests/data/NAME.trs`."""
    name, criterion, _ = golden.split(".")
    argv = ["--proof", data_path(f"{name}.trs")]
    if criterion != "auto":
        argv = ["--criterion", criterion] + argv
    assert run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


class TestStartup:
    """A fresh process pays only for the layers its problem uses."""

    HEAVY = ("numpy", "concurrent.futures", "dataclasses", "ddrt.interpretations",
             "ddrt.joinability", "ddrt.rule_labeling")

    # what a fresh process used to load for the flags, the quoter and the file
    UNNEEDED = ("argparse", "gettext", "locale", "json", "json.encoder", "pathlib",
                "encodings.ascii")

    def _loaded_after(self, call: str, flags: tuple[str, ...] = (),
                      watched: tuple[str, ...] = HEAVY) -> tuple[str, list[str]]:
        """The output of call, run after `import ddrt.cli` by the interpreter
        with flags, and the watched modules loaded by then.

        The module names are printed on the last line of stdout, so warnings
        on stderr cannot disturb them; printing them loads no module.
        """
        code = (
            "import sys, ddrt.cli\n"
            f"{call}\n"
            f"print(*[m for m in {watched!r} if m in sys.modules])"
        )
        *out, loaded = _python([*flags, "-c", code]).stdout.splitlines()
        return "\n".join(out), loaded.split()

    def test_import_loads_nothing_heavy(self):
        assert self._loaded_after("pass") == ("", [])

    def test_import_without_site_loads_no_typing(self):
        # without -S, a .pth file of the environment may load typing first
        assert self._loaded_after("pass", ("-S",), self.HEAVY + ("typing",)) == ("", [])

    def test_orthogonal_proof_without_site_loads_no_unneeded_module(self):
        # flags, JSON quoting and the problem file need no module of their own
        argv = ["--proof", data_path("ortho.trs")]
        out, loaded = self._loaded_after(f"ddrt.cli.run({argv!r})", ("-S",), self.UNNEEDED)
        assert out.splitlines()[0] == "YES"
        assert loaded == []

    def test_orthogonal_proof_loads_nothing_heavy(self):
        argv = ["--proof", data_path("ortho.trs")]
        out, loaded = self._loaded_after(f"ddrt.cli.run({argv!r})")
        assert out.splitlines()[0] == "YES"
        assert loaded == []

    def test_rule_labeling_loads_its_layers_only(self):
        argv = ["--criterion", "rl", "--proof", data_path("stream.trs")]
        out, loaded = self._loaded_after(f"ddrt.cli.run({argv!r})")
        assert out.splitlines()[0] == "YES"
        assert loaded == ["ddrt.joinability", "ddrt.rule_labeling"]

    def test_interpretation_search_loads_numpy(self):
        argv = ["--criterion", "kb", "--proof", data_path("diamond.trs")]
        out, loaded = self._loaded_after(f"ddrt.cli.run({argv!r})")
        assert out.splitlines()[0] == "YES"
        assert "numpy" in loaded and "ddrt.interpretations" in loaded
        assert "dataclasses" not in loaded


class TestPackageNames:
    def test_star_import_binds_every_public_name(self):
        code = ("from ddrt import *\nimport ddrt\n"
                "print(all(globals()[n] is getattr(ddrt, n) for n in ddrt.__all__))")
        assert _python(["-c", code]).stdout == "True\n"

    def test_every_public_name_is_its_modules_attribute(self):
        import ddrt
        import ddrt.cli  # loads the submodule critical_pairs as well

        for name in ddrt.__all__:
            value = getattr(ddrt, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
        # the function, not the submodule of the same name
        assert ddrt.critical_pairs is sys.modules["ddrt.critical_pairs"].critical_pairs

    def test_unknown_name_raises_attribute_error(self):
        import ddrt

        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            ddrt.nothing


class TestRunBatch:
    def test_counts_match_verdicts(self, tmp_path, capsys):
        for name in ("stream.trs", "fork.trs", "toggle.trs"):
            (tmp_path / name).write_text((DATA_DIR / name).read_text())
        assert run(["--batch", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        verdicts = dict(line.split("\t") for line in lines[:-1])
        assert len(verdicts) == 3
        summary = lines[-1]
        kinds = list(verdicts.values())
        assert summary == (
            f"total 3  YES {kinds.count('YES')}  NO {kinds.count('NO')}  "
            f"MAYBE {kinds.count('MAYBE')}  ERROR {kinds.count('ERROR')}"
        )
        assert verdicts[str(tmp_path / "fork.trs")] == "NO"
        assert verdicts[str(tmp_path / "stream.trs")] == "YES"
        assert verdicts[str(tmp_path / "toggle.trs")] == "MAYBE"

    def test_term_deeper_than_recursion_limit_is_an_error_line(self, tmp_path, capsys):
        (tmp_path / "deep.trs").write_text(_deep_rules(3000))
        (tmp_path / "fork.trs").write_text((DATA_DIR / "fork.trs").read_text())
        assert run(["--batch", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        verdicts = dict(line.split("\t") for line in lines[:-1])
        assert verdicts[str(tmp_path / "deep.trs")] == "ERROR"
        assert verdicts[str(tmp_path / "fork.trs")] == "NO"

    def test_error_lines_carry_their_messages_on_stderr(self, tmp_path, capsys):
        (tmp_path / "b.trs").write_text("(RULES f(x -> a)")
        (tmp_path / "a.trs").write_bytes(b"(RULES \xff -> a)")
        (tmp_path / "fork.trs").write_text((DATA_DIR / "fork.trs").read_text())
        assert run(["--batch", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        broken = [str(tmp_path / name) for name in ("a.trs", "b.trs")]
        assert [f"{p}\tERROR" for p in broken] == captured.out.splitlines()[:2]
        errors = captured.err.splitlines()
        assert [line.split(": ")[1] for line in errors] == broken
        assert errors[0] == (f"error: {broken[0]}: 'ascii' codec can't decode byte 0xff "
                             "in position 7: ordinal not in range(128)")
        assert errors[1] == f"error: {broken[1]}: expected ')', got '->' (at token 5)"

    def test_timeout_is_per_file(self, tmp_path, capsys):
        # every worker spends the whole second on a slow file first, so a
        # timeout shared by the batch would pass before the quick file starts
        workers = os.cpu_count() or 1
        for i in range(workers):
            (tmp_path / f"slow{i}.trs").write_text("(RULES c -> b b -> f(g(c),g(a)))")
        (tmp_path / "z-quick.trs").write_text("(RULES a -> b)")
        assert run(["--criterion", "kb", "--timeout", "1", "--batch", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        verdicts = dict(line.split("\t") for line in lines[:-1])
        assert list(verdicts) == sorted(verdicts) and len(verdicts) == workers + 1
        assert verdicts.pop(str(tmp_path / "z-quick.trs")) == "YES"
        assert set(verdicts.values()) == {"MAYBE"}

    def test_empty_directory(self, tmp_path, capsys):
        assert run(["--batch", str(tmp_path)]) == 2

    def test_batch_and_files_conflict(self, tmp_path):
        assert run(["--batch", str(tmp_path), data_path("fork.trs")]) == 2

    def test_batch_and_proof_conflict(self, tmp_path, capsys):
        # a batch prints one line per file, so it would drop the proofs
        (tmp_path / "fork.trs").write_text((DATA_DIR / "fork.trs").read_text())
        assert run(["--proof", "--batch", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestOutOfMemory:
    @staticmethod
    def _exhausted(*args):
        raise MemoryError

    def test_while_parsing(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "parse_trs", self._exhausted)
        path = data_path("fork.trs")
        assert run([path]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: out of memory\n")

    def test_while_printing_the_proof_no_verdict_is_printed(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_trace", self._exhausted)
        path = data_path("fork.trs")
        assert run(["--proof", path]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: out of memory\n")

    def test_in_a_batch_worker(self, monkeypatch):
        monkeypatch.setattr(cli, "parse_trs", self._exhausted)
        path = data_path("fork.trs")
        assert cli._batch_worker((path, Config())) == (path, "ERROR", "out of memory")


def test_flag_defaults_are_the_config_defaults(monkeypatch):
    monkeypatch.delenv("DDRT_EXTERNAL_PROVER", raising=False)
    assert cli._config_from(cli.parse_args(["f.trs"])) == Config()


# what a record's default repr would print into a proof in place of its text
_REPRS = re.compile(r"\b(Var|Fun|Rule|RuleClass|TRS|Overlap|CriticalPair|JoinInstance|And|Or|Gt|"
                    r"Geq|MatrixInterpretation|LinearForm|RelTermProblem|Verdict|Config)\(|"
                    r" object at 0x")


def _corpus_module():
    spec = importlib.util.spec_from_file_location(
        "corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


@pytest.fixture
def run_proof(monkeypatch, capsys):
    """`run(argv)` for one proof: what it prints, checked against the proof
    trace that `json.dumps` writes for its verdict (`helpers.trace_by_json`)."""
    verdicts: list[Verdict] = []
    prove_file = cli._prove_file

    def keep(path: str, cfg: Config) -> Verdict:
        verdicts.append(prove_file(path, cfg))
        return verdicts[-1]

    def proof(argv: list[str]) -> str:
        assert run(argv) == 0
        out = capsys.readouterr().out
        v = verdicts.pop()
        assert out == f"{v.kind}\n{trace_by_json(v.kind, v.criterion, v.details)}\n"
        return out

    monkeypatch.setattr(cli, "_prove_file", keep)
    return proof


@pytest.mark.parametrize("criterion", CRITERION_CHOICES)
def test_no_proof_of_the_data_files_prints_a_repr(criterion, run_proof):
    for path in sorted(DATA_DIR.glob("*.trs")):
        out = run_proof(["--criterion", criterion, "--proof", str(path)])
        assert not _REPRS.search(out), (path.name, _REPRS.search(out).group())


def test_no_proof_of_the_seed_1_corpora_prints_a_repr(tmp_path, run_proof):
    corpus = _corpus_module()
    count = 0
    for workload in corpus.WORKLOADS:
        for item in corpus.build(workload, 1, tmp_path / workload):
            out = run_proof(["--criterion", item["criterion"], "--proof",
                             str(tmp_path / workload / item["file"])])
            assert not _REPRS.search(out), (workload, item["id"], _REPRS.search(out).group())
            count += 1
    assert count == 302


class _Named:
    """An object that prints as its text."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name


class _Rendered:
    """An object that renders itself with `to_json`."""

    def __init__(self, value) -> None:
        self.value = value

    def to_json(self):
        return {"value": self.value, "10": [self.value], "9": {}}


# JSON values as proof details may hold them: numeric-looking keys, booleans
# next to 0 and 1, huge ints, non-finite floats, non-ASCII and control
# characters, empty containers, tuples, sets, and objects printed by text
# or by `to_json`
_KEYS = ("10", "9", "1", "", 1, 9, 10, 0, -3, True, False, None, "é", "a\x07")
_SCALARS = (None, True, False, 0, 1, -1, 2**64, -(2**70), 0.5, -0.0, 1e300, 5e-324,
            float("inf"), float("-inf"), float("nan"),
            "", "\x00\x1f\"\\", "é", "\U0001f600", "\u2028")


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice("ab9 \x00\x07\n\t\"\\/é\u2028\U0001f600")
                   for _ in range(rng.randrange(5)))


def _random_value(rng: random.Random, depth: int):
    """A random proof detail of bounded depth."""
    kind = rng.randrange(12 if depth > 0 else 6)
    if kind == 0:
        return rng.choice(_SCALARS)
    if kind == 1:
        return rng.choice([rng.randrange(-2**80, 2**80), rng.randrange(-2, 3),
                           rng.uniform(-1, 1) * 10.0 ** rng.randrange(-300, 300)])
    if kind == 2:
        return _random_text(rng)
    if kind == 3:
        return _Named(_random_text(rng))
    if kind == 4:
        return rng.choice([Var(_random_text(rng)), Fun("f", (Var(_random_text(rng)),))])
    if kind == 5:
        return _Rendered(rng.choice(_SCALARS))
    width = rng.randrange(4)
    if kind == 6:
        return [_random_value(rng, depth - 1) for _ in range(width)]
    if kind == 7:
        return tuple(_random_value(rng, depth - 1) for _ in range(width))
    if kind == 8:
        return {rng.choice(_KEYS + (_random_text(rng),)): _random_value(rng, depth - 1)
                for _ in range(width)}
    if kind == 9:
        return {rng.choice((True, False, 0, 1, -(2**70), 7)) for _ in range(width)}
    if kind == 10:
        return frozenset(_random_text(rng) for _ in range(width))
    return {(rng.randrange(-2, 3), frozenset(_random_text(rng) for _ in range(width)))
            for _ in range(width)}


class TestProofWriter:
    """`_trace` writes the bytes of `json.dumps(indent=2, sort_keys=True)`
    on the details as JSON values (`helpers.trace_by_json`)."""

    @staticmethod
    def _same_as_json(v: Verdict) -> None:
        assert cli._trace(v) == trace_by_json(v.kind, v.criterion, v.details)

    def test_generated_values(self):
        rng = random.Random(18)
        for _ in range(500):
            details = {rng.choice(_KEYS): _random_value(rng, 4) for _ in range(rng.randrange(6))}
            self._same_as_json(Verdict(rng.choice(["YES", "NO", "MAYBE"]), _random_text(rng),
                                       details))

    def test_empty_and_repeated(self):
        rule = parse_trs("(VAR x)(RULES f(x) -> g(x,x))").rules[0]
        details = {"a": [], "b": {}, "c": (), "d": set(), "e": [rule, rule, [rule]],
                   "f": float("nan"), "g": [float("inf"), -float("inf"), -0.0, 1e300]}
        self._same_as_json(Verdict("YES", "x", details))


class TestOneParser:
    def test_one_parser_per_process(self):
        # the flag table is the parser: a call builds its result afresh and
        # shares nothing with the next call
        first = cli.parse_args(["--k", "2", "a.trs"])
        first["files"].append("b.trs")
        assert cli.parse_args(["--k", "2", "a.trs"])["files"] == ["a.trs"]
        assert cli.parse_args([]) == vars(build_parser().parse_args([]))

    def test_a_run_leaves_no_flag_behind(self, monkeypatch, capsys):
        monkeypatch.delenv("DDRT_EXTERNAL_PROVER", raising=False)
        path = data_path("diamond.trs")
        assert run(["--criterion", "kb", "--k", "2", "--proof", path]) == 0
        capsys.readouterr()
        assert run(["--proof", path]) == 0
        assert capsys.readouterr().out == _python(["-m", "ddrt.cli", "--proof", path]).stdout


# values each flag may take, argparse and `parse_args` alike: numbers with
# signs, blanks and underscores, non-finite floats, empty text and "="
_VALUES = {
    "--criterion": CRITERION_CHOICES,
    "--k": ("0", "3", "-1", " 7 ", "+2", "1_0", "-0"),
    "--timeout": ("0.5", "1e3", "nan", "inf", "-2.5", "-.5", "60", "0"),
    "--dim-max": ("1", "2", "-3", "0"),
    "--coef-max": ("1", "2", "-1"),
    "--external-prover": ("prover.sh", "", "my prover", "x=y"),
    "--batch": ("problems", "a dir", ""),
    "--proof": (None,),
}
_FILES = ("a.trs", "dir/b.trs", "-", "c d.trs")

# one piece each that both parsers reject: an unknown flag, a bad value, a
# bad --criterion and a value given to a switch (a missing value comes last)
_BAD = (["--bogus"], ["-x"], ["--proofs"], ["--k", "x"], ["--k", "1.5"], ["--k="],
        ["--timeout", "soon"], ["--dim-max=two"], ["--coef-max", ""], ["--criterion", "foo"],
        ["--criterion=KB"], ["--criterion", ""], ["--proof=yes"], ["--proof="])


def _random_flags(rng: random.Random) -> list[list[str]]:
    """Flags with values, each as the one or two arguments that give it,
    in both spellings and with repeats."""
    groups = []
    for _ in range(rng.randrange(7)):
        flag = rng.choice(list(_VALUES))
        value = rng.choice(_VALUES[flag])
        if value is None:
            groups.append([flag])
        elif rng.random() < 0.5:
            groups.append([f"{flag}={value}"])
        else:
            groups.append([flag, value])
    return groups


def _random_argv(rng: random.Random) -> list[str]:
    """An argv that argparse accepts: flags, and FILEs in one run between
    any two of them or after "--"."""
    groups = _random_flags(rng)
    files = rng.sample(_FILES, rng.randrange(3))
    if files and rng.random() < 0.2:
        groups.append(["--", *files, *rng.sample(["--proof", "-x.trs"], rng.randrange(3))])
    else:
        groups.insert(rng.randrange(len(groups) + 1), files)
    return [arg for group in groups for arg in group]


def _reprs(args: dict) -> dict[str, str]:
    """args with each value as its repr: NaN equals NaN, and 1 differs from 1.0."""
    return {name: repr(value) for name, value in args.items()}


def _config_or_error(args: dict):
    try:
        return cli._config_from(args)
    except ValueError as e:
        return str(e)


class TestParseArgs:
    """`parse_args` reads a command line as the argparse parser of
    `helpers.build_parser` does, prefix abbreviations aside."""

    def test_generated_argv_parse_as_under_argparse(self, monkeypatch):
        monkeypatch.delenv("DDRT_EXTERNAL_PROVER", raising=False)
        rng = random.Random(19)
        reference = build_parser()
        for _ in range(2000):
            argv = _random_argv(rng)
            expected = vars(reference.parse_args(argv))
            got = cli.parse_args(argv)
            assert _reprs(got) == _reprs(expected), argv
            assert _config_or_error(got) == _config_or_error(expected), argv

    def test_every_flag_in_both_spellings(self):
        reference = build_parser()
        for flag, values in _VALUES.items():
            for value in values:
                spellings = ([[flag]] if value is None
                             else [[flag, value], [f"{flag}={value}"]])
                for argv in spellings:
                    argv = argv + ["f.trs"]
                    expected = vars(reference.parse_args(argv))
                    assert _reprs(cli.parse_args(argv)) == _reprs(expected), argv

    def test_generated_bad_argv_exit_2_under_both(self, capsys):
        rng = random.Random(20)
        reference = build_parser()
        missing = [[flag] for flag, values in _VALUES.items() if values != (None,)]
        for _ in range(300):
            groups = _random_flags(rng) + [rng.sample(_FILES, rng.randrange(2))]
            if rng.random() < 0.2:
                groups.append(rng.choice(missing))
            else:
                groups.insert(rng.randrange(len(groups) + 1), rng.choice(_BAD))
            argv = [arg for group in groups for arg in group]
            with pytest.raises(SystemExit) as exited:
                reference.parse_args(argv)
            assert exited.value.code == 2, argv
            with pytest.raises(cli.UsageError):
                cli.parse_args(argv)
            capsys.readouterr()
            assert run(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert err.startswith(f"{cli._USAGE}\nddrt: error: "), argv
            assert err.count("\n") == cli._USAGE.count("\n") + 2, argv

    def test_missing_value_and_bad_criterion_messages(self, capsys):
        assert run(["f.trs", "--k"]) == 2
        assert capsys.readouterr().err.endswith(
            "\nddrt: error: argument --k: expected one argument\n")
        assert run(["--criterion", "foo", "f.trs"]) == 2
        assert capsys.readouterr().err.endswith(
            "\nddrt: error: argument --criterion: invalid choice: 'foo' (choose from "
            "'auto', 'nc', 'ortho', 'rl', 'kb', 'dd1', 'dd2', 'dd2x')\n")

    def test_flags_are_spelled_in_full(self, capsys):
        # argparse took a prefix of a flag for the flag
        assert run(["--crit", "rl", data_path("stream.trs")]) == 2
        assert capsys.readouterr().err.endswith(
            "\nddrt: error: unrecognized arguments: --crit\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_every_flag(self, flag, capsys):
        assert run(["--k", "2", flag, "--bogus"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: ddrt [-h] ")
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("  -")}
        assert listed == {"-h,", *cli._FLAGS}
        assert all(f"[{name}" in cli._USAGE for name in cli._FLAGS)
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([flag])
        assert exited.value.code == 0
