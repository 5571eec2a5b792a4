"""Seeded corpus generator for the three benchmark workloads.

Two steps, kept apart so that the benchmark's inputs never depend on the
prover they measure:

* `draw_pool.py` draws candidate systems from the families below with a
  fixed master seed, runs each once through its workload's command, drops
  the ones that raise or run past a cap, and writes the survivors, in fixed
  numbers per family, to `pool.json`, which is checked in.
* This module turns the pool into one workload's corpus for a `--seed`:
  the order of the problems is shuffled and string systems may be
  mirrored. Neither changes the prover's work much, which keeps the figures of
  different seeds comparable. Symbols are not renamed: the prover's search
  order, and with it its cost, depends on how symbol names hash (see
  README.md), so renaming would turn string hashing into seed-to-seed
  spread.

    python3 perfbench/corpus.py --workload rl-srs --seed 7 --out DIR

writes DIR/NNN.trs and DIR/manifest.json. Run as a script it also times
its own set-up (import of ddrt, generation, writing, and a parse of every
file by ddrt) and prints {"setup_s": ...} on its last line.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL = HERE / "pool.json"
FIXTURES = HERE.parent / "tests" / "data"

WORKLOADS = ("portfolio", "rl-srs", "relterm")


# ------------------------------------------------------------ terms as text


def term_text(t) -> str:
    if isinstance(t, str):
        return t
    if len(t) == 1:
        return t[0]
    return f"{t[0]}({','.join(term_text(a) for a in t[1:])})"


def _vars(t, out: list) -> list:
    if isinstance(t, str):
        if t not in out:
            out.append(t)
    else:
        for a in t[1:]:
            _vars(a, out)
    return out


def trs_text(rules) -> str:
    names: list = []
    for lhs, _ in rules:
        _vars(lhs, names)
    lines = [f"(VAR {' '.join(sorted(names))})"] if names else []
    lines.append("(RULES")
    lines += [f"  {term_text(l)} -> {term_text(r)}" for l, r in rules]
    lines.append(")")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ families
#
# Terms use the checker's representation: a variable is a str, an
# application a tuple (symbol, *args). Each drawer returns a rule list.

VARS = ("x", "y", "z", "u", "w") + tuple(f"x{i}" for i in range(1, 12))


def _rand_term(rng, symbols, variables, depth):
    leaves = [(s, 0) for s, n in symbols if n == 0]
    if depth <= 0 or rng.random() < 0.25:
        pick = rng.choice(leaves + [(v, -1) for v in variables]) if variables or leaves \
            else None
        if pick is None:
            raise ValueError("no leaf available")
        name, arity = pick
        return name if arity == -1 else (name,)
    name, arity = rng.choice(symbols)
    return (name, *(_rand_term(rng, symbols, variables, depth - 1) for _ in range(arity)))


def _pattern(rng, symbols, depth, fresh, linear=True):
    """A random lhs argument; variables come from `fresh` (consumed)."""
    if depth <= 0 or rng.random() < 0.4:
        if not linear and fresh[1] and rng.random() < 0.5:
            return rng.choice(fresh[1])
        v = fresh[0].pop(0)
        fresh[1].append(v)
        return v
    name, arity = rng.choice(symbols)
    return (name, *(_pattern(rng, symbols, depth - 1, fresh, linear) for _ in range(arity)))


def _signature(rng, n_cons, n_defs, max_arity=2):
    cons = [("c0", 0)] + [(f"c{i}", rng.choice([0, 1, 1, 2][: max_arity + 2]))
                          for i in range(1, n_cons)]
    defs = [(f"f{i}", rng.randint(1, max_arity)) for i in range(n_defs)]
    return cons, defs


def draw_orthogonal(rng):
    """Left-linear constructor systems whose left sides pairwise differ in
    the head constructor of the first argument: no overlaps."""
    cons, defs = _signature(rng, rng.randint(2, 4), rng.randint(1, 3))
    rules = []
    for f, arity in defs:
        for c, c_arity in rng.sample(cons, rng.randint(1, len(cons))):
            fresh = list(VARS)
            first = (c, *(fresh.pop(0) for _ in range(c_arity)))
            rest = [fresh.pop(0) for _ in range(arity - 1)]
            lhs = (f, first, *rest)
            rhs = _rand_term(rng, cons + defs, _vars(lhs, []), rng.randint(1, 3))
            rules.append((lhs, rhs))
    return rules


def draw_terminating(rng, left_linear=True):
    """Systems terminating by a lexicographic path order: each right side
    uses only symbols below its left root, and left sides overlap at the
    root, so critical pairs exist."""
    cons, defs = _signature(rng, rng.randint(2, 3), rng.randint(2, 3))
    rules = []
    for k, (f, arity) in enumerate(defs):
        below = cons + defs[:k]
        for _ in range(rng.randint(1, 3)):
            fresh = [list(VARS), []]
            args = tuple(_pattern(rng, below, rng.randint(0, 2), fresh, left_linear)
                         for _ in range(arity))
            lhs = (f, *args)
            rhs = _rand_term(rng, below, _vars(lhs, []), rng.randint(1, 3))
            if rhs != lhs and (lhs, rhs) not in rules:
                rules.append((lhs, rhs))
    return rules


def draw_shortcut(rng):
    """Terminating constructor systems without overlaps plus shortcut rules
    s -> t, where t is the normal form of s. Each shortcut overlaps the rule
    it bypasses, and every critical pair joins at a common normal form."""
    from checker import is_normal_form, reducts

    cons, defs = _signature(rng, rng.randint(2, 3), rng.randint(2, 3))
    rules = []
    for k, (f, arity) in enumerate(defs):
        below = cons + defs[:k]
        for c, c_arity in rng.sample(cons, rng.randint(1, len(cons))):
            fresh = list(VARS)
            lhs = (f, (c, *(fresh.pop(0) for _ in range(c_arity))),
                   *(fresh.pop(0) for _ in range(arity - 1)))
            rules.append((lhs, _rand_term(rng, below, _vars(lhs, []), rng.randint(1, 3))))
    for _ in range(rng.randint(1, 3)):
        lhs, _ = rng.choice(rules)
        ground = {v: _rand_term(rng, cons, [], rng.randint(0, 2))
                  for v in _vars(lhs, []) if rng.random() < 0.7}
        s = _substitute(ground, lhs)
        t = s
        while not is_normal_form(rules, t):
            t = reducts(rules, t)[0]
        if s != t and (s, t) not in rules:
            rules.append((s, t))
    return rules


def _substitute(sigma, t):
    if isinstance(t, str):
        return sigma.get(t, t)
    return (t[0], *(_substitute(sigma, a) for a in t[1:]))


def draw_stream(rng):
    """Variants of the infinite-stream system: left-linear, nonterminating,
    confluent by relative termination of the critical-pair steps."""
    rules = [
        (("nat",), (":", ("0",), ("inc", ("nat",)))),
        (("hd", (":", "x", "y")), "x"),
        (("tl", (":", "x", "y")), "y"),
        (("inc", (":", "x", "y")), (":", ("s", "x"), ("inc", "y"))),
        (("inc", ("tl", ("nat",))), ("tl", ("inc", ("nat",)))),
    ]
    extras = [
        (("d", (":", "x", "y")), (":", "x", (":", "x", ("d", "y")))),
        (("sc", (":", "x", "y")), ("hd", "y")),
        (("inc", ("hd", ("nat",))), ("hd", ("inc", ("nat",)))),
        (("tl", ("tl", ("nat",))), ("tl", (":", ("s", ("0",)), ("inc", ("nat",))))),
        (("dr", (":", "x", "y")), "y"),
    ]
    return rules + rng.sample(extras, rng.randint(0, 2))


def draw_nested(rng):
    """Variants of nested_g: a duplicating rule over a nonterminating one."""
    b = rng.choice([("a",), ("b",)])
    rules = [
        (("f", ("g", "x")), ("f", ("h", "x", "x"))),
        (("g", ("a",)), ("g", ("g", ("a",)))),
        (("h", ("a",), ("a",)), ("g", ("g", ("a",)))),
    ]
    extras = [
        (("h", ("b",), ("b",)), ("g", b)),
        (("k", ("g", "x")), ("k", "x")),
        (("g", ("b",)), ("a",)),
    ]
    return rules + rng.sample(extras, rng.randint(0, 2))


def draw_left_linear(rng, max_rules=5):
    """Random left-linear systems, terminating or not."""
    cons, defs = _signature(rng, rng.randint(1, 3), rng.randint(1, 3))
    symbols = cons + defs
    rules = []
    for _ in range(rng.randint(2, max_rules)):
        f, arity = rng.choice(defs)
        fresh = [list(VARS), []]
        lhs = (f, *(_pattern(rng, symbols, rng.randint(0, 2), fresh) for _ in range(arity)))
        rhs = _rand_term(rng, symbols, _vars(lhs, []), rng.randint(1, 3))
        if rhs != lhs and (lhs, rhs) not in rules:
            rules.append((lhs, rhs))
    return rules


def draw_srs(rng):
    """Linear string rewriting systems: unary symbols, 3 to 7 rules."""
    alphabet = ["a", "b", "c"][: rng.randint(2, 3)]
    rules: list = []
    n = rng.randint(3, 7)
    while len(rules) < n:
        lhs = [rng.choice(alphabet) for _ in range(rng.randint(1, 2))]
        rhs = [rng.choice(alphabet) for _ in range(rng.randint(0, 2))]
        if lhs != rhs and (lhs, rhs) not in rules:
            rules.append((lhs, rhs))
    return [(_word(l), _word(r)) for l, r in rules]


def _word(letters, var="x"):
    t = var
    for c in reversed(letters):
        t = (c, t)
    return t


# ------------------------------------------------------------ instances


def _mirror_srs(text: str) -> str:
    """The mirror image of a string rewriting system: every word reversed."""
    out = []
    for line in text.splitlines():
        if "->" not in line:
            out.append(line)
            continue
        sides = []
        for side in line.split("->"):
            letters = re.findall(r"[^\s(),]+", side)
            var, word = letters[-1], letters[:-1]
            sides.append(term_text(_word(list(reversed(word)), var)))
        out.append(f"  {sides[0]} -> {sides[1]}")
    return "\n".join(out) + "\n"


def instantiate(entry: dict, rng: random.Random) -> str:
    """One seeded instance of a pool entry."""
    text = entry["text"]
    if entry.get("mirror_ok") and rng.random() < 0.5:
        text = _mirror_srs(text)
    return text


def build(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the workload's corpus for `seed` into `out`; return the manifest."""
    pool = json.loads(POOL.read_text())[workload]
    rng = random.Random(f"{workload}:{seed}")
    entries = list(enumerate(pool))
    rng.shuffle(entries)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, (pool_index, entry) in enumerate(entries):
        path = out / f"{i:03d}.trs"
        path.write_text(instantiate(entry, rng))
        manifest.append({
            "id": f"{i:03d}",
            "pool_index": pool_index,
            "file": path.name,
            "family": entry["family"],
            "criterion": entry["criterion"],
            "expect": entry.get("expect"),
        })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def fixture_entries() -> list[dict]:
    return [
        {"family": "fixture", "criterion": "auto", "name": p.stem, "text": p.read_text()}
        for p in sorted(FIXTURES.glob("*.trs"))
    ]


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import ddrt.tpdb  # the set-up users pay: the prover's import

    manifest = build(args.workload, args.seed, args.out)
    for item in manifest:
        ddrt.tpdb.parse_trs((args.out / item["file"]).read_text())
    print(json.dumps({"problems": len(manifest), "setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
