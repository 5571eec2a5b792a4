"""Independent checkers and oracles shared by the test modules.

Everything here re-derives results from first principles (direct recursion,
exhaustive enumeration) instead of reusing the library's own search code, so
that a passing replay actually certifies a verdict.
"""

from __future__ import annotations

import argparse
import json
import random
from itertools import product

from ddrt import TRS
from ddrt.cli import CRITERION_CHOICES
from ddrt.critical_pairs import Overlap, cps, critical_pairs
from ddrt.errors import ResourceLimitError
from ddrt.interpretations import RelTermProblem, compare_forms, interpret_term
from ddrt.joinability import JoinInstance, join_instances
from ddrt.prover import Config
from ddrt.rewriting import (
    DEFAULT_NODE_BUDGET,
    Rule,
    fresh_trs,
    is_normal_form,
    one_step_reducts,
    rename_apart,
    split_duplicating,
)
from ddrt.rule_labeling import And, Formula, Geq, Gt, Or, build_rl
from ddrt.terms import (
    Fun,
    Position,
    Subst,
    Term,
    Var,
    apply_subst,
    iter_positions,
    match,
    unify,
    variables,
)


def _jsonify(obj):
    """Proof details as JSON values: dict keys as `str(k)`, tuples as lists,
    sets as sorted lists, and other objects through `to_json()` or `str()`."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonify(x) for x in obj)
    to_json = getattr(obj, "to_json", None)
    return str(obj) if to_json is None else to_json()


def trace_by_json(kind: str, criterion: str, details: dict) -> str:
    """The proof trace of a verdict as `json.dumps` writes it: the oracle
    of the CLI's own writer."""
    return json.dumps(
        {"verdict": kind, "criterion": criterion, "details": _jsonify(details)},
        indent=2,
        sort_keys=True,
    )


def build_parser() -> argparse.ArgumentParser:
    """The command line as `argparse` read it: the oracle of `ddrt.cli.parse_args`.

    `vars(build_parser().parse_args(argv))` is what `parse_args(argv)`
    returns, except that argparse also takes a prefix of a flag for the flag
    (`--crit` for `--criterion`) and raises SystemExit where `parse_args`
    raises UsageError.
    """
    parser = argparse.ArgumentParser(
        prog="ddrt",
        description="Confluence prover for first-order term rewrite systems "
        "(TPDB plain format).",
    )
    defaults = Config()
    parser.add_argument("files", nargs="*", metavar="FILE", help="a .trs problem file")
    parser.add_argument(
        "--criterion", choices=CRITERION_CHOICES, default="auto",
        help="restrict to one criterion (default: run all)",
    )
    parser.add_argument("--k", type=int, default=defaults.k,
                        help="join bound (default %(default)s)")
    parser.add_argument("--timeout", type=float, default=defaults.timeout,
                        help="global timeout in seconds (default %(default)s)")
    parser.add_argument("--dim-max", type=int, default=defaults.dim_max,
                        help="maximum interpretation dimension (default %(default)s)")
    parser.add_argument("--coef-max", type=int, default=defaults.coef_max,
                        help="maximum matrix coefficient (default %(default)s)")
    parser.add_argument(
        "--external-prover", default=None, metavar="CMD",
        help="external termination prover command (env DDRT_EXTERNAL_PROVER)",
    )
    parser.add_argument(
        "--proof", action="store_true", help="print a JSON proof trace after the verdict"
    )
    parser.add_argument(
        "--batch", default=None, metavar="DIR",
        help="prove every .trs file in DIR and print summary counts",
    )
    return parser


def eval_formula(f: Formula, levels: dict[int, int]) -> bool:
    """Evaluate a precedence formula directly; Geq is the reflexive closure."""
    if isinstance(f, And):
        return all(eval_formula(p, levels) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(p, levels) for p in f.parts)
    if isinstance(f, Gt):
        return levels[f.a] > levels[f.b]
    if isinstance(f, Geq):
        return f.a == f.b or levels[f.a] > levels[f.b]
    raise TypeError(f"unknown formula node {f!r}")


def _indices(f: Formula) -> set[int]:
    if isinstance(f, (Gt, Geq)):
        return {f.a, f.b}
    if isinstance(f, (And, Or)):
        return set().union(*map(_indices, f.parts))
    return set()


def contradictory_chain(m: int) -> Formula:
    """(0>1|1>0) & (1>2|2>1) & ... & (m-2>m-1) & (m-1>m-2) over the indices
    0 to m-1: unsatisfiable, and the precedence search on it grows
    exponentially in m."""
    choices = [Or((Gt(i, i + 1), Gt(i + 1, i))) for i in range(m - 2)]
    return And((*choices, Gt(m - 2, m - 1), Gt(m - 1, m - 2)))


def solve_by_enumeration(f: Formula, n_rules: int) -> dict[int, int] | None:
    """The lexicographically least level map satisfying f, by trying every
    map of the m involved indices (in increasing order) into levels 0..m-1;
    indices not in f get level 0. None if no map satisfies f."""
    involved = sorted(_indices(f))
    m = len(involved)
    assignment = dict.fromkeys(range(n_rules), 0)
    for levels in product(range(m), repeat=m):
        assignment.update(zip(involved, levels))
        if eval_formula(f, assignment):
            return assignment
    return None


def strict_orders(indices: tuple[int, ...]):
    """All strict partial orders on `indices` as sets of (greater, smaller)."""
    pairs = [(a, b) for a in indices for b in indices if a != b]
    for bits in product((False, True), repeat=len(pairs)):
        order = {p for p, keep in zip(pairs, bits) if keep}
        transitive = all(
            (a, c) in order
            for a, b in order
            for b2, c in order
            if b == b2 and a != c
        )
        acyclic = not any((b, a) in order for a, b in order)
        if transitive and acyclic:
            yield order


def eval_formula_order(f: Formula, order: set[tuple[int, int]]) -> bool:
    """Evaluate a precedence formula against an explicit strict order."""
    if isinstance(f, And):
        return all(eval_formula_order(p, order) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula_order(p, order) for p in f.parts)
    if isinstance(f, Gt):
        return (f.a, f.b) in order
    if isinstance(f, Geq):
        return f.a == f.b or (f.a, f.b) in order
    raise TypeError(f"unknown formula node {f!r}")


def replay_steps(
    R: TRS, start: Term, labels: tuple[int, ...], trace
) -> Term:
    """Re-validate a label/trace pair step by step via one_step_reducts."""
    current = start
    assert len(labels) == len(trace)
    for label, (pos, nxt) in zip(labels, trace):
        assert (label, pos, nxt) in one_step_reducts(R, current), (
            f"claimed step {label}@{pos} from {current} to {nxt} is not a rewrite step"
        )
        current = nxt
    return current


def replay_join(R: TRS, left: Term, right: Term, inst) -> None:
    """Both traces of a join instance must end at the claimed meet."""
    assert replay_steps(R, left, inst.left_seq, inst.left_trace) == inst.meet
    assert replay_steps(R, right, inst.right_seq, inst.right_trace) == inst.meet


def replay_rounds(chain: list[dict], strict, weak) -> tuple[list, list]:
    """Certify the rounds of a rule-removal chain that starts from the rules
    `strict` and `weak`; returns what remains.

    Every round must weakly orient all remaining rules and strictly orient
    all removed rules; bookkeeping between rounds must be consistent.
    """
    strict, weak = list(strict), list(weak)
    for entry in chain:
        assert list(entry["strict_before"]) == strict
        assert list(entry["weak_before"]) == weak
        M = entry["interpretation"]
        removed = list(entry["removed"])
        assert removed, "a round must remove at least one rule"
        for rule in strict + weak:
            cmp = compare_forms(interpret_term(M, rule.lhs), interpret_term(M, rule.rhs))
            assert cmp in ("strict", "weak"), f"{rule} not weakly oriented"
        for rule in removed:
            assert rule in strict + weak
            cmp = compare_forms(interpret_term(M, rule.lhs), interpret_term(M, rule.rhs))
            assert cmp == "strict", f"removed rule {rule} not strictly oriented"
        strict = [r for r in strict if r not in removed]
        weak = [r for r in weak if r not in removed]
    return strict, weak


def replay_relative(problem: RelTermProblem, details: dict) -> None:
    """Certify the relative-termination part of a YES verdict on `problem`."""
    strict, weak = replay_rounds(details["chain"], problem.strict.rules, problem.weak.rules)
    union = details.get("union_termination")
    if union is None:
        assert not strict, "chain ended with strict rules left over"
        return
    # removal stalled but the remaining union was proved terminating outright
    assert union != "external", "external proofs cannot be replayed"
    assert union, "an empty union proof orients nothing"
    assert {(r.lhs, r.rhs) for r in union[0]["strict_before"]} == {
        (r.lhs, r.rhs) for r in strict + weak
    }, "union proof covers different rules than what remained"
    left_strict, left_weak = replay_rounds(union, union[0]["strict_before"], ())
    assert not left_strict and not left_weak, "union chain left rules unoriented"


def dd1_problem(R: TRS) -> RelTermProblem:
    """The relative problem of the duplication split on R: the critical pair
    steps and the duplicating rules against the other rules."""
    dup, nondup = split_duplicating(R)
    return RelTermProblem(fresh_trs([*cps(critical_pairs(R)).rules, *dup.rules]), nondup)


def rl_constraint(R: TRS, k: int) -> tuple[Formula, list[list[JoinInstance]]]:
    """The rule-labeling constraint of R at join bound k, with the minimal
    join instances of each critical pair that it is built from."""
    pairs = critical_pairs(R)
    instances = [join_instances(R, cp.left, cp.right, k) for cp in pairs]
    return build_rl(pairs, instances), instances


def make_random_term(
    rng: random.Random,
    signature: list[tuple[str, int]],
    variables: list[str],
    depth: int,
) -> Term:
    """A random term of bounded depth over the given signature."""
    leaves = [(v, -1) for v in variables] + [(s, 0) for s, n in signature if n == 0]
    assert leaves, "signature needs a constant or a variable"
    if depth <= 0:
        name, arity = rng.choice(leaves)
        return Var(name) if arity == -1 else Fun(name, ())
    name, arity = rng.choice(signature + [(v, -1) for v in variables])
    if arity == -1:
        return Var(name)
    args = tuple(
        make_random_term(rng, signature, variables, depth - 1) for _ in range(arity)
    )
    return Fun(name, args)


def positions(t: Term) -> tuple[set[Position], set[Position]]:
    """Partition the positions of t into function positions and variable positions."""
    fun_pos: set[Position] = set()
    var_pos: set[Position] = set()
    for p, s in iter_positions(t):
        (fun_pos if isinstance(s, Fun) else var_pos).add(p)
    return fun_pos, var_pos


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, Fun) or not 1 <= i <= len(t.args):
            raise ValueError(f"invalid position {p} in {t}")
        t = t.args[i - 1]
    return t


def check_normal_form(R: TRS, t: Term) -> bool:
    return is_normal_form(R, t)


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def embedding_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True iff a is a (not necessarily contiguous) subsequence of b."""
    it = iter(b)
    return all(x in it for x in a)


def reducts_within(
    R: TRS, t: Term, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> set[Term]:
    """All terms reachable from t in at most k steps (breadth-first)."""
    seen: set[Term] = {t}
    frontier = [t]
    for _ in range(k):
        nxt: list[Term] = []
        for s in frontier:
            for _, _, u in one_step_reducts(R, s):
                if u not in seen:
                    seen.add(u)
                    if len(seen) > budget:
                        raise ResourceLimitError(
                            f"reducts_within exceeded {budget} terms"
                        )
                    nxt.append(u)
        if not nxt:
            break
        frontier = nxt
    return seen


def multistep_reducts(
    R: TRS, t: Term, budget: int = DEFAULT_NODE_BUDGET
) -> set[Term]:
    """The set of complete-development reducts of t.

    Clauses: a variable develops to itself; developments are closed under
    congruence on arguments; and an lhs instance develops to the rhs under a
    pointwise development of the matching substitution.
    """
    memo: dict[Term, frozenset[Term]] = {}
    count = 0

    def go(s: Term) -> frozenset[Term]:
        nonlocal count
        cached = memo.get(s)
        if cached is not None:
            return cached
        if isinstance(s, Var):
            result = frozenset({s})
            memo[s] = result
            return result
        arg_sets = [go(a) for a in s.args]
        results: set[Term] = {
            Fun(s.symbol, combo) for combo in product(*arg_sets)
        } if s.args else {s}
        for r in R.rules:
            rule = rename_apart(r, variables(s))
            sigma = match(rule.lhs, s)
            if sigma is None:
                continue
            xs = sorted(variables(rule.lhs))
            choice_sets = [go(sigma.get(x, Var(x))) for x in xs]
            for choice in product(*choice_sets):
                tau: Subst = dict(zip(xs, choice))
                results.add(apply_subst(tau, rule.rhs))
        count += len(results)
        if count > budget:
            raise ResourceLimitError(f"multistep_reducts exceeded {budget} nodes")
        result = frozenset(results)
        memo[s] = result
        return result

    return set(go(t))


def candidates_by_filter(
    arity: int, dim: int, coef_max: int, const_max: int, weight_cap: int | None
) -> list[tuple[int, tuple]]:
    """Interpretation candidates of one symbol as (weight, (matrices,
    constant)), by enumerating the whole space, dropping what exceeds the
    cap and sorting stably by weight."""
    entries = range(coef_max + 1)
    mats = [
        tuple(tuple(row[i * dim : (i + 1) * dim]) for i in range(dim))
        for row in product(entries, repeat=dim * dim)
    ]
    mats = [m for m in mats if m[0][0] >= 1]
    consts = [tuple(v) for v in product(range(const_max + 1), repeat=dim)]

    def weight(combo, const):
        return sum(x for m in combo for row in m for x in row) + sum(const)

    out = [
        (weight(combo, const), (combo, const))
        for combo in product(mats, repeat=arity)
        for const in consts
        if weight_cap is None or weight(combo, const) <= weight_cap
    ]
    out.sort(key=lambda c: c[0])
    return out


def candidates_by_prefixes(
    arity: int, dim: int, coef_max: int, const_max: int, weight_cap: int | None
) -> tuple[list[int], list[tuple[int, ...]]]:
    """The weights and flat entries of the interpretation candidates of one
    symbol, built as `interpretations._candidates` once built them: every
    prefix under the cap is extended by tuple concatenation, one entry at a
    time, and the rows are sorted stably by weight. Time grows with about the
    square of the number of entries."""
    matrix = [(1, coef_max)] + [(0, coef_max)] * (dim * dim - 1)
    bounds = matrix * arity + [(0, const_max)] * dim
    if weight_cap is None:
        weight_cap = sum(hi for _, hi in bounds)
    floor = [0] * (len(bounds) + 1)
    for i in range(len(bounds) - 1, -1, -1):
        floor[i] = floor[i + 1] + bounds[i][0]
    prefixes: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for i, (lo, hi) in enumerate(bounds):
        room = weight_cap - floor[i + 1]
        prefixes = [
            (prefix + (x,), total + x)
            for prefix, total in prefixes
            for x in range(lo, min(hi, room - total) + 1)
        ]
    prefixes.sort(key=lambda c: c[1])
    return [w for _, w in prefixes], [v for v, _ in prefixes]


def variants(r1: Rule, r2: Rule) -> bool:
    """r1 and r2 are variants iff each rule matches the other as a whole."""
    pack1 = Fun("", (r1.lhs, r1.rhs))
    pack2 = Fun("", (r2.lhs, r2.rhs))
    return match(pack1, pack2) is not None and match(pack2, pack1) is not None


def overlaps_by_scan(R: TRS) -> list[Overlap]:
    """All overlaps of R by trying every rule at every function position of
    every left-hand side, renaming the inner rule apart each time. Root
    overlaps of a rule with a variant of itself are left out."""
    out: list[Overlap] = []
    for outer in R.rules:
        fun_pos, _ = positions(outer.lhs)
        taken = variables(outer.lhs) | variables(outer.rhs)
        for pos in sorted(fun_pos):
            for inner in R.rules:
                if pos == () and variants(inner, outer):
                    continue
                inner_variant = rename_apart(inner, taken)
                mgu = unify(inner_variant.lhs, subterm_at(outer.lhs, pos))
                if mgu is not None:
                    out.append(Overlap(inner_variant, pos, outer, mgu))
    return out
