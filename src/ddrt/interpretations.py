"""Relative termination via rule removal with matrix interpretations.

Interpretations are linear functions over natural-number vectors: each symbol
gets one square matrix per argument and a constant vector. The upper-left
entry of every argument matrix is at least 1, which keeps the induced strict
order closed under contexts. A term denotes a linear form (matrix coefficient
per variable plus a constant vector); rules are oriented by comparing forms
entrywise, strictly when the first constant component decreases.
"""

from __future__ import annotations

import time
from functools import cache, wraps
from itertools import product

from .errors import Meter, ResourceLimitError, Timeout
from .rewriting import DEFAULT_SEARCH_BUDGET, TRS, Rule, fresh_trs, pumps
from .terms import Frozen, Fun, Term, Var, match, subterms
from .verdict import Verdict, maybe, yes

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]

_set = object.__setattr__


class MatrixInterpretation(Frozen):
    """`funcs` maps each symbol to its argument matrices and constant."""

    __slots__ = ("dim", "funcs")

    def __init__(self, dim: int, funcs: dict[str, tuple[tuple[Matrix, ...], Vector]]) -> None:
        for symbol, (mats, _) in funcs.items():
            for m in mats:
                if m[0][0] < 1:
                    raise ValueError(f"{symbol}: argument matrix with zero upper-left entry")
        _set(self, "dim", dim)
        _set(self, "funcs", funcs)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "funcs": {
                s: {"matrices": [[list(row) for row in m] for m in mats],
                    "const": list(const)}
                for s, (mats, const) in sorted(self.funcs.items())
            },
        }


def _signature(rules: list[Rule]) -> tuple[dict[str, int], list[set[str]]]:
    """The arity of every function symbol of the rules, and each rule's
    function symbols."""
    sig: dict[str, int] = {}
    rule_symbols: list[set[str]] = []
    for r in rules:
        symbols: set[str] = set()
        for t in (r.lhs, r.rhs):
            for u in subterms(t):
                if isinstance(u, Fun):
                    sig[u.symbol] = len(u.args)
                    symbols.add(u.symbol)
        rule_symbols.append(symbols)
    return sig, rule_symbols


class _Candidates(Frozen):
    """Interpretation candidates for one symbol, sparsest first.

    Candidate i has entry sum weights[i], argument matrices mats[i] of shape
    (arity, dim, dim) and constant consts[i]. Nothing here is writable, since
    the cache hands the same object to every search.
    """

    __slots__ = ("weights", "mats", "consts")

    def __init__(self, weights: tuple[int, ...], mats: np.ndarray, consts: np.ndarray) -> None:
        _set(self, "weights", weights)
        _set(self, "mats", mats)
        _set(self, "consts", consts)

    def function(self, i: int) -> tuple[tuple[Matrix, ...], Vector]:
        # Python ints: numpy integers would print differently in proofs
        mats = tuple(tuple(map(tuple, m)) for m in self.mats[i].tolist())
        return mats, tuple(self.consts[i].tolist())


def _cached_by_shape(build):
    """Cache `build` by its positional arguments, the shape, as `lru_cache`
    would; the deadline stays out of the key. A build the deadline stops
    raises, so it is not kept."""
    cache: dict[tuple, _Candidates] = {}

    @wraps(build)
    def cached(*shape, deadline: float | None = None) -> _Candidates:
        if shape not in cache:
            cache[shape] = build(*shape, deadline=deadline)
        return cache[shape]

    return cached


# rows handled between two spends of the candidate build's meter
_CHUNK = 4096


@_cached_by_shape
def _candidates(arity: int, dim: int, coef_max: int, const_max: int,
                weight_cap: int | None, deadline: float | None = None) -> _Candidates:
    """Every candidate whose entries sum to at most weight_cap (no cap when
    None), ordered by weight and then lexicographically by the flat entries
    (argument matrices row by row, then the constant).

    Sparse candidates come first: solutions tend to use few nonzero entries,
    and the node budget cuts off the dense tail anyway. Only prefixes that
    still fit under the cap are extended, so the cap bounds the work. The
    prefixes grow one entry at a time, in lexicographic order, and each one
    keeps only its last entry and the index of its parent prefix, so a build
    costs time linear in the prefixes; the rows are gathered once, in a
    stable sort by weight. Each chunk of rows spends one unit of a `Meter`
    with no limit, so the build stops at the deadline.
    """
    import numpy as np

    spend = Meter("candidate build", "chunks", None, deadline).spend

    def spend_rows(n: int) -> None:
        for _ in range(0, n, _CHUNK):
            spend()

    matrix = [(1, coef_max)] + [(0, coef_max)] * (dim * dim - 1)
    bounds = matrix * arity + [(0, const_max)] * dim
    if weight_cap is None:
        weight_cap = sum(hi for _, hi in bounds)
    # least sum of the entries from position i on
    floor = [0] * (len(bounds) + 1)
    for i in range(len(bounds) - 1, -1, -1):
        floor[i] = floor[i + 1] + bounds[i][0]
    small = np.min_scalar_type(max(hi for _, hi in bounds))  # holds every entry
    totals = np.zeros(1, dtype=np.int64)  # the weight of each prefix
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (parents, last entries)
    for i, (lo, hi) in enumerate(bounds):
        room = weight_cap - floor[i + 1]
        counts = np.maximum(np.minimum(hi, room - totals) - lo + 1, 0)
        parents = np.repeat(np.arange(len(totals)), counts)
        # a prefix's children take the entries lo, lo + 1, ... in turn
        firsts = np.repeat(np.cumsum(counts) - counts - lo, counts)
        entries = np.arange(len(parents)) - firsts
        totals = totals[parents] + entries
        levels.append((parents, entries.astype(small)))
        spend_rows(len(parents))
    order = np.argsort(totals, kind="stable")
    # each entry's column in the final order, then one copy into rows
    columns = np.empty((len(bounds), len(order)), dtype=small)
    rows = order
    for i in range(len(bounds) - 1, -1, -1):
        parents, entries = levels.pop()
        columns[i] = entries[rows]
        rows = parents[rows]
        spend_rows(len(rows))
    flat = columns.T.astype(np.int64, order="C")
    split = arity * dim * dim
    mats = flat[:, :split].reshape(len(order), arity, dim, dim)
    consts = flat[:, split:]
    mats.flags.writeable = consts.flags.writeable = False
    return _Candidates(tuple(totals[order].tolist()), mats, consts)


@cache
def _row0_choices(arity: int, dim: int, coef_max: int,
                  row_cap: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The row-0 choices for the argument matrices of a symbol of `arity`
    (first entry at least 1) whose entries sum to at most row_cap, one row
    per argument, cached by shape. The rows are read-only, since every
    search shares them."""
    import numpy as np

    rows = [np.array((first,) + rest, dtype=np.int64)
            for first in range(1, coef_max + 1)
            for rest in product(range(coef_max + 1), repeat=dim - 1)]
    for r in rows:
        r.flags.writeable = False
    return tuple(choice for choice in product(rows, repeat=arity)
                 if sum(int(r.sum()) for r in choice) <= row_cap)


def _assignment_plan(
    sig: dict[str, int],
    rule_symbols: list[set[str]],
    n_cands: dict[str, int],
) -> tuple[list[str], list[int], list[list[int]]]:
    """Symbol assignment order (complete the cheapest rule first, so that
    orientation constraints prune the search as early as possible), the depth
    at which each rule completes, and the rules completing at each depth.
    Ties between symbols go by name, so the plan does not depend on how
    strings hash."""

    def by_count(s: str) -> tuple[int, str]:
        return n_cands[s], s

    order: list[str] = []
    assigned: set[str] = set()
    remaining = [i for i in range(len(rule_symbols)) if rule_symbols[i]]
    while remaining:
        def cost(i: int) -> tuple[int, int]:
            prod = 1
            for s in rule_symbols[i] - assigned:
                prod *= n_cands[s]
            return prod, i

        best = min(remaining, key=cost)
        order.extend(sorted(rule_symbols[best] - assigned, key=by_count))
        assigned |= rule_symbols[best]
        remaining = [i for i in remaining if rule_symbols[i] - assigned]
    order.extend(sorted(sig.keys() - assigned, key=by_count))
    depth_of = {s: d for d, s in enumerate(order)}
    completes_at = [max(depth_of[s] for s in syms) for syms in rule_symbols]
    rules_at_depth: list[list[int]] = [[] for _ in order]
    for i, d in enumerate(completes_at):
        rules_at_depth[d].append(i)
    return order, completes_at, rules_at_depth


def search_interpretation(
    strict_rules: list[Rule],
    weak_rules: list[Rule],
    dim: int,
    coef_max: int,
    const_max: int,
    budget: int,
    weight_extra: int | None,
    deadline: float | None = None,
) -> tuple[MatrixInterpretation, set[int]] | None:
    """Find an interpretation weakly orienting every rule and strictly
    orienting at least one strict rule.

    Returns the interpretation and the positions into strict + weak of ALL
    strictly oriented rules, or None when the bounded space holds no such
    interpretation; rule indices are not used because the two sides of a
    relative problem (e.g. CPS(R) versus R) number their rules independently.
    Each node spends one unit of a `Meter` of `budget` nodes.

    Rule orientations are checked for all candidates of a symbol at once with
    numpy (batch axis = candidate index). A weight_extra of w limits each
    symbol to candidates whose entries sum to at most arity + w, which keeps
    higher dimensions tractable, and the total entry weight is then deepened
    one step at a time so sparse solutions surface long before the candidate
    product is exhausted.
    """
    if not strict_rules:
        return None
    # numpy loads on the first search: criteria that never search do not pay for it
    import numpy as np

    all_rules = strict_rules + weak_rules
    sig, rule_symbols = _signature(all_rules)
    n_strict = len(strict_rules)

    cands = {
        s: _candidates(
            sig[s], dim, coef_max, const_max,
            None if weight_extra is None else sig[s] + weight_extra, deadline=deadline,
        )
        for s in sig
    }
    order, completes_at, rules_at_depth = _assignment_plan(
        sig, rule_symbols, {s: len(cands[s].weights) for s in sig}
    )
    # the masks of rule i batch the symbol that completes it; its other
    # symbols, sorted, key the assignments the masks depend on
    other_syms = [sorted(symbols - {order[d]})
                  for symbols, d in zip(rule_symbols, completes_at)]
    suffix_min = [0] * (len(order) + 1)
    for d in range(len(order) - 1, -1, -1):
        suffix_min[d] = suffix_min[d + 1] + cands[order[d]].weights[0]

    chosen: dict[str, int] = {}  # symbol -> candidate index
    # the form of every variable: shared, so nothing may write to it
    eye, zero = np.eye(dim, dtype=np.int64), np.zeros(dim, dtype=np.int64)
    eye.flags.writeable = zero.flags.writeable = False
    spend = Meter("interpretation search", "nodes", budget, deadline).spend
    mask_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def batch_forms(t: Term, batched: str) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Linear form of t where the batched symbol ranges over all its
        candidates; arrays carry a leading batch axis wherever it occurs."""
        if isinstance(t, Var):
            return {t.name: eye}, zero
        cand = cands[t.symbol]
        if t.symbol == batched:
            m, const = cand.mats, cand.consts
        else:
            i = chosen[t.symbol]
            m, const = cand.mats[i], cand.consts[i]
        coeffs: dict[str, np.ndarray] = {}
        for k, arg in enumerate(t.args):
            sub_coeffs, sub_const = batch_forms(arg, batched)
            mk = m[..., k, :, :]
            const = const + (mk @ sub_const[..., :, None])[..., 0]
            for x, c in sub_coeffs.items():
                p = mk @ c
                coeffs[x] = coeffs[x] + p if x in coeffs else p
        return coeffs, const

    def rule_masks(i: int, batched: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-candidate weak/strict orientation masks for rule i, memoized on
        the assignments of the rule's other symbols."""
        key = (i, batched, tuple(chosen[s] for s in other_syms[i]))
        hit = mask_cache.get(key)
        if hit is not None:
            return hit
        n = len(cands[batched].weights)
        spend()
        rule = all_rules[i]
        lhs_coeffs, lhs_const = batch_forms(rule.lhs, batched)
        rhs_coeffs, rhs_const = batch_forms(rule.rhs, batched)
        ok = np.ones(n, dtype=bool)
        for x, r_coef in rhs_coeffs.items():
            diff = lhs_coeffs[x] - r_coef
            ok = ok & (diff >= 0).all(axis=(-1, -2))
        const_diff = lhs_const - rhs_const
        ok = ok & (const_diff >= 0).all(axis=-1)
        strict = ok & (const_diff[..., 0] >= 1)
        # ok starts at shape (n,), so both masks have one entry per candidate
        ok.flags.writeable = strict.flags.writeable = False
        mask_cache[key] = ok, strict
        return ok, strict

    last_sym = order[-1]
    last_depth = len(order) - 1

    def _root_only(i: int) -> tuple[Fun, Fun] | None:
        """The rule's sides when the last-assigned symbol heads both and
        occurs nowhere else; such rules admit existential elimination."""
        lhs, rhs = all_rules[i].lhs, all_rules[i].rhs
        if not (isinstance(lhs, Fun) and lhs.symbol == last_sym):
            return None
        if not (isinstance(rhs, Fun) and rhs.symbol == last_sym):
            return None
        for t in (*lhs.args, *rhs.args):
            for s in subterms(t):
                if isinstance(s, Fun) and s.symbol == last_sym:
                    return None
        return lhs, rhs

    root_only = {i: _root_only(i) for i in rules_at_depth[last_depth]}
    arity_last = sig[last_sym]
    row_cap = (
        arity_last * dim * coef_max if weight_extra is None
        else arity_last + weight_extra
    )
    row0_choices = _row0_choices(arity_last, dim, coef_max, row_cap)

    def lookahead_mask(i: int, batched: str, want_strict: bool) -> np.ndarray:
        """Over the batched symbol's candidates: can ANY candidate for the
        last symbol orient rule i (strictly if requested)? Sound
        overapproximation: rows below the first can always be zero, so only
        row 0 of the last symbol's matrices matters."""
        fixed = sorted(rule_symbols[i] - {last_sym, batched})
        key = (i, "exists", want_strict, batched, tuple(chosen[s] for s in fixed))
        hit = mask_cache.get(key)
        if hit is not None:
            return hit
        spend()
        lhs, rhs = root_only[i]
        left = [batch_forms(t, batched) for t in lhs.args]
        right = [batch_forms(t, batched) for t in rhs.args]
        exists = np.zeros(1, dtype=bool)
        need = 1 if want_strict else 0
        for rows in row0_choices:
            # row 0 of the oriented difference; deeper rows can be all-zero
            const0 = sum((lc * r).sum(axis=-1) for r, (_, lc) in zip(rows, left))
            const0 = const0 - sum(
                (rc * r).sum(axis=-1) for r, (_, rc) in zip(rows, right)
            )
            ok = const0 >= need
            for x in {v for c, _ in right for v in c}:
                lx = sum(r @ c[x] for r, (c, _) in zip(rows, left) if x in c)
                rx = sum(r @ c[x] for r, (c, _) in zip(rows, right) if x in c)
                ok = ok & ((lx - rx) >= 0).all(axis=-1)
            exists = exists | ok
        n = len(cands[batched].weights)
        result = np.broadcast_to(exists, (n,))
        mask_cache[key] = result
        return result

    cap_cut = False

    def dfs(
        target: int, depth: int, rem: int
    ) -> tuple[MatrixInterpretation, set[int]] | None:
        nonlocal cap_cut
        if depth == len(order):
            funcs = {s: cands[s].function(chosen[s]) for s in sig}
            # every rule's masks are cached from the depth where it completes
            strict_set = {i for i, d in enumerate(completes_at)
                          if rule_masks(i, order[d])[1][chosen[order[d]]]}
            return MatrixInterpretation(dim, funcs), strict_set
        symbol = order[depth]
        ok = None
        for i in rules_at_depth[depth]:
            weak_mask, strict_mask = rule_masks(i, symbol)
            mask = strict_mask if i == target else weak_mask
            ok = mask if ok is None else ok & mask
        if depth == last_depth - 1:
            for i in rules_at_depth[last_depth]:
                if root_only[i] is None:
                    continue
                mask = lookahead_mask(i, symbol, i == target)
                ok = mask if ok is None else ok & mask
        w_sym = cands[symbol].weights
        survivors = range(len(w_sym)) if ok is None else np.nonzero(ok)[0].tolist()
        w_rem = rem - suffix_min[depth + 1]
        for ci in survivors:
            w = w_sym[ci]
            if w > w_rem:
                cap_cut = True
                break
            spend()
            chosen[symbol] = ci
            found = dfs(target, depth + 1, rem - w)
            if found is not None:
                return found
            del chosen[symbol]
        return None

    targets = sorted(range(n_strict), key=lambda i: (completes_at[i], i))
    max_weight = sum(cands[s].weights[-1] for s in sig)
    # the full space needs a single sweep: at max_weight no branch is cut;
    # a capped space is deepened one total weight at a time
    caps = [max_weight] if weight_extra is None else range(suffix_min[0], max_weight + 1)
    try:
        for cap in caps:
            cap_cut = False
            for target in targets:
                found = dfs(target, 0, cap)
                if found is not None:
                    return found
            if not cap_cut:
                # no branch was cut off by the cap, so the space is exhausted
                return None
        return None
    finally:
        # dfs refers to itself, so these closures form a cycle that only the
        # cyclic collector frees: release the masks now
        mask_cache.clear()


def has_looping_rule(rules: list[Rule]) -> bool:
    """True if some rule rewrites its own lhs into a term containing an lhs
    instance, an immediate witness of nontermination."""
    return any(match(r.lhs, r.rhs) is not None or pumps(r) for r in rules)


def external_termination_check(
    R: TRS, command: str | None, deadline: float | None = None
) -> str:
    """Ask an external prover about termination of R; 'yes', 'no' or 'unknown'.

    The prover is stopped at `deadline`, a time.monotonic() value, and is not
    started once the deadline has passed. None sets no deadline.
    """
    if not R.rules:
        return "yes"
    import os
    import subprocess
    import tempfile

    from .tpdb import format_trs

    # capped: the wait reaches poll() in whole milliseconds, at most 2**31 - 1
    timeout = None if deadline is None else min(deadline - time.monotonic(), 1e6)
    if not command or (timeout is not None and timeout <= 0):
        return "unknown"
    try:
        fh = tempfile.NamedTemporaryFile("w", suffix=".trs", delete=False)
        try:
            with fh:
                fh.write(format_trs(R))
            proc = subprocess.run(
                command.split() + [fh.name],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        finally:
            os.unlink(fh.name)
        first = proc.stdout.splitlines()[0].strip() if proc.stdout else ""
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"
    if first == "YES":
        return "yes"
    if first == "NO":
        return "no"
    return "unknown"


def prove_relative_termination(
    strict: TRS,
    weak: TRS,
    dim_max: int = 3,
    coef_max: int = 1,
    budget: int = DEFAULT_SEARCH_BUDGET,
    external_command: str | None = None,
    deadline: float | None = None,
) -> Verdict:
    """Termination of strict/weak by repeated rule removal.

    Each round searches for an interpretation weakly orienting everything and
    strictly orienting part of the strict side; strictly oriented rules are
    removed from BOTH sides. An empty strict side concludes the proof. When
    removal stalls, plain termination of the union is attempted instead,
    last by the external prover. A search that passes `deadline` ends the
    method with the reason "timeout". The method is sound for YES only;
    failure yields MAYBE, never NO.
    """
    strict = list(strict.rules)
    weak = list(weak.rules)
    chain: list[dict] = []
    diagnostics: list[str] = []

    def timeout() -> Verdict:
        return maybe("relative-termination", reason="timeout",
                      diagnostics=diagnostics, chain=chain)

    if has_looping_rule(strict):
        return maybe(
            "relative-termination",
            reason="strict component contains a looping rule",
            chain=chain,
        )

    def schedules(n_rules: int):
        # full low-dimensional searches first, then a sparse high-dimensional
        # pass, then larger constants; the sparse pass keeps dimension 3
        # tractable (binary symbols have huge full candidate spaces there)
        yield 1, coef_max, max(2 * coef_max, min(n_rules, 8)), None
        if dim_max >= 2:
            yield 2, coef_max, coef_max, None
        for d in range(3, dim_max + 1):
            yield d, coef_max, coef_max, 3
        if dim_max >= 2:
            yield 2, coef_max, 2 * coef_max, None

    while strict:
        found = None
        for dim, cmax, constmax, extra in schedules(len(strict) + len(weak)):
            try:
                found = search_interpretation(
                    strict, weak, dim, cmax, constmax, budget, extra, deadline
                )
            except ResourceLimitError as e:
                diagnostics.append(str(e))
                if isinstance(e, Timeout):
                    return timeout()
            if found is not None:
                break
        if found is None:
            break
        interpretation, removed = found
        combined = strict + weak
        chain.append(
            {
                "interpretation": interpretation,
                "removed": [combined[i] for i in sorted(removed)],
                "strict_before": list(strict),
                "weak_before": list(weak),
            }
        )
        n_strict = len(strict)
        strict = [r for i, r in enumerate(strict) if i not in removed]
        weak = [r for i, r in enumerate(weak) if i + n_strict not in removed]

    if not strict:
        return yes("relative-termination", chain=chain)

    # stalled: try termination of the remaining union outright
    union = fresh_trs(strict + weak)
    if weak and not has_looping_rule(list(union.rules)):
        sub = prove_relative_termination(
            union, TRS(()), dim_max, coef_max, budget, deadline=deadline
        )
        if sub.is_yes:
            return yes(
                "relative-termination",
                chain=chain,
                union_termination=sub.details["chain"],
            )
        if sub.details["reason"] == "timeout":
            diagnostics.extend(sub.details["diagnostics"])
            return timeout()
        diagnostics.append("union termination not shown internally")
    if external_command is not None:
        if external_termination_check(union, external_command, deadline) == "yes":
            return yes("relative-termination", chain=chain, union_termination="external")
        diagnostics.append("external prover inconclusive")
    return maybe(
        "relative-termination",
        reason="no orienting interpretation found",
        diagnostics=diagnostics,
        chain=chain,
    )


def prove_termination(
    R: TRS,
    dim_max: int = 3,
    coef_max: int = 1,
    budget: int = DEFAULT_SEARCH_BUDGET,
    external_command: str | None = None,
    deadline: float | None = None,
) -> Verdict:
    """Plain termination of R: relative termination against the empty system,
    with the external prover asked about the rules left after removal."""
    v = prove_relative_termination(
        R, TRS(()), dim_max, coef_max, budget, external_command, deadline
    )
    return Verdict(v.kind, "termination", v.details)
