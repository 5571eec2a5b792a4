"""Independent checker for the proofs that `ddrt --proof` prints.

It shares no code with `ddrt`: it has its own term reader, matcher, unifier,
overlap enumerator and integer matrix arithmetic, and re-derives everything a
proof claims from the problem's TPDB text.

Terms are plain Python values: a variable is a `str`, an application is a
tuple `(symbol, arg1, ..., argn)` (a constant is `(symbol,)`). Positions are
tuples of 1-based argument indices. Rule labels in proofs are the 0-based
indices of the rules in the TPDB file.

    check(problem_text, proof_output) -> (ok, reason)

takes the whole standard output of one `ddrt --proof` call: its first line is
the verdict and the rest is the JSON trace. MAYBE is accepted as it stands.
"""

from __future__ import annotations

import json
import re
from collections import deque

_TOKEN = re.compile(r"->|[(),]|[^\s(),]+")

NO_WITNESS_SEARCH_CAP = 20_000


class Rejected(Exception):
    """The proof does not establish its verdict."""


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise Rejected(reason)


# ---------------------------------------------------------------- reading


class _Reader:
    def __init__(self, text: str, is_variable):
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.is_variable = is_variable

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        _require(tok is not None, "unexpected end of text")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        _require(got == tok, f"expected {tok!r}, got {got!r}")

    def term(self):
        name = self.take()
        _require(name not in ("(", ")", ",", "->"), f"expected a term, got {name!r}")
        if self.peek() == "(":
            self.take()
            args = []
            if self.peek() != ")":
                args.append(self.term())
                while self.peek() == ",":
                    self.take()
                    args.append(self.term())
            self.expect(")")
            return (name, *args)
        return name if self.is_variable(name) else (name,)


def parse_problem(text: str):
    """(rules, signature) of a TPDB problem; rules are (lhs, rhs) pairs."""
    declared: set[str] = set()
    reader = _Reader(text, lambda name: name in declared)
    rules = []
    while reader.peek() is not None:
        reader.expect("(")
        section = reader.take()
        if section == "VAR":
            while reader.peek() != ")":
                declared.add(reader.take())
            reader.take()
        elif section == "RULES":
            while reader.peek() != ")":
                lhs = reader.term()
                reader.expect("->")
                rules.append((lhs, reader.term()))
            reader.take()
        else:
            depth = 1
            while depth:
                tok = reader.take()
                depth += (tok == "(") - (tok == ")")
    signature: dict[str, int] = {}
    for rule in rules:
        for side in rule:
            for _, s in subterms(side):
                if not isinstance(s, str):
                    _require(signature.setdefault(s[0], len(s) - 1) == len(s) - 1,
                             f"arity clash for {s[0]}")
    for lhs, rhs in rules:
        _require(not isinstance(lhs, str), "variable left-hand side")
        _require(variables(rhs) <= variables(lhs), "extra variable in a right-hand side")
    return rules, signature


def read_term(text: str, signature: dict[str, int]):
    """A term printed by the prover; names outside the signature are variables."""
    reader = _Reader(text, lambda name: name not in signature)
    t = reader.term()
    _require(reader.peek() is None, f"trailing text in term {text!r}")
    return t


def read_rule(text: str, signature: dict[str, int]):
    reader = _Reader(text, lambda name: name not in signature)
    lhs = reader.term()
    reader.expect("->")
    rhs = reader.term()
    _require(reader.peek() is None, f"trailing text in rule {text!r}")
    _require(not isinstance(lhs, str), f"variable left-hand side in {text!r}")
    _require(variables(rhs) <= variables(lhs), f"extra variable in {text!r}")
    return lhs, rhs


# ---------------------------------------------------------------- terms


def subterms(t, pos=()):
    """(position, subterm) pairs in preorder."""
    yield pos, t
    if not isinstance(t, str):
        for i, a in enumerate(t[1:], 1):
            yield from subterms(a, pos + (i,))


def variables(t) -> set[str]:
    return {s for _, s in subterms(t) if isinstance(s, str)}


def is_linear(t) -> bool:
    occ = [s for _, s in subterms(t) if isinstance(s, str)]
    return len(occ) == len(set(occ))


def at(t, pos):
    for i in pos:
        _require(not isinstance(t, str) and 1 <= i < len(t), f"no position {pos}")
        t = t[i]
    return t


def replace(t, pos, u):
    if not pos:
        return u
    i = pos[0]
    _require(not isinstance(t, str) and 1 <= i < len(t), f"no position {pos}")
    return t[:i] + (replace(t[i], pos[1:], u),) + t[i + 1:]


def substitute(sigma, t):
    if isinstance(t, str):
        return sigma.get(t, t)
    return (t[0], *(substitute(sigma, a) for a in t[1:]))


def match(pattern, t):
    sigma: dict = {}
    todo = [(pattern, t)]
    while todo:
        p, s = todo.pop()
        if isinstance(p, str):
            if sigma.setdefault(p, s) != s:
                return None
        elif isinstance(s, str) or p[0] != s[0] or len(p) != len(s):
            return None
        else:
            todo.extend(zip(p[1:], s[1:]))
    return sigma


def _walk(sigma, t):
    while isinstance(t, str) and t in sigma:
        t = sigma[t]
    return t


def _occurs(sigma, x, t) -> bool:
    t = _walk(sigma, t)
    if isinstance(t, str):
        return t == x
    return any(_occurs(sigma, x, a) for a in t[1:])


def unify(s, t):
    """A most general unifier in triangular form, or None."""
    sigma: dict = {}
    todo = [(s, t)]
    while todo:
        a, b = todo.pop()
        a, b = _walk(sigma, a), _walk(sigma, b)
        if a == b:
            continue
        if not isinstance(a, str) and isinstance(b, str):
            a, b = b, a
        if isinstance(a, str):
            if _occurs(sigma, a, b):
                return None
            sigma[a] = b
        elif a[0] != b[0] or len(a) != len(b):
            return None
        else:
            todo.extend(zip(a[1:], b[1:]))
    return sigma


def resolve(sigma, t):
    t = _walk(sigma, t)
    if isinstance(t, str):
        return t
    return (t[0], *(resolve(sigma, a) for a in t[1:]))


def rename(t, tag: str):
    if isinstance(t, str):
        return t + tag
    return (t[0], *(rename(a, tag) for a in t[1:]))


def variant(ours, theirs, rho: dict, back: dict) -> bool:
    """True iff `theirs` is `ours` under a variable bijection extending rho."""
    todo = [(ours, theirs)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, str) or isinstance(b, str):
            if not (isinstance(a, str) and isinstance(b, str)):
                return False
            if rho.setdefault(a, b) != b or back.setdefault(b, a) != a:
                return False
        elif a[0] != b[0] or len(a) != len(b):
            return False
        else:
            todo.extend(zip(a[1:], b[1:]))
    return True


def rule_variant(r1, r2) -> bool:
    # "" is never a symbol, so the pair is compared as one term
    return variant(("", *r1), ("", *r2), {}, {})


def reducts(rules, t):
    """All one-step reducts of t."""
    out = []
    for pos, s in subterms(t):
        if isinstance(s, str):
            continue
        for lhs, rhs in rules:
            sigma = match(lhs, s)
            if sigma is not None:
                out.append(replace(t, pos, substitute(sigma, rhs)))
    return out


def is_normal_form(rules, t) -> bool:
    return not any(
        match(lhs, s) is not None
        for _, s in subterms(t) if not isinstance(s, str)
        for lhs, _ in rules
    )


def step(rules, t, label, pos):
    """The result of rewriting t at pos with rule `label`."""
    _require(isinstance(label, int) and 0 <= label < len(rules), f"no rule {label}")
    lhs, rhs = rules[label]
    sigma = match(lhs, at(t, tuple(pos)))
    _require(sigma is not None, f"rule {label} does not apply at {pos}")
    return replace(t, tuple(pos), substitute(sigma, rhs))


def duplicating(rule) -> bool:
    lhs, rhs = rule

    def occ(t):
        out: dict = {}
        for _, s in subterms(t):
            if isinstance(s, str):
                out[s] = out.get(s, 0) + 1
        return out

    left = occ(lhs)
    return any(n > left.get(x, 0) for x, n in occ(rhs).items())


# ---------------------------------------------------------------- overlaps


def overlaps(rules):
    """Every overlap as {key, source, left, right}.

    key is (outer index, position, inner index); left contracts the inner
    redex and right applies the outer rule at the root. Root overlaps of a
    rule with itself or with a variant of itself give trivial peaks and are
    left out.
    """
    out = []
    for o, (olhs, orhs) in enumerate(rules):
        for pos, sub in subterms(olhs):
            if isinstance(sub, str):
                continue
            for i, rule in enumerate(rules):
                if not pos and (i == o or rule_variant(rule, rules[o])):
                    continue
                ilhs, irhs = rename(rule[0], "#"), rename(rule[1], "#")
                sigma = unify(ilhs, sub)
                if sigma is None:
                    continue
                source = resolve(sigma, olhs)
                out.append({
                    "key": (o, pos, i),
                    "source": source,
                    "left": replace(source, pos, resolve(sigma, irhs)),
                    "right": resolve(sigma, orhs),
                })
    return out


# ---------------------------------------------------------------- matrices


def _matrix(m, dim):
    _require(isinstance(m, list) and len(m) == dim, "bad matrix shape")
    for row in m:
        _require(isinstance(row, list) and len(row) == dim, "bad matrix shape")
        _require(all(isinstance(x, int) and x >= 0 for x in row), "bad matrix entry")
    return m


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _mulv(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def read_interpretation(obj):
    dim = obj["dim"]
    _require(isinstance(dim, int) and dim >= 1, "bad dimension")
    funcs = {}
    for symbol, f in obj["funcs"].items():
        const = f["const"]
        _require(isinstance(const, list) and len(const) == dim and
                 all(isinstance(x, int) and x >= 0 for x in const), "bad constant")
        mats = [_matrix(m, dim) for m in f["matrices"]]
        # a positive upper-left entry keeps the strict order monotone
        _require(all(m[0][0] >= 1 for m in mats), f"{symbol}: upper-left entry 0")
        funcs[symbol] = (mats, const)
    return dim, funcs


def _form(interp, t):
    """Linear form of t: {variable: matrix}, constant vector."""
    dim, funcs = interp
    if isinstance(t, str):
        return {t: [[int(i == j) for j in range(dim)] for i in range(dim)]}, [0] * dim
    _require(t[0] in funcs, f"symbol {t[0]} not interpreted")
    mats, const = funcs[t[0]]
    _require(len(mats) == len(t) - 1, f"symbol {t[0]}: wrong number of matrices")
    coeffs: dict = {}
    const = list(const)
    for m, arg in zip(mats, t[1:]):
        sub_coeffs, sub_const = _form(interp, arg)
        const = [x + y for x, y in zip(const, _mulv(m, sub_const))]
        for x, c in sub_coeffs.items():
            p = _mul(m, c)
            coeffs[x] = _add(coeffs[x], p) if x in coeffs else p
    return coeffs, const


def orientation(interp, rule) -> str:
    """'strict', 'weak' or 'none' for lhs against rhs."""
    (lc, lv), (rc, rv) = _form(interp, rule[0]), _form(interp, rule[1])
    dim = interp[0]
    zero = [[0] * dim for _ in range(dim)]
    for x in rc:
        a, b = lc.get(x, zero), rc[x]
        if any(p < q for ra, rb in zip(a, b) for p, q in zip(ra, rb)):
            return "none"
    if any(p < q for p, q in zip(lv, rv)):
        return "none"
    return "strict" if lv[0] > rv[0] else "weak"


def replay_chain(chain, strict, weak, signature):
    """Replay rule-removal rounds; returns the strict and weak rules left."""
    for entry in chain:
        interp = read_interpretation(entry["interpretation"])
        for rule in strict + weak:
            _require(orientation(interp, rule) != "none", "a rule is not weakly oriented")
        claimed = [read_rule(r, signature) for r in entry["removed"]]
        _require(claimed, "a round removes nothing")
        for rule in claimed:
            _require(orientation(interp, rule) == "strict",
                     "a removed rule is not strictly oriented")
        strict = [r for r in strict if orientation(interp, r) != "strict"]
        weak = [r for r in weak if orientation(interp, r) != "strict"]
    return strict, weak


def check_termination_proof(rel, strict, weak, signature) -> None:
    """The relative-termination part of a YES: strict/weak is terminating."""
    _require(rel.get("external") is not True, "external termination proofs cannot be replayed")
    strict, weak = replay_chain(rel["chain"], strict, weak, signature)
    if not strict:
        return
    union = rel.get("union_termination")
    _require(isinstance(union, list), "strict rules remain after the chain")
    left, _ = replay_chain(union, strict + weak, [], signature)
    _require(not left, "rules remain after the union termination chain")


def _contains_all(required, given, what):
    for rule in required:
        _require(any(rule_variant(rule, g) for g in given), f"missing {what}")


# ---------------------------------------------------------------- joins


def replay_join(rules, peak, left_steps, right_steps, meet, signature):
    """Replay both sides of a join from our own critical pair.

    Steps are (label, position, printed term). The prover's variable names
    differ from ours, so every printed term is compared under one variable
    bijection per peak. Returns our meet.
    """
    rho: dict = {}
    back: dict = {}
    ends = []
    for start, steps in ((peak["left"], left_steps), (peak["right"], right_steps)):
        t = start
        for label, pos, printed in steps:
            t = step(rules, t, label, pos)
            _require(variant(t, read_term(printed, signature), rho, back),
                     "a trace step does not give the printed term")
        ends.append(t)
    _require(ends[0] == ends[1], "the two sides do not meet")
    _require(variant(ends[0], read_term(meet, signature), rho, back),
             "the join does not end at the printed meet")
    return ends[0]


def _instance_steps(inst):
    _require(len(inst["left_seq"]) == len(inst["left_trace"]) and
             len(inst["right_seq"]) == len(inst["right_trace"]), "trace length mismatch")
    left = [(lab, pos, t) for lab, (pos, t) in zip(inst["left_seq"], inst["left_trace"])]
    right = [(lab, pos, t) for lab, (pos, t) in zip(inst["right_seq"], inst["right_trace"])]
    return left, right


def _key(origin):
    return (origin["outer"], tuple(origin["pos"]), origin["inner"])


def decreasing_side(alpha, beta, labels, level) -> bool:
    """Rule-labeling condition for one side of a peak alpha <- . -> beta.

    The side's labels must read: some labels below alpha, then at most one
    label at most beta, then labels each below alpha or below beta. A label
    is below another when its level is smaller; "at most" also allows the
    very same rule.
    """
    below = lambda g, a: level[g] < level[a]  # noqa: E731
    n = len(labels)
    for i in range(n + 1):
        if not all(below(g, alpha) for g in labels[:i]):
            break
        if i == n:
            return True
        if (labels[i] == beta or below(labels[i], beta)) and all(
            below(g, alpha) or below(g, beta) for g in labels[i + 1:]
        ):
            return True
    return False


# ---------------------------------------------------------------- criteria


def _check_orthogonal(rules, signature, details):
    _require(all(is_linear(lhs) for lhs, _ in rules), "not left-linear")
    _require(not overlaps(rules), "the system has overlaps")


def _check_rule_labeling(rules, signature, details):
    _require(all(is_linear(l) and is_linear(r) for l, r in rules), "not linear")
    level = {int(k): v for k, v in details["level_map"].items()}
    _require(all(i in level for i in range(len(rules))), "level map misses a rule")
    entries = {(j["outer"], tuple(j["pos"]), j["inner"]): j for j in details["joins"]}
    for peak in overlaps(rules):
        entry = entries.get(peak["key"])
        _require(entry is not None, f"no join entry for the peak {peak['key']}")
        _require(entry["instances"], "a peak has no join instance")
        outer, _, inner = peak["key"]
        decreasing = False
        for inst in entry["instances"]:
            left, right = _instance_steps(inst)
            replay_join(rules, peak, left, right, inst["meet"], signature)
            decreasing = decreasing or (
                decreasing_side(inner, outer, inst["left_seq"], level)
                and decreasing_side(outer, inner, inst["right_seq"], level))
        _require(decreasing, f"no decreasing join for the peak {peak['key']}")


def _check_knuth_bendix(rules, signature, details):
    check_termination_proof(details["termination"], list(rules), [], signature)
    entries = {_key(n["pair"]["origin"]): n for n in details["normalizations"]}
    for peak in overlaps(rules):
        entry = entries.get(peak["key"])
        _require(entry is not None, f"no normalization for the peak {peak['key']}")
        meet = replay_join(rules, peak, entry["left_steps"], entry["right_steps"],
                           entry["meet"], signature)
        _require(is_normal_form(rules, meet), "a critical pair meets in a reducible term")


def _check_joins(rules, signature, joins):
    entries = {_key(j["pair"]["origin"]): j["instance"] for j in joins}
    peaks = overlaps(rules)
    for peak in peaks:
        inst = entries.get(peak["key"])
        if inst is None:
            _require(peak["left"] == peak["right"], f"no join for the peak {peak['key']}")
            continue
        left, right = _instance_steps(inst)
        replay_join(rules, peak, left, right, inst["meet"], signature)
    return peaks


def _check_relative(rules, signature, details, kind):
    _require(all(is_linear(lhs) for lhs, _ in rules), "not left-linear")
    peaks = _check_joins(rules, signature, details["joins"])
    steps = [
        (p["source"], p[side]) for p in peaks
        if kind != "dd2x" or p["left"] != p["right"]
        for side in ("left", "right")
    ]
    if kind == "dd1":
        required_strict = steps + [r for r in rules if duplicating(r)]
        required_weak = [r for r in rules if not duplicating(r)]
    else:
        required_strict, required_weak = steps, list(rules)
    rel = details["relative"]
    chain = rel["chain"]
    if not chain:
        _require(not required_strict, "no chain, yet critical-pair steps exist")
        return
    strict = [read_rule(r, signature) for r in chain[0]["strict_before"]]
    weak = [read_rule(r, signature) for r in chain[0]["weak_before"]]
    _contains_all(required_strict, strict, "critical-pair step on the strict side")
    _contains_all(required_weak, weak, "rule on the weak side")
    check_termination_proof(rel, strict, weak, signature)


def _check_no(rules, signature, details):
    w = details["witness"]
    peak = read_term(w["peak"], signature)
    left = read_term(w["pair"]["left"], signature)
    right = read_term(w["pair"]["right"], signature)
    one_step = reducts(rules, peak)
    _require(left in one_step and right in one_step, "the peak does not fork into the pair")
    nfs = [read_term(t, signature) for t in w["normal_forms"]]
    _require(len(nfs) == 2 and nfs[0] != nfs[1], "the normal forms do not differ")
    for start, nf, side in ((left, nfs[0], "left_steps"), (right, nfs[1], "right_steps")):
        _require(is_normal_form(rules, nf), "a claimed normal form is reducible")
        if side in w:
            t = start
            for label, pos, printed in w[side]:
                t = step(rules, t, label, pos)
                _require(t == read_term(printed, signature), "a normalization step is wrong")
            _require(t == nf, "the normalization does not end at the normal form")
        else:
            _require(_reachable(rules, start, nf), "a normal form is not reachable")


def _reachable(rules, start, goal) -> bool:
    seen = {start}
    todo = deque([start])
    while todo:
        t = todo.popleft()
        if t == goal:
            return True
        for u in reducts(rules, t):
            if u not in seen:
                seen.add(u)
                _require(len(seen) <= NO_WITNESS_SEARCH_CAP, "reachability search too large")
                todo.append(u)
    return False


_YES = {
    "orthogonality": _check_orthogonal,
    "rule-labeling": _check_rule_labeling,
    "knuth-bendix": _check_knuth_bendix,
    "dd-duplication-split": lambda r, s, d: _check_relative(r, s, d, "dd1"),
    "dd-relative": lambda r, s, d: _check_relative(r, s, d, "dd2"),
    "dd-relative-nontrivial": lambda r, s, d: _check_relative(r, s, d, "dd2x"),
}


def check(problem_text: str, output: str) -> tuple[bool, str]:
    """Check one `ddrt --proof` output against the problem it answers."""
    first, _, rest = output.partition("\n")
    if first not in ("YES", "NO", "MAYBE"):
        return False, f"first line is {first!r}"
    try:
        proof = json.loads(rest)
        _require(proof.get("verdict") == first, "the trace disagrees with the verdict")
        if first == "MAYBE":
            return True, "MAYBE"
        rules, signature = parse_problem(problem_text)
        details = proof["details"]
        if first == "NO":
            _check_no(rules, signature, details)
        else:
            _require(proof["criterion"] in _YES, f"unknown criterion {proof['criterion']}")
            _YES[proof["criterion"]](rules, signature, details)
    except Rejected as e:
        return False, str(e)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        return False, f"malformed proof: {type(e).__name__}: {e}"
    return True, first
