"""Command-line driver: parse a TPDB file, run the prover, print a verdict.

The first output line is exactly YES, NO or MAYBE. With --proof a JSON trace
follows: {"verdict", "criterion", "details"} where details hold the level map,
the interpretation chain, the join traces or the non-confluence witness,
with all terms and rules rendered as strings.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii as quote  # the C quoter of `json.encoder`

from .prover import Config, DEFAULT_CRITERIA, prove
from .tpdb import ParseError, parse_trs
from .verdict import Verdict

CRITERION_CHOICES = ("auto",) + DEFAULT_CRITERIA
_INF = float("inf")
_DEFAULTS = Config()

# each flag: its converter (None for a switch) and its default; parse_args
# stores the value under the flag's name without the dashes, "_" for "-".
# The usage and the help below list the same flags.
_FLAGS = {
    "--criterion": (str, "auto"),
    "--k": (int, _DEFAULTS.k),
    "--timeout": (float, _DEFAULTS.timeout),
    "--dim-max": (int, _DEFAULTS.dim_max),
    "--coef-max": (int, _DEFAULTS.coef_max),
    "--external-prover": (str, None),
    "--proof": (None, False),
    "--batch": (str, None),
}
_USAGE = """\
usage: ddrt [-h] [--criterion NAME] [--k K] [--timeout SECONDS] [--dim-max N]
            [--coef-max N] [--external-prover CMD] [--proof] [--batch DIR] [FILE ...]"""
_HELP = """

Confluence prover for first-order term rewrite systems (TPDB plain format).

  FILE                   a .trs problem file
  -h, --help             print this help and exit
  --criterion NAME       auto to run every criterion in turn (default), or one
                         of nc, ortho, rl, kb, dd1, dd2, dd2x
  --k K                  join bound (default {cfg.k})
  --timeout SECONDS      timeout per problem (default {cfg.timeout})
  --dim-max N            maximum interpretation dimension (default {cfg.dim_max})
  --coef-max N           maximum matrix coefficient (default {cfg.coef_max})
  --external-prover CMD  external termination prover command (env DDRT_EXTERNAL_PROVER)
  --proof                print a JSON proof trace after the verdict
  --batch DIR            prove every .trs file in DIR and print summary counts"""


def _scalar(x: bool | int | float | str | None) -> str:
    """A JSON scalar as `json` writes it."""
    if isinstance(x, str):
        return quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _trace(v: Verdict) -> str:
    """The proof trace: the bytes `json.dumps(..., indent=2, sort_keys=True)`
    writes for {"verdict", "criterion", "details"}, in one walk.

    Dict keys print as `str(k)`, sorted; tuples print as lists and sets as
    sorted lists. Systems, overlaps, critical pairs, join instances and
    interpretations render themselves with `to_json`, as JSON values with
    string keys, so that printing a proof loads no module its criterion did
    not. Terms, rules and formulas print as their text.
    """
    parts: list[str] = []
    append, extend = parts.append, parts.extend
    newlines = ["\n"]  # "\n" and the indent of each level

    def indent(level: int) -> str:
        if len(newlines) == level:
            newlines.append("\n" + "  " * level)
        return newlines[level]

    def plain(obj):
        # a set element as a JSON value, so that a set sorts as its values
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, tuple):
            return [plain(x) for x in obj]
        if isinstance(obj, frozenset):
            return sorted(plain(x) for x in obj)
        to_json = getattr(obj, "to_json", None)
        return str(obj) if to_json is None else to_json()

    def write(obj, level: int) -> None:
        if obj is None or isinstance(obj, (bool, int, float, str)):
            append(_scalar(obj))
        elif isinstance(obj, dict):
            if not obj:
                append("{}")
                return
            items = {str(k): x for k, x in obj.items()}
            inner = indent(level + 1)
            sep = "{"
            for k in sorted(items):
                extend((sep, inner, quote(k), ": "))
                write(items[k], level + 1)
                sep = ","
            extend((newlines[level], "}"))
        elif isinstance(obj, (list, tuple)):
            if not obj:
                append("[]")
                return
            inner = indent(level + 1)
            sep = "["
            for x in obj:
                extend((sep, inner))
                write(x, level + 1)
                sep = ","
            extend((newlines[level], "]"))
        elif isinstance(obj, (set, frozenset)):
            write(sorted(plain(x) for x in obj), level)
        else:
            to_json = getattr(obj, "to_json", None)
            if to_json is None:
                append(quote(str(obj)))
            else:
                write(to_json(), level)

    write({"verdict": v.kind, "criterion": v.criterion, "details": v.details}, 0)
    return "".join(parts)


class UsageError(Exception):
    """An unknown flag, or a flag's value missing, malformed or out of its choices."""


def parse_args(argv: list[str]) -> dict[str, object] | None:
    """The flags of argv by name, with their defaults, and its FILEs under
    "files"; None if argv asks for the help (-h or --help).

    A flag's value follows it as the next argument, even one that starts
    with "-", or after "=" in the same argument. A later flag overrides an
    earlier one. Every argument after "--" is a FILE. Flags are spelled in
    full. Raises UsageError for anything else.
    """
    args: dict[str, object] = {"files": []}
    for flag, (_, default) in _FLAGS.items():
        args[flag[2:].replace("-", "_")] = default
    files = args["files"]
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            files.extend(rest)
            break
        if arg[:1] != "-" or arg == "-":
            files.append(arg)
            continue
        if arg in ("-h", "--help"):
            return None
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            raise UsageError(f"unrecognized arguments: {arg}")
        convert = _FLAGS[flag][0]
        if convert is None:
            if eq:
                raise UsageError(f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise UsageError(f"argument {flag}: expected one argument")
            try:
                value = convert(value)
            except ValueError:
                raise UsageError(
                    f"argument {flag}: invalid {convert.__name__} value: {value!r}") from None
            if flag == "--criterion" and value not in CRITERION_CHOICES:
                raise UsageError(f"argument {flag}: invalid choice: {value!r} (choose from "
                                 f"{', '.join(map(repr, CRITERION_CHOICES))})")
        args[flag[2:].replace("-", "_")] = value
    return args


def _config_from(args: dict[str, object]) -> Config:
    criteria = DEFAULT_CRITERIA if args["criterion"] == "auto" else (args["criterion"],)
    external = args["external_prover"] or os.environ.get("DDRT_EXTERNAL_PROVER") or None
    return Config(
        k=args["k"],
        dim_max=args["dim_max"],
        coef_max=args["coef_max"],
        external_prover=external,
        timeout=args["timeout"],
        criteria=criteria,
    )


def _prove_file(path: str, cfg: Config) -> Verdict:
    with open(path, "rb") as f:
        text = f.read().decode("ascii")
    return prove(parse_trs(text), cfg)


def _run_single(files: list[str], cfg: Config, proof: bool) -> int:
    # one verdict per run keeps the first line machine-parseable
    if len(files) != 1:
        print("error: exactly one FILE expected (or use --batch)", file=sys.stderr)
        return 2
    try:
        verdict = _prove_file(files[0], cfg)
        # the trace is built before the verdict is printed: an error leaves no output
        out = f"{verdict.kind}\n{_trace(verdict)}" if proof else verdict.kind
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ParseError, UnicodeError) as e:
        print(f"error: {files[0]}: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {files[0]}: out of memory", file=sys.stderr)
        return 2
    print(out)
    return 0


def _batch_worker(item: tuple[str, Config]) -> tuple[str, str, str]:
    """The path, its verdict or ERROR, and the error message ('' if none)."""
    path, cfg = item
    try:
        return path, _prove_file(path, cfg).kind, ""
    except (ParseError, UnicodeError, OSError) as e:
        return path, "ERROR", str(e)
    except MemoryError:
        return path, "ERROR", "out of memory"


def _run_batch(directory: str, cfg: Config) -> int:
    import concurrent.futures
    from collections import Counter
    from pathlib import Path

    paths = sorted(str(p) for p in Path(directory).glob("*.trs"))
    if not paths:
        print(f"error: no .trs files in {directory}", file=sys.stderr)
        return 2
    workers = min(len(paths), os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_batch_worker, [(p, cfg) for p in paths]))
    counts: Counter[str] = Counter()
    for path, kind, message in results:
        counts[kind] += 1
        print(f"{path}\t{kind}")
        if kind == "ERROR":
            print(f"error: {path}: {message}", file=sys.stderr)
    total = sum(counts.values())
    print(
        f"total {total}  YES {counts['YES']}  NO {counts['NO']}  "
        f"MAYBE {counts['MAYBE']}  ERROR {counts['ERROR']}"
    )
    return 0


def run(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        print(f"{_USAGE}\nddrt: error: {e}", file=sys.stderr)
        return 2
    if args is None:
        print(_USAGE + _HELP.format(cfg=_DEFAULTS))
        return 0
    try:
        cfg = _config_from(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args["batch"] is not None:
        if args["files"]:
            print("error: --batch does not take FILE arguments", file=sys.stderr)
            return 2
        if args["proof"]:
            print("error: --batch does not print proofs (--proof)", file=sys.stderr)
            return 2
        # an empty DIR would glob the working directory
        if not os.path.isdir(args["batch"]):
            print(f"error: --batch: not a directory: {args['batch']!r}", file=sys.stderr)
            return 2
        return _run_batch(args["batch"], cfg)
    if not args["files"]:
        print(_USAGE, file=sys.stderr)
        return 2
    return _run_single(args["files"], cfg, args["proof"])


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
