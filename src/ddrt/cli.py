"""Command-line driver: parse a TPDB file, run the prover, print a verdict.

The first output line is exactly YES, NO or MAYBE. With --proof a JSON trace
follows: {"verdict", "criterion", "details"} where details hold the level map,
the interpretation chain, the join traces or the non-confluence witness,
with all terms and rules rendered as strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from .prover import Config, DEFAULT_CRITERIA, prove
from .tpdb import ParseError, parse_trs
from .verdict import Verdict

CRITERION_CHOICES = ("auto",) + DEFAULT_CRITERIA


def _jsonify(obj):
    """Proof details as JSON values. Systems, overlaps, critical pairs, join
    instances and interpretations render themselves with `to_json`, so that
    printing a proof loads no module its criterion did not; terms, rules and
    formulas print as their text."""
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


def _trace(v: Verdict) -> str:
    return json.dumps(
        {"verdict": v.kind, "criterion": v.criterion, "details": _jsonify(v.details)},
        indent=2,
        sort_keys=True,
    )


def _config_from(args: argparse.Namespace) -> Config:
    criteria = DEFAULT_CRITERIA if args.criterion == "auto" else (args.criterion,)
    external = args.external_prover or os.environ.get("DDRT_EXTERNAL_PROVER") or None
    return Config(
        k=args.k,
        dim_max=args.dim_max,
        coef_max=args.coef_max,
        external_prover=external,
        timeout=args.timeout,
        criteria=criteria,
    )


def _prove_file(path: str, cfg: Config) -> Verdict:
    text = Path(path).read_text(encoding="ascii")
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


def build_parser() -> argparse.ArgumentParser:
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


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.batch is not None:
        if args.files:
            print("error: --batch does not take FILE arguments", file=sys.stderr)
            return 2
        if args.proof:
            print("error: --batch does not print proofs (--proof)", file=sys.stderr)
            return 2
        return _run_batch(args.batch, cfg)
    if not args.files:
        parser.print_usage(sys.stderr)
        return 2
    return _run_single(args.files, cfg, args.proof)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
