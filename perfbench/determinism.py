"""Check that verdicts, `decided` and per-layer counts repeat exactly.

    python3 perfbench/determinism.py --workload relterm --seed 1

Sets up the workload's corpus once, then makes six traced passes: two with
PYTHONHASHSEED unset (each process draws its own hash seed), one under each
of the values 1 and 2, and two under 0, the value the benchmark pins. It
prints, per pass, the decided count and the count metrics, then what differs
over all six passes and what differs between the two pinned ones. The exit
code is 1 when the pinned passes differ.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

COUNTS = tracing.COUNT_METRICS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    work = run.OUT / f"determinism-{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus, _ = run.set_up(args.workload, args.seed, work)
    manifest = json.loads((corpus / "manifest.json").read_text())
    reports = []
    for hash_seed in (None, None, "1", "2", "0", "0"):
        run.ENV.pop("PYTHONHASHSEED", None)
        if hash_seed is not None:
            run.ENV["PYTHONHASHSEED"] = hash_seed
        if args.workload == "portfolio":
            result = run.portfolio_pass(corpus, manifest, True, work)
        else:
            result = run.worker_pass(corpus, True, work)
        verdicts = {p["id"]: p["stdout"].split("\n", 1)[0] for p in result["problems"]}
        counts = {k: result["layers"].get(k, 0) for k in COUNTS}
        reports.append({"hash_seed": hash_seed or "unset", "decided": run.count_decided(result),
                        "verdicts": verdicts, "counts": counts})
    for r in reports:
        print(json.dumps({"hash_seed": r["hash_seed"], "decided": r["decided"], **r["counts"]}))
    differ, pinned = _differences(reports), _differences(reports[-2:])
    print(json.dumps({"workload": args.workload, "seed": args.seed, "differ": differ,
                      "differ_pinned": pinned}))
    return 1 if pinned else 0


def _differences(reports: list) -> list:
    base = reports[0]
    return sorted(
        {k for r in reports[1:] for k in COUNTS if r["counts"][k] != base["counts"][k]}
        | {f"verdict:{i}" for r in reports[1:] for i, v in r["verdicts"].items()
           if v != base["verdicts"][i]}
        | ({"decided"} if any(r["decided"] != base["decided"] for r in reports) else set())
    )


if __name__ == "__main__":
    sys.exit(main())
