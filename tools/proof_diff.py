"""Compare the `--proof` output of the benchmark's problems between two checkouts.

    python3 tools/proof_diff.py BASE_CHECKOUT

Writes the seed-1 corpora of the three benchmark workloads with
`perfbench/corpus.py` of this checkout. Then runs every problem's
`ddrt --proof`, with the criterion the benchmark gives it, under
PYTHONHASHSEED=0: once against the `src` of this checkout and once against
BASE_CHECKOUT/src, each tree in one subprocess. Prints the id of every
problem whose exit code or output differs, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import WORKLOADS, build  # noqa: E402
from worker import cli_argv  # noqa: E402

# reads [[id, argv], ...] on stdin, writes {id: [exit code, stdout]}
RUNNER = """
import contextlib, io, json, sys
import ddrt.cli
out = {}
for key, argv in json.load(sys.stdin):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = ddrt.cli.run(argv)
    except (Exception, SystemExit) as e:
        code = f"{type(e).__name__}: {e}"
    out[key] = [code, buf.getvalue()]
json.dump(out, sys.stdout)
"""


def run_tree(tree: Path, jobs: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("DDRT_EXTERNAL_PROVER", None)
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(jobs),
                          capture_output=True, text=True, env=env, cwd=tree, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    args = parser.parse_args(argv)
    if not (args.base / "src" / "ddrt").is_dir():
        parser.error(f"{args.base} has no src/ddrt")
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for workload in WORKLOADS:
            corpus = Path(tmp) / workload
            for item in build(workload, 1, corpus):
                jobs.append([f"{workload}/{item['id']}",
                             cli_argv(item, str(corpus / item["file"]))])
        base = run_tree(args.base.resolve(), jobs)
        change = run_tree(ROOT, jobs)
    differ = [key for key, _ in jobs if base[key] != change[key]]
    for key in differ:
        print(key)
    print(f"{len(differ)} of {len(jobs)} proofs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
