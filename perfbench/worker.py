"""Runs prover calls for the benchmark in a fresh process.

    python3 perfbench/worker.py --pass CORPUS_DIR --trace 0|1 --result FILE
        One pass over the corpus through `ddrt.cli.run`, in this process
        (the `rl-srs` and `relterm` workloads). Writes per-problem seconds
        and output, the import time and, when traced, the layer summary.

    python3 perfbench/worker.py --single FILE.trs --spans OUT.json
        One traced `ddrt --proof FILE.trs` (a `portfolio` problem). Prints
        what the CLI prints and writes the layer summary and spans to OUT.

`src` of the checkout must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def cli_argv(item: dict, path: str) -> list[str]:
    if item["criterion"] == "auto":
        return ["--proof", path]
    return ["--criterion", item["criterion"], "--proof", path]


def _import_cli():
    t0 = time.perf_counter()
    import ddrt.cli

    return ddrt.cli, time.perf_counter() - t0


def run_pass(corpus: Path, traced: bool) -> dict:
    cli, import_s = _import_cli()
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    manifest = json.loads((corpus / "manifest.json").read_text())
    problems = []
    wall0 = time.perf_counter()
    for item in manifest:
        if tracer is not None:
            tracer.problem = item["id"]
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run(cli_argv(item, str(corpus / item["file"])))
            if code != 0:
                error = f"exit code {code}"
        except (Exception, SystemExit) as e:  # a raising problem is a failed one
            error = f"{type(e).__name__}: {e}"
        problems.append({"id": item["id"], "seconds": time.perf_counter() - t0,
                         "stdout": buf.getvalue(), "error": error})
    result = {"wall_s": time.perf_counter() - wall0, "import_s": import_s,
              "problems": problems}
    if tracer is not None:
        result["layers"] = tracer.summarize()
        tracer.dump(corpus.parent / f"spans-{corpus.name}.json")
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def run_single(path: str, spans: Path) -> int:
    cli, import_s = _import_cli()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.problem = Path(path).stem
    try:
        code = cli.run(["--proof", path])
    finally:
        sys.stdout.flush()
        summary = tracer.summarize()
        summary["cli.import_s"] = import_s
        summary["problems"] = 1
        tracer.dump(spans.with_suffix(".spans.json"))
        spans.write_text(json.dumps(summary))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pass", dest="corpus", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--single")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if args.single:
        return run_single(args.single, args.spans)
    args.result.write_text(json.dumps(run_pass(args.corpus, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
