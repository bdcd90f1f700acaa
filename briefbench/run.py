"""Run one briefing-benchmark workload and print its figures.

Usage, from the root of a checkout::

    python3 briefbench/run.py --workload crawl_batch --seed 1 --seconds 20 --trace 0

The full report (environment block, stream summary, every figure with its
sample count) is printed as JSON first; the last line of standard output is
the result object ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in ``BENCHMARK.json``, which also gives their units.  A complete
brief that differs from the reference ``BriefingPipeline.brief_html`` output
makes the run exit 1 and list the doc ids on standard error; a traced run
whose layer probe saw nothing of the docs the program served exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _units(kind: str) -> dict:
    """Metric name -> unit for ``kind`` (``end_to_end`` or ``per_layer``)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _import_program() -> None:
    """Put the checkout's sources on the path; exit 2 when they are missing."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"briefbench: no program sources under {source}", file=sys.stderr)
        sys.exit(2)
    for path in (ROOT, source):
        if path not in sys.path:
            sys.path.insert(0, path)


def _exit_on_sigterm() -> None:
    """Make SIGTERM raise ``SystemExit`` in this process.

    The benchmark's ``finally`` blocks then shut each server down and join
    its worker processes, as on any other way out.  Processes forked from
    this one inherit the handler; there it restores the default and lets
    the signal end them as it would have.
    """
    main_pid = os.getpid()

    def handler(signum, frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("crawl_batch", "serve_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink the streams (smoke runs only; default 1)"
    )
    args = parser.parse_args(argv)
    _exit_on_sigterm()
    _import_program()
    from briefbench.workloads import ProbeError, run

    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), scale=args.scale)
    except ProbeError as error:
        print(f"briefbench: {error}", file=sys.stderr)
        return 3
    kind = "per_layer" if args.trace else "end_to_end"
    units = _units(kind)
    if args.trace:
        values = report["per_layer"]
    else:
        values = {name: figure["value"] for name, figure in report["end_to_end"].items()}
    if set(values) != set(units):
        print(f"briefbench: figures {sorted(values)} do not match the {kind} metrics", file=sys.stderr)
        return 3
    verdict = report["verdict"]
    report["units"] = units
    print(json.dumps(report, indent=1, sort_keys=True))
    result = {
        "correct": not verdict["mismatched"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    if verdict["mismatched"]:
        print(
            f"briefbench: {len(verdict['mismatched'])} briefs differ from the reference: "
            + " ".join(verdict["mismatched"]),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
