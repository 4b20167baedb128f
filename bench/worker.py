"""One measuring process: imports the CLI, runs a cold pass, then warm passes
until its deadline, and prints its timings and output digests as JSON on
its last line.  After each command it runs the fixed reference computation
of ``reference.py``, so that each command's time can be put at the
reference speed of the machine.

Run by ``run.py``; each worker is a fresh interpreter so that its first
pass is what a one-shot CLI user pays.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads
from reference import reference

REFERENCE_SHARE = 0.15


def reference_seconds(seconds: float) -> float:
    """Mean time of reference calls repeated for at least ``REFERENCE_SHARE``
    of a command's ``seconds``: a long command gets a long measure of the
    machine's speed."""
    refs = [reference()]
    while sum(refs) < REFERENCE_SHARE * seconds:
        refs.append(reference())
    return sum(refs) / len(refs)


class Runner:
    """Runs passes of one workload and records each command's time and
    output digest; the oracles run once, on the final outputs, in run.py."""

    def __init__(self, cli, cmds, out_dir: Path):
        self.cli = cli
        self.cmds = cmds
        self.out_dir = out_dir

    def run_command(self, cmd) -> dict:
        paths = workloads.output_paths(cmd, self.out_dir)
        argv = list(cmd.argv) + [x for item in paths.items() for x in item]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a traceback breaks the CLI contract: count it, keep measuring
            rc = repr(exc)
        seconds = time.perf_counter() - t0
        ok = rc == 0
        return {
            "key": cmd.key,
            "seconds": seconds,
            "ref": reference_seconds(seconds),
            "digest": workloads.digest(paths) if ok else None,
            "error": None if ok else f"exit code {rc}",
        }

    def run_pass(self) -> list:
        gc.collect()
        return [self.run_command(cmd) for cmd in self.cmds]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--deadline", type=float, required=True, help="time.time() after which no warm pass starts")
    ap.add_argument("--min-warm", type=int, default=1)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--trace", action="store_true", help="alternate untraced and traced warm passes")
    ap.add_argument("--with-norm", action="store_true", help="end with one catenoid norm for norm_rel_err")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    from entropydiff import cli

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, workloads.commands(args.workload, args.seed, args.small), out_dir)

    cold = runner.run_pass()
    # a one-shot CLI user's peak: import plus one pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    warm, traced, layer = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    last = 0.0  # length of the last round: no round starts that would end past the deadline
    while len(warm) < args.min_warm or time.time() + last < args.deadline:
        t0 = time.time()
        warm.append(runner.run_pass())
        if tracer is not None:
            start = len(tracer.spans)
            tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
            layer.append(tracing.layer_metrics(tracer.spans, start))
            for rec in tracer.spans[start:]:
                if rec[4]:
                    rec[4].pop("z", None)  # release the point sets
        last = time.time() - t0
    passes = [cold] + warm + traced
    if args.with_norm:
        passes.append([runner.run_command(workloads.NORM_CATENOID)])

    def seconds(records):
        return {r["key"]: [r["seconds"], r["ref"]] for r in records}

    summary = {
        "cold": seconds(cold),
        "warm": [seconds(p) for p in warm],
        "peak_rss_mb": peak_rss_mb,
        "commands": [r for p in passes for r in p],
    }
    if tracer is not None:
        metrics, mismatched = tracing.combine_passes(layer)
        summary["layers"] = metrics
        summary["mismatched"] = mismatched
        summary["traced"] = [seconds(p) for p in traced]
        if args.trace_file:
            tracer.dump(args.trace_file)
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
