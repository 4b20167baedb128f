"""Benchmark of the ``entropydiff`` CLI.

    python3 bench/run.py --workload {norm,mesh,grid,all} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  One
client runs the workload's commands in process (``cli.main``), closed loop,
single thread, with BLAS pinned to one thread and ``ENTROPYDIFF_THREADS``
unset.  Each command's output is checked by its oracle and must be
byte-identical in every pass of the run.

Times are reported at the reference speed of the machine: each measured
time is multiplied by ``reference.REFERENCE_S`` over the time a fixed
reference computation, run right after it in the same process, took (see
``reference.py``).  The raw medians are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a separate
traced worker and reports per-layer metrics, writing its spans to
``bench/_out/trace-<workload>-seed<N>.jsonl``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S  # noqa: E402

# (name, unit) in the order of BENCHMARK.json
END_TO_END = [
    ("wall_s", "s"),
    ("cold_pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
    ("norm_rel_err", "ratio"),
]
SETUP_SAMPLES = 2  # per worker: fresh interpreters timing ``import entropydiff.cli``
COLD_WORKERS = 3  # fresh workers, each giving one cold pass
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170  # every child process is stopped by then
# times the import, then the reference computation in the same interpreter
IMPORT_SNIPPET = (
    "import sys, time; t = time.perf_counter(); import entropydiff.cli; s = time.perf_counter() - t; "
    f"sys.path.insert(0, {str(HERE)!r}); from reference import reference; print(s, reference())"
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("ENTROPYDIFF_THREADS", None)  # the serial default users get
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def python(args: list, env: dict, limit: float) -> subprocess.CompletedProcess:
    """Run a fresh interpreter; ``limit`` is the time.time() by which it must end."""
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=max(1.0, limit - time.time())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def at_reference_speed(seconds: float, ref: float) -> float:
    return seconds * REFERENCE_S / ref


def setup_seconds(env: dict, limit: float) -> list[list[float]]:
    """(import seconds, reference seconds) of fresh interpreters."""
    return [list(map(float, python(["-c", IMPORT_SNIPPET], env, limit).stdout.split())) for _ in range(SETUP_SAMPLES)]


def import_breakdown(env: dict, limit: float) -> dict:
    samples = [
        tracing.parse_importtime(python(["-X", "importtime", "-c", "import entropydiff.cli"], env, limit).stderr)
        for _ in range(IMPORTTIME_SAMPLES)
    ]
    return {f"import.{pkg}_s": statistics.median(s[pkg] for s in samples) for pkg in samples[0]}


def worker(env: dict, args, out_dir: Path, deadline: float, limit: float, *extra) -> dict:
    cmd = [
        str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--deadline", repr(deadline), "--out-dir", str(out_dir), *extra,
    ]
    if args.small:
        cmd.append("--small")
    return json.loads(python(cmd, env, limit).stdout.splitlines()[-1])


def pass_seconds(passes: list, raw: bool = False) -> float:
    """Pass time: the sum over the pass's commands of each one's median time,
    at reference speed unless ``raw``.  A pass maps each command to its
    (seconds, reference seconds)."""
    def value(sample):
        return sample[0] if raw else at_reference_speed(*sample)
    return sum(statistics.median(value(p[key]) for p in passes) for key in passes[0])


def check_outputs(cmds: list, out_dir: Path) -> dict:
    """Digest and oracle verdict (error message or None) of each command's
    final outputs.  Every pass of a run must write the same bytes, so one
    check covers them all."""
    verdicts = {}
    for cmd in cmds:
        paths = workloads.output_paths(cmd, out_dir)
        try:
            verdicts[cmd.key] = (workloads.digest(paths), cmd.check(paths, out_dir))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            verdicts[cmd.key] = (None, f"oracle could not read the output: {exc!r}")
    return verdicts


def count_failures(records: list, verdicts: dict) -> list:
    """Failed command records: nonzero exit, failed oracle, or output bytes
    that differ from those the oracle checked."""
    failed = []
    for r in records:
        digest, error = verdicts[r["key"]]
        if r["error"] is None and error is None and r["digest"] != digest:
            error = "output bytes differ between passes"
        if r["error"] is not None or error is not None:
            failed.append({**r, "error": r["error"] or error})
    return failed


def machine() -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    def cache(level):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip() or 0)
        except (OSError, ValueError, subprocess.SubprocessError):
            return 0

    cpu = platform.processor()
    try:
        cpu = next(l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "l2_bytes": cache(2), "l3_bytes": cache(3),
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
    }


def end_to_end(args, env: dict, out_dir: Path, limit: float, with_norm: bool):
    python(["-c", IMPORT_SNIPPET], env, limit)  # compiles bytecode; not a sample
    # set-up samples are spread between the workers, so that one slow spell
    # of the machine does not hit all of them
    start, setup, workers = time.time(), [], []
    for i in range(COLD_WORKERS):
        setup += setup_seconds(env, limit)
        extra = ["--with-norm"] if with_norm and i == 0 else []
        workers.append(worker(env, args, out_dir, start + (i + 1) * args.seconds / COLD_WORKERS, limit, *extra))
    warm, cold = [p for w in workers for p in w["warm"]], [w["cold"] for w in workers]
    print("raw " + json.dumps({
        "wall_s": pass_seconds(warm, raw=True), "cold_pass_s": pass_seconds(cold, raw=True),
        "setup_s": statistics.median(s for s, _ in setup),
        "reference_s": statistics.median(r for p in warm + cold for _, r in p.values()),
    }))
    metrics = {
        "wall_s": pass_seconds(warm),
        "cold_pass_s": pass_seconds(cold),
        "setup_s": statistics.median(at_reference_speed(s, r) for s, r in setup),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "norm_rel_err": catenoid_rel_err(out_dir),
    }
    return workers, metrics


def per_layer(args, env: dict, out_dir: Path, limit: float):
    imports = import_breakdown(env, limit)
    trace_file = HERE / "_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    w = worker(env, args, out_dir, time.time() + args.seconds, limit,
               "--trace", "--min-warm", "2", "--trace-file", str(trace_file))
    overhead = pass_seconds(w["traced"]) / pass_seconds(w["warm"])
    return [w], {**w["layers"], **imports, "trace.overhead_ratio": overhead}


def catenoid_rel_err(out_dir: Path) -> float:
    """Relative error of the catenoid norm; 1 when no norm was written."""
    path = Path(workloads.output_paths(workloads.NORM_CATENOID, out_dir)["--out"])
    try:
        norm = json.loads(path.read_text())["norm"]
    except (OSError, ValueError, KeyError):
        return 1.0
    return abs(norm - workloads.NORM_EXACT) / workloads.NORM_EXACT


def run_workload(args, root: Path) -> dict:
    """Measure one workload; print its report lines and return its result."""
    env = child_env(root)
    limit = time.time() + RUN_LIMIT_S
    out_dir = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    p = workloads.params_for(args.seed)
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed, "t": p.t, "alpha": p.alpha}))

    cmds = workloads.commands(args.workload, args.seed, args.small)
    try:
        if args.trace:
            workers, metrics = per_layer(args, env, out_dir, limit)
            units = dict(tracing.PER_LAYER)
        else:
            with_norm = workloads.NORM_CATENOID not in cmds
            workers, metrics = end_to_end(args, env, out_dir, limit, with_norm)
            cmds += [workloads.NORM_CATENOID] if with_norm else []
            units = dict(END_TO_END)
        verdicts = check_outputs(cmds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    records = [r for w in workers for r in w["commands"]]
    failed = count_failures(records, verdicts)
    mismatched = [m for w in workers for m in w.get("mismatched", [])]
    if not args.trace:
        metrics["pass_ratio"] = (len(records) - len(failed)) / len(records)
        metrics = {name: metrics[name] for name, _ in END_TO_END}

    for key in dict.fromkeys(r["key"] for r in records):
        n = sum(r["key"] == key for r in records)
        bad = [f for f in failed if f["key"] == key]
        print(f"oracle {key}: {n - len(bad)}/{n} passed" + (f" ({bad[0]['error']})" if bad else ""))
    print(f"fail_ratio {len(failed) / len(records):.6g} ratio")
    print("samples " + json.dumps({k: [w[k] for w in workers] for k in ("cold", "warm")}))
    for name in mismatched:
        print(f"count {name} differs between traced passes")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": not failed and not mismatched,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced grids, for the smoke test")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "entropydiff" / "cli.py").is_file():
        print(f"no src/entropydiff under {root}: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the oracles use entropydiff.models
    if args.workload != "all":
        print(json.dumps(run_workload(args, root)))
        return 0
    # every workload in turn; metrics are named <workload>.<metric>
    results = {w: run_workload(argparse.Namespace(**{**vars(args), "workload": w}), root) for w in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
