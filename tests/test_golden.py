"""Golden corpus: the sha256 of every output file and the exit code of a fixed
set of CLI runs, so a refactor that claims to move no byte is checked byte for
byte.

The set is each ``bench/workloads.commands`` command at seeds 1, 23 and 62,
plus runs that reach paths the bench does not: ``analyze`` at 512x512, the
mesh fallback edges of C_0.4114 at 128x128 and C_0.3161 at 64x64, ``norm``
with ``--x-cut``, ``verify`` on Enneper and the ``ht-period`` check.

Floating-point results may differ in the last bits between numpy versions and
machines, so the bytes are compared only on the platform that recorded them;
elsewhere the test skips and says why.  To record the corpus again:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden.json"
SEEDS = (1, 23, 62)

# (key, argv, output files): each output is a flag and a relative file name
EXTRA = [
    ("analyze.c0.3161.512", "analyze --surface deformed-catenoid --t 0.3161 --grid 512x512", ("--out",)),
    ("mesh.c0.4114.128", "mesh --surface deformed-catenoid --t 0.4114 --grid 128x128", ("--obj", "--sidecar", "--out")),
    ("mesh.c0.3161.64", "mesh --surface deformed-catenoid --t 0.3161 --grid 64x64", ("--obj", "--sidecar", "--out")),
    ("norm.c0.5.xcut20", "norm --surface deformed-catenoid --t 0.5 --x-cut 20", ("--out",)),
    ("norm.catenoid.xcut20", "norm --surface catenoid --x-cut 20", ("--out",)),
    ("verify.enneper", "verify --surface enneper --checks ricci,ecritical,soliton,liouville", ("--out",)),
    ("verify.ht-period", "verify --surface deformed-helicoid --t 0.3 --checks ht-period", ("--out",)),
    ("verify.custom", "verify --G z --h 1 --domain=0.5,1,0.5,1 --checks ricci --delta 0.1", ("--out",)),
]
_SUFFIX = {"--out": ".json", "--obj": ".obj", "--sidecar": ".sidecar.json"}


def fingerprint() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def runs() -> list:
    """(key, argv) of every run, with relative output names in argv."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    out = []
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for cmd in workloads.commands(workload, seed):
                key = f"s{seed}.{cmd.key}"
                argv = list(cmd.argv)
                for flag, suffix in cmd.outputs:
                    argv += [flag, key + suffix]
                out.append((key, argv))
    for key, text, flags in EXTRA:
        argv = text.split()
        for flag in flags:
            argv += [flag, key + _SUFFIX[flag]]
        out.append((key, argv))
    return out


def record(workdir: Path) -> dict:
    """Run every command in ``workdir`` and return its exit code and the
    sha256 of each file it wrote, by key."""
    from entropydiff.cli import main

    here = os.getcwd()
    os.chdir(workdir)
    try:
        result = {}
        for key, argv in runs():
            before = set(os.listdir("."))
            code = main(argv)
            files = sorted(set(os.listdir(".")) - before)
            result[key] = {
                "argv": argv,
                "exit": code,
                "sha256": {f: hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files},
            }
        return result
    finally:
        os.chdir(here)


def test_every_output_keeps_its_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["fingerprint"] != fingerprint():
        pytest.skip(f"golden bytes were recorded on {golden['fingerprint']}, this is {fingerprint()}")
    workdir = tmp_path / "golden"
    workdir.mkdir()
    got = record(workdir)
    assert sorted(got) == sorted(golden["runs"])
    moved = [key for key in golden["runs"] if got[key] != golden["runs"][key]]
    assert not moved, f"outputs moved: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "golden"
        workdir.mkdir()
        doc = {"fingerprint": fingerprint(), "runs": record(workdir)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['runs'])} runs to {GOLDEN}")
