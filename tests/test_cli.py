"""CLI behavior: commands, exit codes, JSON determinism."""

import json
import math

import pytest

from entropydiff.cli import dumps_json, main


def _run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_analyze_catenoid_summary(tmp_path):
    code, doc = _run(tmp_path, "analyze", "--surface", "catenoid", "--grid", "64x64")
    assert code == 0
    assert doc["schema"] == 1
    assert abs(doc["summary"]["K_min"] + 1.0) < 0.01
    assert abs(doc["summary"]["max_abs_rho"] - 1.0) < 1e-9
    assert len(doc["fields"]["K"]) == 64 and len(doc["fields"]["K"][0]) == 64


def test_analyze_expression_surface(tmp_path):
    code, doc = _run(tmp_path, "analyze", "--G", "z", "--h", "z", "--domain", "-1,1,-1,1")
    assert code == 0
    assert doc["summary"]["max_abs_rho"] < 1e-9


def test_analyze_rejects_out_of_range_t(tmp_path):
    code, doc = _run(tmp_path, "analyze", "--surface", "deformed-catenoid", "--t", "1.5")
    assert code == 1
    assert doc["error"]["code"] == "bad-input"
    assert "t must lie in (-1,1)" in doc["error"]["message"]


def test_analyze_clamps_t_near_one(tmp_path):
    code, doc = _run(tmp_path, "analyze", "--surface", "deformed-catenoid", "--t", "0.9999", "--grid", "8x8")
    assert code == 0
    assert doc["params"]["t_clamped"] == pytest.approx(0.999)


def test_requires_exactly_one_surface_spec(tmp_path):
    code, doc = _run(tmp_path, "analyze", "--surface", "catenoid", "--G", "z", "--h", "z", "--domain", "0,1,0,1")
    assert code == 1
    code, doc = _run(tmp_path, "analyze")
    assert code == 1


def test_grid_floor_enforced(tmp_path):
    code, doc = _run(tmp_path, "analyze", "--surface", "catenoid", "--grid", "4x4")
    assert code == 1


def test_reconstruct_enneper_case(tmp_path):
    code, doc = _run(tmp_path, "reconstruct", "--rho", "0", "--mu", "0.7071")
    assert code == 0
    mu = 0.7071
    for s in doc["samples"]:
        if s["G"] is None:
            continue
        z = complex(s["z"]["re"], s["z"]["im"])
        G = complex(s["G"]["re"], s["G"]["im"])
        assert abs(G - z / (2 * mu * mu)) < 1e-8
    assert doc["hopf_sign"] == 1
    assert doc["round_trip"]["pass"]


def test_reconstruct_catenoid_family_and_airy(tmp_path):
    code, doc = _run(tmp_path, "reconstruct", "--rho", "-1", "--phi", "0", "--alpha", "1")
    assert code == 0
    assert doc["round_trip"]["stats"]["max_rho_residual"] < 1e-8
    code, doc = _run(tmp_path, "reconstruct", "--rho", "z")
    assert code == 0
    assert doc["wronskian_drift"] < 1e-10
    assert doc["round_trip"]["stats"]["max_rho_residual"] < 1e-6


def test_reconstruct_obj_output(tmp_path):
    obj = tmp_path / "m.obj"
    code, doc = _run(
        tmp_path, "reconstruct", "--rho", "-1", "--phi", "0", "--alpha", "1",
        "--grid", "12x12", "--obj", str(obj),
    )
    assert code == 0
    text = obj.read_text()
    assert text.count("\nv ") + text.startswith("v ") == 144
    assert doc["mesh_wronskian_drift"] < 1e-10


def test_verify_command(tmp_path):
    code, doc = _run(
        tmp_path, "verify", "--surface", "catenoid", "--checks", "ricci,ecritical", "--delta", "0.02"
    )
    assert code == 0
    assert doc["all_passed"]
    names = [r["check"] for r in doc["reports"]]
    assert names == sorted(names)


def test_verify_soliton_enneper(tmp_path):
    code, doc = _run(tmp_path, "verify", "--surface", "enneper", "--checks", "soliton", "--delta", "0.02")
    assert code == 0
    assert doc["all_passed"]


def test_verify_liouville_and_ht_period(tmp_path):
    code, doc = _run(tmp_path, "verify", "--surface", "catenoid", "--checks", "liouville", "--delta", "0.02")
    assert code == 0 and doc["all_passed"]
    code, doc = _run(
        tmp_path, "verify", "--surface", "deformed-helicoid", "--t", "0.5", "--checks", "ht-period"
    )
    assert code == 0
    assert doc["reports"][0]["stats"]["matched"] == "parameterization"


def test_norm_command_catenoid(tmp_path):
    code, doc = _run(tmp_path, "norm", "--surface", "catenoid", "--x-cut", "20")
    assert code == 0
    assert abs(doc["norm"] - 2 * math.sqrt(2) * math.pi**4) < 0.3


def test_mesh_command(tmp_path):
    obj = tmp_path / "cat.obj"
    side = tmp_path / "cat_side.json"
    code, doc = _run(
        tmp_path, "mesh", "--surface", "catenoid", "--grid", "12x12",
        "--obj", str(obj), "--sidecar", str(side),
    )
    assert code == 0
    assert doc["vertices"] == 144
    assert obj.exists() and side.exists()
    assert len(json.loads(side.read_text())["K"]) == 144


def test_json_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["analyze", "--surface", "helicoid", "--grid", "16x16", "--out", str(a)]) == 0
    assert main(["analyze", "--surface", "helicoid", "--grid", "16x16", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_float_format():
    text = dumps_json({"x": 1.0 / 3.0, "nan": float("nan"), "big": 1e300})
    assert "0.33333333333333331" in text
    assert "null" in text
    doc = json.loads(text)
    assert doc["x"] == 1.0 / 3.0


def test_threaded_verify_matches_serial(tmp_path, monkeypatch):
    serial = tmp_path / "serial.json"
    threaded = tmp_path / "threaded.json"
    argv = ["verify", "--surface", "catenoid", "--checks", "ricci,ecritical,soliton", "--delta", "0.04"]
    assert main(argv + ["--out", str(serial)]) == 0
    monkeypatch.setenv("ENTROPYDIFF_THREADS", "3")
    assert main(argv + ["--out", str(threaded)]) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_numeric_failure_exit_code(tmp_path):
    # rho = 1/z has a pole at the integration base: PoleOnPath, exit 2
    code, doc = _run(tmp_path, "reconstruct", "--rho", "1/z")
    assert code == 2
    assert doc["error"]["code"] == "pole-on-path"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--surface", "catenoid", "--delta", "0"),
        ("verify", "--surface", "catenoid", "--delta", "nan"),
        ("norm", "--surface", "catenoid", "--tol", "0"),
        ("norm", "--surface", "catenoid", "--tol", "inf"),
    ],
)
def test_nonpositive_or_nonfinite_step_and_tolerance_are_bad_input(tmp_path, argv):
    code, doc = _run(tmp_path, *argv)
    assert code == 1
    assert doc["error"]["code"] == "bad-input"


def test_cli_import_leaves_scipy_out():
    import subprocess
    import sys

    probe = "import sys, entropydiff.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
