"""CLI behavior: commands, exit codes, JSON determinism."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from entropydiff import cli
from entropydiff.cli import MAX_GRID_NODES, MAX_SAMPLES, dumps_json, main
from entropydiff.geomnum import RectDomain
from entropydiff.models import catenoid, deformed_catenoid, get_model
from entropydiff.verify import ecritical_residual, ricci_residual, soliton_check, weighted_entropy_norm


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


def test_ht_period_measures_the_clamped_t(tmp_path):
    code, doc = _run(tmp_path, "verify", "--surface", "deformed-helicoid", "--t", "0.9999", "--checks", "ht-period")
    assert code == 0
    assert doc["reports"][0]["params"]["t"] == doc["params"]["t_clamped"] == pytest.approx(0.999)


def test_norm_command_catenoid(tmp_path):
    code, doc = _run(tmp_path, "norm", "--surface", "catenoid", "--x-cut", "20")
    assert code == 0
    assert abs(doc["norm"] - 2 * math.sqrt(2) * math.pi**4) < 0.3


def test_norm_keeps_the_domain_of_a_periodic_surface(tmp_path):
    code, doc = _run(tmp_path, "norm", "--surface", "catenoid", "--domain", "-1,1,0,1")
    assert code == 0
    assert doc["params"]["domain"] == [-1, 1, 0, 1]
    assert doc["norm"] == weighted_entropy_norm(catenoid().data, RectDomain(-1.0, 1.0, 0.0, 1.0), tol=1e-6)


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


@pytest.mark.parametrize(
    "surface, domain",
    [("catenoid", "-1,1,-1,1"), ("helicoid", "-1,1,-1,1"), ("enneper", "1,3,-1,1")],
)
def test_one_verify_run_matches_the_checks_one_by_one(tmp_path, surface, domain):
    # the checks share one metric in a verify run; each function builds its own
    code, doc = _run(
        tmp_path, "verify", "--surface", surface, "--domain", domain,
        "--checks", "ricci,ecritical,soliton", "--delta", "0.04",
    )
    assert code == 0
    data = get_model(surface).data
    x0, x1, y0, y1 = (float(v) for v in domain.split(","))
    grid = RectDomain(x0, x1, y0, y1).grid(51, 51)
    one_by_one = [check(data, grid).to_dict() for check in (ecritical_residual, ricci_residual, soliton_check)]
    assert doc["reports"] == json.loads(dumps_json(one_by_one))


# exp(z^2) has K = 0 exactly at the node z = 0 (an umbilic)
UMBILIC_AT_NODE = ("verify", "--G", "exp(z^2)", "--h", "1")
# h = z makes lambda^2 = 0 exactly at the node z = 0 (a branch point)
BRANCH_POINT_AT_NODE = ("verify", "--G", "1+z", "--h", "z")


@pytest.mark.parametrize("check", ["ricci", "ecritical", "soliton"])
@pytest.mark.parametrize("surface", [UMBILIC_AT_NODE, BRANCH_POINT_AT_NODE], ids=["umbilic", "branch-point"])
def test_stencil_checks_guard_a_zero_on_a_node(tmp_path, surface, check):
    code, doc = _run(tmp_path, *surface, "--domain", "-1,1,-1,1", "--delta", "0.05", "--checks", check)
    assert code == 0
    assert [r["check"] for r in doc["reports"]] == [check]
    assert all(math.isfinite(v) for v in doc["reports"][0]["stats"].values())


@pytest.mark.parametrize("check", ["ricci", "ecritical", "soliton"])
def test_stencil_checks_with_every_node_guarded_are_a_numeric_failure(tmp_path, check):
    # a 9x9 grid: every interior node lies within the guard radius of z = 0
    argv = (*UMBILIC_AT_NODE, "--domain", "-0.04,0.04,-0.04,0.04", "--delta", "0.01", "--checks", check)
    code, doc = _run(tmp_path, *argv)
    assert code == 2
    assert doc["error"]["code"] == "umbilic-on-grid"


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
        # a check must test the surface it is given
        ("verify", "--G", "-exp(z)", "--h", "1", "--domain", "-1,1,-1,1", "--checks", "liouville"),
        ("verify", "--surface", "catenoid", "--t", "0.5", "--checks", "ht-period"),
        # grids over MAX_GRID_NODES, refused before they are allocated
        ("analyze", "--surface", "catenoid", "--grid", "100000x100000"),
        ("mesh", "--surface", "catenoid", "--grid", "100000x100000", "--obj", os.devnull),
        ("reconstruct", "--rho", "1", "--grid", "2000x2000", "--obj", os.devnull),
        ("verify", "--surface", "catenoid", "--delta", "1e-6"),
        ("verify", "--surface", "catenoid", "--delta", "5e-324"),
        ("verify", "--surface", "catenoid", "--delta", "0.01", "--domain", "-inf,1,-1,1"),
        ("reconstruct", "--rho", "1", "--samples", "0"),
        ("reconstruct", "--rho", "1", "--samples", "-3"),
        ("norm", "--surface", "catenoid", "--x-cut", "0"),
        ("norm", "--surface", "catenoid", "--x-cut", "-5"),
        ("norm", "--surface", "catenoid", "--x-cut", "nan"),
        ("norm", "--surface", "catenoid", "--x-cut", "inf"),
        # a non-finite domain bound
        ("norm", "--G", "z", "--h", "1", "--domain", "0,inf,0,1"),
        ("analyze", "--G", "z", "--h", "1", "--domain", "0,inf,0,1"),
        ("mesh", "--G", "z", "--h", "1", "--domain", "0,inf,0,1", "--obj", os.devnull),
        ("verify", "--surface", "catenoid", "--checks", "ricci,bogus"),
        # expressions too deep to evaluate, refused while parsing
        ("analyze", "--G", "(" * 3000 + "z" + ")" * 3000, "--h", "1", "--domain", "0.5,1,0,1", "--grid", "8x8"),
        ("analyze", "--G", "exp(" * 300 + "z" + ")" * 300, "--h", "1", "--domain", "0.5,1,0,1", "--grid", "8x8"),
        ("analyze", "--G", "+".join(["z"] * 5000), "--h", "1", "--domain", "0.5,1,0,1", "--grid", "8x8"),
        ("norm", "--G", "z", "--h", "-" * 5000 + "z", "--domain", "0.5,1,0,1"),
        ("reconstruct", "--rho", "z*" * 5000 + "z"),
        # expressions that do not parse
        ("analyze", "--G", "z +", "--h", "1", "--domain", "0.5,1,0,1", "--grid", "8x8"),
        ("analyze", "--G", "z", "--h", "z +", "--domain", "0.5,1,0,1", "--grid", "8x8"),
        ("reconstruct", "--rho", "z +"),
        # a NaN or infinite Hill state or scale
        ("reconstruct", "--rho", "0", "--mu", "inf"),
        ("reconstruct", "--rho", "0", "--mu", "nan"),
        ("reconstruct", "--rho", "0", "--nu", "1e400"),
        ("reconstruct", "--rho", "0", "--phi", "0", "--alpha", "1e400"),
        ("analyze", "--surface", "enneper", "--mu", "nan", "--grid", "8x8"),
        # more samples than MAX_SAMPLES, refused before the Hill march
        ("reconstruct", "--rho", "1", "--samples", str(MAX_SAMPLES + 1)),
    ],
)
def test_nonpositive_or_nonfinite_step_and_tolerance_are_bad_input(tmp_path, monkeypatch, capsys, argv):
    grid = RectDomain.grid

    def guarded_grid(self, nx, ny):
        assert nx * ny <= MAX_GRID_NODES, f"a {nx}x{ny} grid was allocated"
        return grid(self, nx, ny)

    def refused_march(*args, **kwargs):
        raise AssertionError("the Hill equation was integrated")

    monkeypatch.setattr(RectDomain, "grid", guarded_grid)
    monkeypatch.setattr(cli, "integrate_hill", refused_march)
    code, doc = _run(tmp_path, *argv)
    assert code == 1
    assert doc["error"]["code"] == "bad-input"
    assert capsys.readouterr().err == ""


def test_mesh_command_at_bench_size_matches_closed_form(tmp_path):
    # at 256^2 nearly every edge takes the Hermite rule (t = 0.4114 sends a
    # few to the adaptive engine); 9 printed digits bound the OBJ at 1e-7
    obj, side = tmp_path / "ct.obj", tmp_path / "ct.json"
    code, doc = _run(
        tmp_path, "mesh", "--surface", "deformed-catenoid", "--t", "0.4114", "--grid", "256x256",
        "--obj", str(obj), "--sidecar", str(side),
    )
    assert code == 0 and doc["vertices"] == 256 * 256
    model = deformed_catenoid(0.4114)
    grid = model.data.domain.grid(256, 256)
    origin = model.closed_form(grid.xs[0], grid.ys[0])
    ref = np.array([model.closed_form(x, y) - origin for y in grid.ys for x in grid.xs])
    with open(obj) as fh:
        got = np.array([line.split()[1:] for line in fh if line.startswith("v ")], dtype=np.float64)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-7 * max(1.0, np.abs(ref).max())
    assert len(json.loads(side.read_text())["K"]) == 256 * 256


def test_analyze_far_out_raises_no_numpy_warning(tmp_path):
    # exp overflows at every node: all fields null, the summaries null, no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = _run(
            tmp_path, "analyze", "--surface", "deformed-catenoid", "--t", "0.4",
            "--domain", "700,800,0,6", "--grid", "16x16",
        )
    assert code == 0
    assert doc["summary"]["max_T_norm"] is None and doc["summary"]["max_That_norm"] is None


def test_node_limit_admits_a_grid_at_the_limit(tmp_path, monkeypatch):
    # nothing past the parse is run: the grid itself is replaced
    def stop(self, nx, ny):
        raise RuntimeError(f"grid {nx}x{ny}")

    monkeypatch.setattr(RectDomain, "grid", stop)
    with pytest.raises(RuntimeError, match="grid 1024x1024"):
        main(["analyze", "--surface", "catenoid", "--grid", "1024x1024"])
    with pytest.raises(RuntimeError, match="grid 1024x1024"):
        main(["verify", "--surface", "catenoid", "--delta", str(2 / 1023)])
    assert _run(tmp_path, "analyze", "--surface", "catenoid", "--grid", "1024x1025")[0] == 1


def test_analyze_with_no_finite_curvature_is_a_numeric_failure(tmp_path):
    # h = 0: the metric vanishes, so K is finite at no node
    code, doc = _run(tmp_path, "analyze", "--G", "z", "--h", "0", "--domain", "-1,1,-1,1")
    assert code == 2
    assert doc["error"]["code"] == "degenerate-point"


@pytest.mark.parametrize("module", ["scipy", "numpy.polynomial"])
def test_cli_import_leaves_scipy_out(module):
    # numpy.polynomial builds the Gauss-Legendre rule, on first use only
    import subprocess
    import sys

    probe = f"import sys, entropydiff.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
