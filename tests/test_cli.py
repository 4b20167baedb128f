"""CLI behavior: commands, exit codes, JSON determinism."""

import json
import math
import os
import time
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
    assert doc["mesh_steps"] >= 1 and doc["mesh_rejected"] >= 0


@pytest.mark.parametrize("rho", ["1/(z-0.5)", "1/(z-1)", "1/(z-0.5-1i)"], ids=["interior", "last-column", "top-row"])
def test_a_pole_of_rho_on_a_mesh_node_is_a_pole_on_path(tmp_path, rho):
    # off the sample path 0 -> 0.9(1 + i), on a node of the 9x9 grid
    code, doc = _run(tmp_path, "reconstruct", "--rho", rho, "--grid", "9x9", "--obj", str(tmp_path / "m.obj"))
    assert code == 2 and doc["error"]["code"] == "pole-on-path"


def test_a_pole_of_rho_between_mesh_rows_integrates(tmp_path):
    code, doc = _run(tmp_path, "reconstruct", "--rho", "1/(z-0.5-0.125i)", "--grid", "9x9", "--obj", str(tmp_path / "m.obj"))
    assert code == 0 and doc["round_trip"]["pass"]
    assert doc["mesh_wronskian_drift"] < 1e-10


def test_reconstruct_prints_one_row_per_path_vertex(tmp_path):
    code, doc = _run(tmp_path, "reconstruct", "--rho", "z", "--domain=-3,3,-3,3", "--samples", "2")
    assert code == 0
    reach = complex(3.0, 3.0) * 0.9
    zs = [complex(s["z"]["re"], s["z"]["im"]) for s in doc["samples"]]
    assert zs == [0.0] + [reach * t for t in np.linspace(0.5, 1.0, 2)]


@pytest.mark.parametrize("rho", ["-z", "-(1)"])
def test_reconstruct_takes_a_rho_with_a_leading_minus_as_a_value(tmp_path, rho):
    def out_bytes(*argv):
        out = tmp_path / "out.json"
        assert main([*argv, "--samples", "2", "--out", str(out)]) == 0
        return out.read_bytes()

    assert out_bytes("reconstruct", "--rho", rho) == out_bytes("reconstruct", f"--rho={rho}")


def test_reconstruct_on_a_path_of_repeated_vertices(tmp_path):
    # a domain whose corner is 0 puts every sample at the base point
    code, doc = _run(tmp_path, "reconstruct", "--rho=-1", "--domain=-1,0,-1,0", "--samples", "3")
    assert code == 0 and doc["round_trip"]["pass"]
    assert [(s["z"]["re"], s["z"]["im"]) for s in doc["samples"]] == [(0, 0)] * 4


@pytest.mark.parametrize("argv", [("--rho", "1e300*z", "--samples", "5"), ("--rho", "z", "--domain=0,1e300,0,1e300")],
                         ids=["series", "weights"])
def test_an_overflowing_taylor_step_is_a_quiet_step_failure(tmp_path, capsys, argv):
    code, doc = _run(tmp_path, "reconstruct", *argv)
    assert code == 2 and doc["error"]["code"] == "step-failure"
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("surface", [("enneper",), ("deformed-catenoid", "--t", "0.35"), ("deformed-helicoid", "--t", "0.35")])
def test_default_verify_passes_on_every_surface_over_one_patch(tmp_path, surface):
    # ricci and ecritical over [-1, 1]^2 at delta = 0.01, judged by their observed order
    code, doc = _run(tmp_path, "verify", "--surface", *surface)
    assert code == 0 and doc["all_passed"]
    assert [r["params"]["nx"] for r in doc["reports"]] == [201, 201]
    assert all(1.8 <= r["stats"]["observed_order"] <= 2.2 and r["tol"] == 1.5 for r in doc["reports"])


def test_verify_floor_leaves_every_other_node_a_stencil(tmp_path):
    code, doc = _run(tmp_path, "verify", "--surface", "catenoid", "--delta", "1", "--checks", "ricci,liouville")
    assert code == 0
    assert doc["reports"][1]["params"]["nx"] == 9


def test_verify_reports_the_spacing_it_ran_at(tmp_path):
    # --delta 1 asks for 3x3 nodes; the floor of 9x9 runs at 0.25, which is the spacing reported
    code, doc = _run(tmp_path, "verify", "--surface", "catenoid", "--delta", "1", "--checks", "ricci")
    assert code == 0
    assert doc["params"]["delta"] == doc["reports"][0]["params"]["delta"] == 0.25


def test_periodic_y_is_not_an_option():
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--G", "-exp(z)", "--h", "1", "--domain=-1,1,0,6.28", "--periodic-y", "6.28"])
    assert exc.value.code == 1


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
    assert list(doc) == ["schema", "command", "params", "norm"]


def test_norm_on_the_whole_strip_reports_its_estimate_in_repeatable_bytes(tmp_path):
    argv = ["norm", "--surface", "deformed-helicoid", "--t", "0.35"]
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(argv + ["--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_text())
    assert doc["params"]["domain"] == [-30, 30, 0, 2 * math.pi]
    assert 0 < doc["error_estimate"] <= 2 * math.sqrt(doc["norm"]) * 1.01e-6
    assert list(doc["diagnostics"]) == ["nodes", "x_halvings", "y_halvings", "truncation_bound"]
    assert 0 < doc["diagnostics"]["truncation_bound"] <= doc["error_estimate"]


@pytest.mark.parametrize(
    "argv",
    [
        ("norm", "--surface", "catenoid", "--tol", "1e-15"),
        # NaN fields at |x| = 30
        ("norm", "--surface", "deformed-catenoid", "--t", "0.999"),
        # tol under the rounding floor of the adaptive engine
        ("norm", "--surface", "catenoid", "--x-cut", "20", "--tol", "1e-15"),
        # tol just above it: panels within rounding of their children are accepted
        ("norm", "--surface", "catenoid", "--x-cut", "20", "--tol", "2e-14"),
    ],
)
def test_norm_that_cannot_converge_ends_quickly(tmp_path, argv):
    start = time.perf_counter()
    code, doc = _run(tmp_path, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code == 0 and math.isfinite(doc["norm"])) or (code == 2 and doc["error"]["code"] == "no-convergence")


@pytest.mark.parametrize("x_cut", ["700", "720", "1000"])
def test_norm_where_the_catenoid_fields_overflow_is_a_quick_numeric_failure(tmp_path, capsys, x_cut):
    # past |x| ~ 710 the density is inf * 0; its nodes used to raise a TypeError or refine to the budget
    start = time.perf_counter()
    code, doc = _run(tmp_path, "norm", "--surface", "catenoid", "--x-cut", x_cut)
    assert time.perf_counter() - start < 2.0
    assert code == 2 and doc["error"]["code"] == "no-convergence"
    assert capsys.readouterr().err == ""


def test_a_metric_factor_that_overflows_on_the_path_is_a_numeric_failure(tmp_path):
    # the state at 0 is representable; w2 = z/(2 mu) is not squared twice
    code, doc = _run(tmp_path, "reconstruct", "--rho", "0", "--mu", "1e-78")
    assert code == 2 and doc["error"]["code"] == "degenerate-point"


def test_a_metric_factor_that_overflows_on_the_mesh_is_a_numeric_failure(tmp_path):
    # |w| ~ e^200 at x = -2: the path and the round trip fit, the mesh does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = _run(
            tmp_path, "reconstruct", "--rho=-40000", "--phi", "0", "--alpha", "200",
            "--domain=-2,0.2,-2,0.2", "--grid", "16x16",
            "--obj", str(tmp_path / "a.obj"), "--sidecar", str(tmp_path / "a.json"),
        )
    assert code == 2 and doc["error"]["code"] == "degenerate-point"


def test_reconstruct_reads_rho_at_its_removable_points(tmp_path):
    code, doc = _run(tmp_path, "reconstruct", "--rho", "z/z")
    assert code == 0 and doc["round_trip"]["pass"]
    # rho = 1 - z, removable at z = 0, a node of the 9x9 grid
    side = tmp_path / "r.json"
    code, doc = _run(
        tmp_path, "reconstruct", "--rho", "(z^2-z^2*z)/z^2", "--grid", "9x9",
        "--obj", str(tmp_path / "r.obj"), "--sidecar", str(side),
    )
    assert code == 0 and doc["round_trip"]["pass"]
    T = json.loads(side.read_text())["T_norm"]
    assert all(map(math.isfinite, T)) and T[40] > 0


def test_mesh_node_on_a_pole_of_the_data_is_a_numeric_failure(tmp_path):
    # h/G = 1/z^2: a pole of the Weierstrass 1-forms at the node z = 0
    code, doc = _run(
        tmp_path, "mesh", "--G", "z", "--h", "1/z", "--domain", "-1,1,-1,1", "--grid", "9x9",
        "--obj", str(tmp_path / "m.obj"),
    )
    assert code == 2 and doc["error"]["code"] == "pole-on-path"


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
    # beside the guard the identities still hold at each node; the soliton condition does not
    assert doc["reports"][0]["pass"] == (check != "soliton")


@pytest.mark.parametrize("check", ["ricci", "ecritical", "soliton"])
def test_stencil_checks_with_every_node_guarded_are_a_numeric_failure(tmp_path, check):
    # a 9x9 grid: every interior node lies within the guard radius of z = 0
    argv = (*UMBILIC_AT_NODE, "--domain", "-0.04,0.04,-0.04,0.04", "--delta", "0.01", "--checks", check)
    code, doc = _run(tmp_path, *argv)
    assert code == 2
    assert doc["error"]["code"] == "umbilic-on-grid"


def test_a_grid_with_k_nan_at_every_node_is_a_quiet_numeric_failure(tmp_path, capsys):
    # h = 0 makes the metric zero, so K is NaN at every node and no node survives the guard
    argv = ("verify", "--G", "z", "--h", "0", "--domain=400,401,800,801", "--checks", "soliton", "--delta", "0.05")
    code, doc = _run(tmp_path, *argv)
    assert code == 2
    assert doc["error"]["code"] == "umbilic-on-grid"
    assert capsys.readouterr().err == ""


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
        ("verify", "--surface", "catenoid", "--checks", "ht-period"),
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
        # finite scales whose metric factor or Gauss map does not fit a float
        ("reconstruct", "--rho", "0", "--mu", "1e300"),
        ("reconstruct", "--rho", "0", "--mu", "1e-300", "--nu", "1e300"),
        ("reconstruct", "--rho", "0", "--phi", "0", "--alpha", "1e-320"),
        ("analyze", "--surface", "enneper", "--mu", "1e-300", "--grid", "8x8"),
        ("analyze", "--surface", "enneper", "--mu", "inf", "--grid", "8x8"),
        ("norm", "--surface", "enneper", "--mu", "1e200"),
        # more samples than MAX_SAMPLES, refused before the Hill march
        ("reconstruct", "--rho", "1", "--samples", str(MAX_SAMPLES + 1)),
        # an expression surface has no catalog rho for liouville
        ("verify", "--G", "z", "--h", "1", "--domain=-1,1,-1,1", "--checks", "liouville"),
        # an option the run would not use
        ("norm", "--surface", "catenoid", "--t", "0.5"),
        ("norm", "--surface", "enneper", "--t", "0.5"),
        ("mesh", "--surface", "helicoid", "--t", "0.5", "--obj", os.devnull),
        ("analyze", "--G", "z", "--h", "1", "--domain=-1,1,-1,1", "--t", "0.5", "--grid", "8x8"),
        ("norm", "--surface", "catenoid", "--mu", "0.5"),
        ("analyze", "--surface", "deformed-catenoid", "--t", "0.3", "--mu", "0.5", "--grid", "8x8"),
        ("verify", "--G", "z", "--h", "1", "--domain=-1,1,-1,1", "--mu", "0.5"),
        ("reconstruct", "--rho=-1", "--phi", "0", "--alpha", "1", "--mu", "1"),
        ("reconstruct", "--rho=-1", "--phi", "0", "--alpha", "1", "--nu", "0.5"),
        ("reconstruct", "--rho", "1", "--sidecar", os.devnull),
        # --x-cut would replace the x-range of an explicit --domain
        ("norm", "--surface", "catenoid", "--domain=0,1,0,1", "--x-cut", "3"),
        ("norm", "--G", "exp(z)", "--h", "1", "--domain=0,1,0,1", "--x-cut", "3"),
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
    assert "None" not in doc["error"]["message"]  # an expression surface is named as such
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


@pytest.mark.parametrize("G", ["1e400*z", "z + 1e309i"])
def test_a_literal_that_overflows_a_float_is_bad_input(tmp_path, G):
    code, doc = _run(tmp_path, "analyze", "--G", G, "--h", "1", "--domain=-1,1,-1,1", "--grid", "8x8")
    assert code == 1
    assert doc["error"]["code"] == "bad-input"
    assert "out of range" in doc["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [("reconstruct", "--rho", "0", "--nu", "1/0"), ("reconstruct", "--rho", "0", "--nu", "1e200*1e200"),
     ("reconstruct", "--rho=-1", "--phi", "0", "--alpha", "exp(1000)")],
)
def test_a_state_constant_that_is_not_finite_is_bad_input(tmp_path, argv):
    # a pole at 0 reads NaN and an overflow inf; either is refused by name
    code, doc = _run(tmp_path, *argv)
    assert code == 1
    assert doc["error"]["code"] == "bad-input"
    assert argv[-2] in doc["error"]["message"]


@pytest.mark.parametrize(
    "flag, argv",
    [
        # a text that does not parse
        ("--G", ("analyze", "--G", "1e400", "--h", "1", "--domain=-1,1,-1,1")),
        ("--h", ("analyze", "--G", "z", "--h", "z +", "--domain=-1,1,-1,1")),
        ("--rho", ("reconstruct", "--rho", "1e400")),
        ("--nu", ("reconstruct", "--rho", "0", "--nu", "1e400")),
        ("--alpha", ("reconstruct", "--rho", "0", "--phi", "0", "--alpha", "1e400")),
        # a state constant that depends on z
        ("--nu", ("reconstruct", "--rho", "0", "--nu", "z+1", "--samples", "2")),
        ("--alpha", ("reconstruct", "--rho=-1", "--phi", "0", "--alpha", "z-z")),
        # a mesh setting without the mesh of --obj
        ("--grid", ("reconstruct", "--rho", "1", "--grid", "2000x2000", "--samples", "3")),
        ("--grid", ("reconstruct", "--rho", "1", "--grid", "8x8")),
    ],
)
def test_bad_input_names_its_flag(tmp_path, flag, argv):
    code, doc = _run(tmp_path, *argv)
    assert code == 1
    assert doc["error"]["code"] == "bad-input"
    assert doc["error"]["message"].split()[0].rstrip(":") == flag


def test_reconstruct_obj_takes_a_32x32_mesh_by_default(tmp_path):
    obj = tmp_path / "m.obj"
    code, doc = _run(tmp_path, "reconstruct", "--rho=-1", "--phi", "0", "--alpha", "1", "--samples", "3", "--obj", str(obj))
    assert code == 0
    assert obj.read_text().count("\nv ") == 32 * 32


@pytest.mark.parametrize("argv", [("analyze", "--grid"), ("mesh", "--surface", "catenoid"), ()])
def test_a_usage_error_ends_in_the_error_document(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["error"]["code"] == "bad-input"
    assert err == ""


_SEQUENCE = [  # calls whose defaults a shared parser must not carry over
    ("verify", "--surface", "catenoid", "--checks", "soliton", "--delta", "0.1"),
    ("verify", "--surface", "catenoid", "--delta", "0.1"),
    ("reconstruct", "--rho", "1", "--samples", "3", "--grid", "8x8", "--obj", "{obj}"),
    ("reconstruct", "--rho", "1", "--samples", "3"),
    ("analyze", "--grid"),  # a usage error
    ("norm", "--surface", "catenoid", "--tol", "1e-3"),
]


def _run_sequence(tmp_path, capsys) -> list:
    """Each call of ``_SEQUENCE`` in turn: its exit code, what it wrote to
    stdout and stderr, and the bytes of its --out and --obj files."""
    runs = []
    for argv in _SEQUENCE:
        paths = [tmp_path / "out.json", tmp_path / "r.obj"]
        for p in paths:
            p.unlink(missing_ok=True)
        try:
            code = main([a.replace("{obj}", str(paths[1])) for a in argv] + ["--out", str(paths[0])])
        except SystemExit as exc:
            code = exc.code
        runs.append((code, tuple(capsys.readouterr()), [p.read_bytes() if p.exists() else None for p in paths]))
    return runs


def test_calls_that_share_the_parser_write_the_bytes_of_a_fresh_parser(tmp_path, capsys, monkeypatch):
    shared = _run_sequence(tmp_path, capsys)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a new parser every call
    assert _run_sequence(tmp_path, capsys) == shared
    soliton, plain, mesh, no_mesh, usage, norm = shared
    assert [r["check"] for r in json.loads(plain[2][0])["reports"]] == ["ecritical", "ricci"]
    assert "obj" in json.loads(mesh[2][0])
    assert "obj" not in json.loads(no_mesh[2][0]) and no_mesh[2][1] is None
    assert usage[0] == 1 and json.loads(usage[1][0])["error"]["code"] == "bad-input"
    assert norm[0] == 0 and "error" not in json.loads(norm[2][0])


def test_every_call_takes_the_one_parser():
    assert cli.build_parser() is cli.build_parser()


def _child_env():
    """The environment of a child interpreter that finds the package as this
    process does, with or without PYTHONPATH."""
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_every_command_runs_on_numpy_alone(tmp_path):
    # mpmath, sympy and scipy are for the tests; a run must not import them
    import subprocess
    import sys

    obj = str(tmp_path / "m.obj")
    runs = [
        ["analyze", "--surface", "deformed-catenoid", "--t", "0.3", "--grid", "8x8"],
        ["reconstruct", "--rho=-1", "--phi", "0", "--alpha", "1", "--samples", "5", "--grid", "8x8", "--obj", obj],
        ["verify", "--surface", "catenoid", "--checks", "ricci,ecritical,soliton,liouville", "--delta", "0.1"],
        ["norm", "--surface", "catenoid", "--tol", "1e-3"],
        ["mesh", "--surface", "enneper", "--grid", "8x8", "--obj", obj, "--sidecar", str(tmp_path / "m.json")],
    ]
    child = (
        "import contextlib, io, json, sys\n"
        "sys.modules.update(dict.fromkeys(('mpmath', 'sympy', 'scipy')))\n"
        "from entropydiff.cli import main\n"
        "docs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = main(argv)\n"
        "    docs.append([code, out.getvalue()])\n"
        "print(json.dumps(docs))\n"
    )
    command = [sys.executable, "-c", child, json.dumps(runs)]
    done = subprocess.run(command, capture_output=True, text=True, env=_child_env(), timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    for argv, (code, out) in zip(runs, json.loads(done.stdout)):
        assert code == 0, argv
        assert "error" not in json.loads(out), argv  # one document, not an error


@pytest.mark.parametrize("module", ["scipy", "numpy.polynomial", "fractions", "decimal", "entropydiff._text"])
def test_cli_import_leaves_scipy_out(module):
    # numpy.polynomial builds the Gauss-Legendre rule, on first use only; cli and
    # surface import the text module on first use, and it builds its powers of ten from plain ints
    import subprocess
    import sys

    probe = f"import sys, entropydiff.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=_child_env())
    assert out.stdout.strip() == "False"


def test_cli_import_builds_no_parser():
    # the first main call builds it, so importing the CLI costs no more than before
    import subprocess
    import sys

    probe = "import entropydiff.cli as cli; print(cli.build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=_child_env())
    assert out.stdout.strip() == "0"
