"""The writers that format many values per call against the per-element
writers they replaced.

The oracles below are the per-element ``dumps_json``, ``_float_grid``,
``write_obj`` and ``write_sidecar`` that formatted one Python value per
call.  The writers must keep their bytes exactly.  The text module's
kernels are held to Python's own text of each element: ``format(x, ".17g")``
for the report, ``"%.9g" % x`` for the OBJ and ``json.dumps`` for the
sidecar.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from entropydiff import _text
from entropydiff.cli import build_parser, cmd_analyze, dumps_json, main
from entropydiff.geomnum import RectDomain
from entropydiff.models import get_model
from entropydiff.surface import SurfaceMesh, grid_faces, sample_mesh, write_obj, write_sidecar

# ---------------------------------------------------------------------------
# Oracles: the per-element writers
# ---------------------------------------------------------------------------


def _oracle_fmt_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def oracle_dumps_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  "{k}": {oracle_dumps_json(v, indent + 2)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = [oracle_dumps_json(v, indent) for v in obj]
        flat = ", ".join(seq)
        if len(flat) <= 100:
            return "[" + flat + "]"
        return "[\n" + ",\n".join(pad + "  " + s for s in seq) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _oracle_fmt_float(float(obj))
    if isinstance(obj, complex):
        return oracle_dumps_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def oracle_float_grid(arr) -> list:
    """Nested lists of floats, None for the non-finite ones, for an array of any rank >= 1."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim > 1:
        return [oracle_float_grid(a) for a in arr]
    return [None if not np.isfinite(v) else float(v) for v in arr]


def oracle_write_obj(mesh, path):
    ny, nx = mesh.zs.shape
    with open(path, "w") as fh:
        fh.write(f"# entropydiff surface mesh {nx}x{ny}\n")
        for p in mesh.positions.reshape(-1, 3):
            fh.write("v %.9g %.9g %.9g\n" % (p[0], p[1], p[2]))
        for n in mesh.normals.reshape(-1, 3):
            fh.write("vn %.9g %.9g %.9g\n" % (n[0], n[1], n[2]))
        for a, b, c in mesh.faces + 1:
            fh.write(f"f {a}//{a} {b}//{b} {c}//{c}\n")


def oracle_write_sidecar(mesh, path):
    doc = {
        "schema": 1,
        "nx": mesh.zs.shape[1],
        "ny": mesh.zs.shape[0],
        "K": [float(v) for v in mesh.K.reshape(-1)],
        "T_norm": [float(v) for v in mesh.T_norm.reshape(-1)],
        "That_norm": [float(v) for v in mesh.That_norm.reshape(-1)],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Random arrays with the awkward values
# ---------------------------------------------------------------------------

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.0, -3.0, 1e16, 1e300, 0.1]


def _awkward(rng, shape) -> np.ndarray:
    """Normals, uniform bit patterns, integral floats and the SPECIAL values."""
    n = int(np.prod(shape))
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    pool = np.stack(
        [
            rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n),
            bits.view(np.float64),
            np.round(rng.normal(size=n) * 100.0),
            rng.choice(SPECIAL, n),
        ]
    )
    return pool[rng.integers(0, 4, n), np.arange(n)].reshape(shape)


def _rows_around_the_inline_limit():
    # k ones joined by ", " take 3k - 2 characters; one "10" adds one
    at_limit = np.ones(34)  # 100 characters: inline
    over = at_limit.copy()
    over[0] = 10.0  # 101 characters: one element per line
    return [at_limit, over, np.full(8, np.nan), np.array([np.inf]), np.array([-0.0]), np.array([]), np.full(20, np.nan)]


@pytest.mark.parametrize("seed", range(6))
def test_dumps_json_matches_the_per_element_oracle_on_grids(seed):
    # rows of 35 or more elements take the one-% path of the whole array
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (1, 7), (3, 1), (2, 4), (5, 9), (17, 6), (3, 34), (4, 35), (2, 64), (2, 3, 40), (0, 40), (3, 0)]
    for shape in shapes:
        arr = _awkward(rng, shape)
        doc = {"fields": {"a": arr, "b": arr[..., ::-1]}, "x": 1.5}
        oracle = {"fields": {"a": oracle_float_grid(arr), "b": oracle_float_grid(arr[..., ::-1])}, "x": 1.5}
        assert dumps_json(doc) == oracle_dumps_json(oracle)


def test_dumps_json_matches_the_oracle_around_the_inline_limit():
    rows = _rows_around_the_inline_limit()
    for indent in (0, 2, 6):
        for row in rows:
            assert dumps_json(row, indent) == oracle_dumps_json(oracle_float_grid(row[None, :])[0], indent)
            grid = np.stack([row, row]) if row.size else np.empty((2, 0))
            assert dumps_json({"g": grid}, indent) == oracle_dumps_json({"g": oracle_float_grid(grid)}, indent)
    assert "\n" not in dumps_json(rows[0]) and "\n" in dumps_json(rows[1])


def test_dumps_json_scalars_keep_their_rule():
    doc = {
        "s": [np.inf, -np.inf, np.nan, -0.0, 5e-324, np.float64(0.1), 3, np.int64(4), True, None],
        "z": 1.0 - 2.5j,
        "name": 'a "b" \\ c',
        "empty": {},
    }
    text = dumps_json(doc)
    assert text == oracle_dumps_json(doc)
    assert '"inf", "-inf", null' in text


def test_dumps_json_numpy_bools_and_0d_arrays_take_the_scalar_rules():
    doc = {
        "bools": [np.bool_(True), np.bool_(False), np.array(True)],
        "0-d": [np.array(2.5), np.array(np.inf), np.array(np.nan), np.array(7), np.array(1.0 - 2.5j)],
        "one": np.array(-0.0),
    }
    oracle = {"bools": [True, False, True], "0-d": [2.5, np.inf, np.nan, 7, 1.0 - 2.5j], "one": -0.0}
    assert dumps_json(doc) == oracle_dumps_json(oracle)
    assert dumps_json(np.bool_(True)) == "true" and dumps_json(np.array(0.1)) == "0.10000000000000001"
    with pytest.raises(TypeError):  # as a short complex row does; the kernel takes real values only
        dumps_json(np.ones((2, 40), dtype=complex))


# ---------------------------------------------------------------------------
# The %.17g kernel against format(x, ".17g"), byte for byte
# ---------------------------------------------------------------------------


def _tokens(x: np.ndarray) -> list:
    return [format(v, ".17g") if math.isfinite(v) else "null" for v in x.tolist()]


def _powers_of_ten_and_their_neighbours() -> np.ndarray:
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])  # 10^k correctly rounded
    near = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])
    return np.concatenate([near, -near])


KERNEL_CASES = {
    # 8 x 2^17 uniform bit patterns: every exponent, NaNs and infinities among them
    **{f"bits-{seed}": (lambda seed=seed: np.random.default_rng(seed).integers(0, 2**64, 1 << 17, dtype=np.uint64).view(np.float64)) for seed in range(8)},
    "next to 10^k": _powers_of_ten_and_their_neighbours,
    "2^k": lambda: np.ldexp(1.0, np.arange(-1074, 1024)),
    # 1 + k 2^-17 has 18 significant digits, the last a 5: an exact tie at 17
    "ties": lambda: 1.0 + np.arange(1, 1 << 17, 2) * 2.0**-17,
    "special": lambda: np.array(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-270, 1e270,
         np.nextafter(1e-270, 0.0), np.nextafter(1e270, np.inf), 1.7976931348623157e308, np.inf, -np.inf, np.nan,
         1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 1e-4, 1e-5, 0.5, 123.5, 100.0, 1.0 / 3.0]
    ),
}


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_g17_kernel_matches_format_byte_for_byte(case):
    x = KERNEL_CASES[case]()
    sep = ",\n      "
    assert _text.text([_text.float_rows(x, _text.G17), sep.encode()], x.size) == "".join(t + sep for t in _tokens(x))


def _counting(style, calls):
    """``style``, with its Python text counting the elements it writes."""

    def python(v):
        calls.append(v)
        return style.python(v)

    return style._replace(python=python)


def test_g17_kernel_writes_ordinary_values_itself_and_hands_ties_to_python(monkeypatch):
    calls = []

    def counting_format(v, spec):
        calls.append(v)
        return format(v, spec)

    monkeypatch.setattr(_text, "format", counting_format, raising=False)
    rng = np.random.default_rng(5)
    # below 2^50: between 2^50 and 2^53 a double with a fraction is often an exact 17-digit tie
    ordinary = rng.normal(size=1 << 16) * 10.0 ** rng.integers(-30, 14, 1 << 16)
    assert _text.text([_text.float_rows(ordinary, _text.G17)], ordinary.size) == "".join(_tokens(ordinary))
    assert len(calls) < 1e-3 * ordinary.size  # only values next to a power of ten
    calls.clear()
    ties = KERNEL_CASES["ties"]()
    assert _text.text([_text.float_rows(ties, _text.G17)], ties.size) == "".join(_tokens(ties))
    assert len(calls) == ties.size


def _shortest_of_each_length() -> np.ndarray:
    """Values whose shortest text has 1 to 17 significant digits, 4096 of each, at every decimal exponent."""
    rng = np.random.default_rng(11)
    texts = []
    for n in range(1, 18):
        mantissas = rng.integers(10 ** (n - 1), 10**n, 4096)
        exponents = rng.integers(-320, 300, 4096)
        texts += [f"{m}e{k}" for m, k in zip(mantissas.tolist(), exponents.tolist())]
    return np.array([float(t) for t in texts])


def _notation_switches() -> np.ndarray:
    """1e-4, 1e9 and 1e16, where fixed and scientific notation meet, each with
    its neighbouring doubles, and values that round up into the next decade."""
    edges = np.array([1e-4, 1e8, 1e9, 1e15, 1e16, 1e17])
    near = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    round_up = np.array([999999999.5, 999999999.4999999, 99999999.95, 9.9999999995e-5, 9999999999999998.0, 0.99999999995])
    return np.concatenate([near, -near, round_up, -round_up, [0.0, -0.0, np.inf, -np.inf, np.nan]])


SHORT_CASES = {
    **KERNEL_CASES,
    "shortest of 1 to 17 digits": _shortest_of_each_length,
    "notation switches": _notation_switches,
    # 10 digits ending in 5: exact ties at 9 digits
    "ties at 9 digits": lambda: np.arange(1_000_000_005, 1_000_000_005 + 10 * (1 << 14), 10, dtype=np.float64),
    "subnormals": lambda: np.concatenate([np.arange(1, 1 << 12) * 5e-324, 2.2250738585072009e-308 - np.arange(1 << 12) * 5e-324]),
}
SHORT_STYLES = {
    "g9": (_text.G9, lambda x: ("%.9g\n" * x.size % tuple(x.tolist())).split("\n")[:-1]),
    # json.dumps writes a float list's elements as the sidecar does: repr, NaN, Infinity, -Infinity
    "repr": (_text.JSON, lambda x: json.dumps(x.tolist())[1:-1].split(", ") if x.size else []),
}


@pytest.mark.parametrize("style", SHORT_STYLES)
@pytest.mark.parametrize("case", SHORT_CASES)
def test_g9_and_shortest_kernels_match_python_byte_for_byte(case, style):
    x = SHORT_CASES[case]()
    kernel, oracle = SHORT_STYLES[style]
    assert _text.text([_text.float_rows(x, kernel), b"|"], x.size) == "".join(t + "|" for t in oracle(x))


@pytest.mark.parametrize("style", SHORT_STYLES)
def test_g9_and_shortest_kernels_write_ordinary_values_themselves(style):
    calls = []
    kernel, oracle = SHORT_STYLES[style]
    rng = np.random.default_rng(6)
    # below 10^14, as above: from about 2^47 on a double with a fraction is often an exact
    # decimal tie at 16 or 17 digits, where Python's tie rule decides the shortest text
    ordinary = rng.normal(size=1 << 16) * 10.0 ** rng.integers(-30, 14, 1 << 16)
    assert _text.text([_text.float_rows(ordinary, _counting(kernel, calls))], ordinary.size) == "".join(oracle(ordinary))
    assert len(calls) < 1e-3 * ordinary.size


def test_ties_at_9_digits_and_powers_of_two_go_to_python():
    calls = []
    ties = SHORT_CASES["ties at 9 digits"]()
    assert _text.text([_text.float_rows(ties, _counting(_text.G9, calls))], ties.size) == "".join(SHORT_STYLES["g9"][1](ties))
    assert len(calls) == ties.size
    calls.clear()
    powers = KERNEL_CASES["2^k"]()  # the gap below 2^k is half the gap above: the shortest text is Python's
    assert _text.text([_text.float_rows(powers, _counting(_text.JSON, calls))], powers.size) == "".join(SHORT_STYLES["repr"][1](powers))
    assert len(calls) == powers.size


def test_index_digits_across_every_digit_count():
    ids = np.array([v for k in range(1, 19) for v in (10**k - 2, 10**k - 1, 10**k) if v < 10**18] + [0, 1, 2, 10**18 - 1])
    assert _text.text([_text.index_rows(ids), b" "], ids.size) == "".join(f"{v} " for v in ids.tolist())
    for bad in ([-1], [10**18]):
        with pytest.raises(ValueError):
            _text.index_rows(np.array(bad))


def test_the_power_table_is_ten_to_the_k_in_double_double():
    hi, top, bottom, lo = (v.tolist() for v in _text._powers_of_ten())
    for k, h, t, b, low in zip(_text._POWERS, hi, top, bottom, lo):
        exact = Fraction(10) ** k
        assert abs(Fraction(h) + Fraction(low) - exact) <= exact / 2**105
        assert t + b == h and _significant_bits(t) <= 26 and _significant_bits(b) <= 26  # Dekker's halves


def _significant_bits(v: float) -> int:
    m = abs(v.as_integer_ratio()[0])
    return (m // (m & -m)).bit_length() if m else 0


def _mesh(rng, ny, nx) -> SurfaceMesh:
    domain = RectDomain(0.0, 1.0, 0.0, 1.0)
    return SurfaceMesh(
        grid=domain.grid(nx, ny),
        zs=np.zeros((ny, nx), dtype=np.complex128),
        positions=_awkward(rng, (ny, nx, 3)),
        normals=_awkward(rng, (ny, nx, 3)),
        K=_awkward(rng, (ny, nx)),
        T_norm=_awkward(rng, (ny, nx)),
        That_norm=_awkward(rng, (ny, nx)),
        faces=grid_faces(ny, nx),
    )


def _writers_match_the_oracles(tmp_path, mesh):
    for new, old in [(write_obj, oracle_write_obj), (write_sidecar, oracle_write_sidecar)]:
        new(mesh, tmp_path / "new")
        old(mesh, tmp_path / "old")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


# 100x100 and 129x131 span more than one kernel call, and 129x131 ends in a short one for
# every block; 2x5001 and 5001x2 number vertices 1 to 10002
@pytest.mark.parametrize("ny,nx", [(8, 8), (9, 13), (100, 100), (129, 131), (2, 5001), (5001, 2)])
def test_mesh_writers_match_the_per_element_oracles(tmp_path, ny, nx):
    _writers_match_the_oracles(tmp_path, _mesh(np.random.default_rng(ny * nx), ny, nx))


def test_obj_faces_with_ids_of_every_digit_count(tmp_path):
    mesh = _mesh(np.random.default_rng(3), 2, 2)
    ids = [0] + [10**k + d for k in range(1, 18) for d in (-2, -1)] + [10**18 - 2]  # written 1 up to 10^18 - 1
    mesh.faces = np.array(ids).reshape(-1, 3)
    _writers_match_the_oracles(tmp_path, mesh)
    write_obj(mesh, tmp_path / "m.obj")
    assert (tmp_path / "m.obj").read_text().endswith(f"f {10**17 - 1}//{10**17 - 1} {10**17}//{10**17} {10**18 - 1}//{10**18 - 1}\n")


def test_writers_hold_a_block_at_a_time(tmp_path):
    # a whole-file % call once raised the mesh command's RSS from 78 to 117 MB; the 256x256
    # OBJ is 10.3 MB of text and its sidecar 4.2 MB
    mesh = sample_mesh(get_model("deformed-catenoid", t=0.3161).data, (256, 256))
    for writer in (write_obj, write_sidecar):
        writer(mesh, tmp_path / "warm")  # the text module and its table of powers of ten
        tracemalloc.start()
        try:
            writer(mesh, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def test_analyze_holds_one_block_of_jets():
    # a bundle over the whole 256x256 grid peaked at 19.1 MB; one block at a time takes 9.1 MB,
    # 4.2 MB of it the six fields of the report
    cmd_analyze(build_parser().parse_args(["analyze", "--surface", "catenoid", "--grid", "8x8"]))  # warm
    args = build_parser().parse_args(["analyze", "--surface", "deformed-catenoid", "--t", "0.3161", "--grid", "256x256"])
    tracemalloc.start()
    try:
        cmd_analyze(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


# ---------------------------------------------------------------------------
# CLI documents against the oracle on the same document
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("--surface", "catenoid", "--grid", "8x8"),
        ("--surface", "deformed-catenoid", "--t", "0.4114", "--grid", "16x16"),
        ("--G", "z", "--h", "1", "--domain=-1,1,-1,1", "--grid", "9x9"),  # nulls, inline rows
        ("--surface", "deformed-catenoid", "--t", "0.4114", "--grid", "40x9"),  # rows of 40: the kernel
        ("--surface", "deformed-catenoid", "--t", "0.3161", "--grid", "256x256"),  # the bench's, 4 kernel blocks a field
    ],
)
def test_analyze_report_matches_the_oracle(tmp_path, argv):
    out = tmp_path / "analyze.json"
    assert main(["analyze", *argv, "--out", str(out)]) == 0
    doc = cmd_analyze(build_parser().parse_args(["analyze", *argv]))
    doc["fields"] = {name: oracle_float_grid(arr) for name, arr in doc["fields"].items()}
    assert out.read_text() == oracle_dumps_json(doc) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--surface", "deformed-catenoid", "--t", "0.4114", "--grid", "40x9"),
        ("analyze", "--surface", "catenoid", "--t", "2"),  # the error document
    ],
)
def test_stdout_gets_the_bytes_of_the_out_file(tmp_path, capsysbinary, argv):
    out = tmp_path / "doc.json"
    code = main([*argv, "--out", str(out)])
    assert capsysbinary.readouterr().out == b""
    assert main(list(argv)) == code
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_mesh_outputs_match_the_oracle(tmp_path):
    obj, side = tmp_path / "m.obj", tmp_path / "m.json"
    argv = ["mesh", "--surface", "deformed-catenoid", "--t", "0.4", "--grid", "16x16"]
    assert main(argv + ["--obj", str(obj), "--sidecar", str(side), "--out", str(tmp_path / "doc.json")]) == 0
    mesh = sample_mesh(get_model("deformed-catenoid", t=0.4).data, (16, 16))
    oracle_write_obj(mesh, tmp_path / "o.obj")
    oracle_write_sidecar(mesh, tmp_path / "o.json")
    assert obj.read_bytes() == (tmp_path / "o.obj").read_bytes()
    assert side.read_bytes() == (tmp_path / "o.json").read_bytes()
