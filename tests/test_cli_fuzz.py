"""Seeded fuzzing of the CLI contract with single-field scenario mutations.

Each mutation replaces one field (at any depth) of an example scenario by a
bad value, or deletes it, and runs the result through cli.main in-process.
Whatever the input, the CLI must exit 0, 2 or 3 without raising, and a
results.json it writes must be strict JSON: no NaN and no Infinity. Nor may
it hold the string "nan", which is how the CLI writes a NaN float; "inf" is
legal, since a polynomial curve's outer radius is infinite. The values are
small apart from HUGE, a float, which every integer field (grid, N, mode)
rejects, so no mutation can ask for a large grid or N; a timestep t_final
of HUGE asks for more RK4 steps than the stepper takes and exits 2. HUGE
may overflow on its way to a result; the CLI then exits 3 naming the
stage, and every mutation runs under the suite's RuntimeWarning error
filter, so a warning is a failure too. Between them the bases hold every
field of the CLI schema, which a second test checks.
"""

import copy
import glob
import json
import os

import numpy as np
import pytest

from trgeo import cli

SEED = 20240607
N_MUTATIONS = 400
HUGE = 1e300
DELETE = object()          # the mutation that removes the field
VALUES = [None, "x", -1, 0, 0.5, [], {}, float("nan"), HUGE, 10 ** 400, DELETE]
EXAMPLES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                         "scenarios", "*.json")))
DENSITY = {
    "version": 1, "name": "density-16", "operation": "variation.density",
    "chart": {"name": "flat_c2"},
    "immersion": {"formula": "graph_perturbed_torus", "grid": 16,
                  "args": {"r1": 1.0, "r2": 1.0, "amplitude": 0.3, "mode": [1, 1]}},
    "field": {"kind": "cosine_axis", "axis": 1, "base": 1.0, "amplitude": 0.3,
              "mode": 1},
}
FOURIER_CURVE = {
    "version": 1, "name": "fourier-curve", "operation": "jvol.compute",
    "chart": {"name": "flat_c1"},
    "immersion": {"formula": "fourier_curve", "grid": 64,
                  "args": {"coeffs": [[1, 1.0, 0.0], [-1, 0.3, 0.0], [2, 0.1, 0.05]]}},
}

ELLIPSE = {"terms": {"1": [1.0, 0.0], "-1": [0.3, 0.0]}, "N": 32}
TRIPLES = [[1, 1.0, 0.0], [-1, 0.3, 0.0]]
FLAT_C1 = {"name": "flat_c1"}
CIRCLE = {"formula": "circle", "grid": 16, "args": {"r": 1.0}}
TORUS = {"formula": "product_torus", "grid": 16, "args": {"r1": 1.0, "r2": 2.0}}
COSINE = {"kind": "cosine_axis", "axis": 0, "base": 1.0, "amplitude": 0.2, "mode": 1}


def _scn(name, operation, **body):
    return {"version": 1, "name": name, "seed": 0, "operation": operation, **body}


def _bases(tmp_path):
    """The example scenarios, then small ones that reach every schema field
    between them; coeff_file names a file of [n, re, im] triples."""
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps(TRIPLES))
    bases = []
    for path in EXAMPLES:
        with open(path) as f:
            bases.append(json.load(f))
    assert len(bases) == 5
    return bases + [
        DENSITY, FOURIER_CURVE,
        _scn("analyze", "curve.analyze", curve=ELLIPSE, params={"samples": 128}),
        _scn("classify", "curve.classify", params={}, curves=[
            {"label": "ellipse", **ELLIPSE},
            {"label": "file", "coeff_file": str(coeffs), "N": 32}]),
        _scn("geodesic", "curve.geodesic", curve={"family": "annulus", "N": 32},
             params={"radii": [0.9, 1.0]}),
        _scn("length", "curve.length", curve={"coeff_file": str(coeffs), "N": 32},
             params={"radii": [0.8, 0.9, 1.0]}),
        _scn("secondvar", "curve.secondvar", curve={"terms": {"1": [1.0, 0.0]}, "N": 32},
             params={"fields": [{"base": 1.0, "amplitude": 0.2, "mode": 2,
                                 "label": "cos"}]}),
        _scn("ellipse", "jvol.compute", chart=FLAT_C1, params={},
             immersion={"formula": "ellipse", "grid": 16, "args": {"a": 2.0, "b": 1.0}}),
        _scn("hj", "jvol.hj", chart={"name": "flat_quotient_c2"}, params={},
             immersion={"formula": "straight_torus", "grid": 16, "args": {
                 "winding": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
                 "offset": [0.0, 0.0, 0.5, 0.0]}}),
        _scn("timestep", "flow.run", chart=FLAT_C1,
             immersion={"formula": "circle", "grid": 16,
                        "args": {"r": 1.0, "center": [0.5, 0.0]}},
             field={"kind": "coordinate", "axis": 0, "scale": 1.0},
             params={"scheme": "timestep", "t_final": 0.01, "dt": 1e-3, "store_every": 5}),
        _scn("uniqueness", "flow.uniqueness", chart={"name": "flat_c2"}, immersion=TORUS,
             field={"kind": "coordinate", "axis": 1}, params={"t_final": 0.05}),
        _scn("first", "variation.first", chart=FLAT_C1, immersion=CIRCLE, field=COSINE,
             params={}),
        _scn("second", "variation.second", chart=FLAT_C1, immersion=CIRCLE, field=COSINE,
             params={}),
        _scn("density", "variation.density", chart=FLAT_C1, immersion=CIRCLE,
             field=COSINE, params={}),
        *(_scn("convexity", "variation.convexity",
               params={"family": family, "t_grid": [0.0, 0.05, 0.1]}) for family in [
            {"kind": "flat_circle", "r0": 1.0, "grid": 16},
            {"kind": "flat_torus", "r1": 1.0, "r2": 2.0, "axis": 1, "grid": 16},
            {"kind": "quotient_torus_shear", "amplitude": 0.3, "grid": 16}]),
        _scn("verify-flat", "ambient.verify", chart={"name": "flat_c2"},
             params={"n_points": 8}),
        _scn("verify-disk", "ambient.verify", chart={"name": "poincare_disk"},
             params={"n_points": 8, "r_max": 0.5}),
    ]


def _paths(obj, prefix=()):
    """Every field path below obj: object keys and list indices."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(scn, path, value):
    out = copy.deepcopy(scn)
    target = out
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return out


def _reject_constant(name):
    raise ValueError(f"results.json holds {name}")


def test_single_field_mutations_keep_the_cli_contract(tmp_path):
    bases = _bases(tmp_path)
    rng = np.random.default_rng(SEED)
    codes = set()
    for k in range(N_MUTATIONS):
        base = bases[rng.integers(len(bases))]
        paths = list(_paths(base))
        path = paths[rng.integers(len(paths))]
        value = VALUES[rng.integers(len(VALUES))]
        change = "deleted" if value is DELETE else f"= {value!r}"
        what = f"{base['name']}: {'.'.join(map(str, path))} {change}"
        scn_path = tmp_path / f"scn{k}.json"
        scn_path.write_text(json.dumps(_mutated(base, path, value)))
        out = tmp_path / f"out{k}"
        try:
            code = cli.main(["run", "--scenario", str(scn_path), "--out", str(out)])
        except Exception as e:  # noqa: BLE001 - any escape breaks the contract
            pytest.fail(f"{what} raised {type(e).__name__}: {e}")
        assert code in (0, 2, 3), f"{what} exited {code}"
        results = out / "results.json"
        if results.exists():
            text = results.read_text()
            json.loads(text, parse_constant=_reject_constant)
            assert '"nan"' not in text, f"{what} wrote a NaN into results.json"
        codes.add(code)
    # the mutations reach past validation as well as into it
    assert {0, 2} <= codes


# --- every schema field is in some base -----------------------------------------

_TOP = {}


def _tables(op):
    """The table cli._run reads op's scenarios with; one object per op."""
    return _TOP.setdefault(op, cli._with(cli._OPERATIONS[op][1], cli._ENVELOPE))


def _fields(kind, path):
    """(table id, key) -> dotted path of each field below kind, variants too."""
    if isinstance(kind, cli._Variants):
        if kind.key is not None:
            yield (id(kind), kind.key), cli._at(path, kind.key)
            yield from _fields(kind.spec.kind, cli._at(path, kind.key))
        for name, table in kind.tables.items():
            yield from _fields(table, f"{path}({kind.key or 'with'} {name})")
    elif isinstance(kind, dict):
        for key, field in kind.items():
            yield (id(kind), key), cli._at(path, key)
            yield from _fields(field.kind, cli._at(path, key))
    elif isinstance(kind, list):
        yield from _fields(kind[0], f"{path}[]")


def _reached(kind, value):
    """The (table id, key) of each field of kind that value holds."""
    if isinstance(kind, cli._Variants):
        if kind.key in value:
            yield id(kind), kind.key
            yield from _reached(kind.spec.kind, value[kind.key])
        yield from _reached(kind.tables[cli._variant(value, "", kind)], value)
    elif isinstance(kind, dict):
        for key in value.keys() & kind.keys():
            yield id(kind), key
            yield from _reached(kind[key].kind, value[key])
    elif isinstance(kind, list):
        for v in value:
            yield from _reached(kind[0], v)


def test_every_schema_field_is_in_some_base(tmp_path):
    fields = {}
    for op in cli._OPERATIONS:
        for key, path in _fields(_tables(op), ""):
            fields.setdefault(key, f"{op}: {path}")
    reached = set()
    for k, base in enumerate(_bases(tmp_path)):
        scn = tmp_path / f"base{k}.json"
        scn.write_text(json.dumps(base))
        # a base that fails validation reaches nothing past its first fault
        assert cli.main(["run", "--scenario", str(scn), "--out",
                         str(tmp_path / f"out{k}")]) == 0, base["name"]
        reached.update(_reached(_tables(base["operation"]), base))
    missing = sorted(fields[k] for k in fields.keys() - reached)
    assert missing == []


# --- sizes past their bounds ------------------------------------------------------
# Each of the first four sized an array before any bound and ended in
# numpy's _ArrayMemoryError traceback, exit 1; the secondvar curve asked
# resample_arclength for an 8N x (2N + 1) phase matrix of 512 GiB, and now
# for about 2^40 phases in chunks, hours of work. The last two had no bound:
# curve.geodesic kept and formatted 165 MB per radius at N = 65536, and
# variation.convexity kept one member per t value.

@pytest.mark.parametrize("payload, line", [
    ({"operation": "curve.analyze", "curve": ELLIPSE, "params": {"samples": 10 ** 12}},
     "params.samples must be >= 1 and <= 262144, got 1000000000000"),
    ({"operation": "ambient.verify", "chart": {"name": "flat_c2"},
      "params": {"n_points": 10 ** 12}},
     "params.n_points must be >= 1 and <= 65536, got 1000000000000"),
    ({"operation": "flow.bvp", "params": {"outer": ELLIPSE, "N": 10 ** 9, "inner": {
        "terms": {"1": [0.5, 0.0]}, "N": 32}}},
     "params.N must be >= 1 and <= 128, got 1000000000"),
    ({"operation": "curve.secondvar", "curve": {"terms": {"1": [1.0, 0.0]}, "N": 65536},
      "params": {"fields": [{"base": 1.0}]}},
     "curve.N must be <= 1024 for curve.secondvar, got 65536"),
    ({"operation": "curve.geodesic", "curve": {"terms": {"1": [1.0, 0.0]}, "N": 65536},
      "params": {"radii": [0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7]}},
     "params.radii: 9 frames of 524288 numbers are more than the 4194304 numbers "
     "a flow keeps"),
    ({"operation": "variation.convexity", "params": {
        "family": {"kind": "flat_circle", "grid": 16}, "t_grid": [0.0] * 33}},
     "params.t_grid must be 32 numbers or fewer, got " + repr([0.0] * 33)),
], ids=["analyze samples", "verify n_points", "bvp N", "secondvar curve N",
        "geodesic radii", "convexity t_grid"])
def test_a_size_past_its_bound_exits_2_naming_the_field(tmp_path, capsys, payload, line):
    scn = tmp_path / "s.json"
    scn.write_text(json.dumps({"version": 1, **payload}))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scn), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"trgeo: ValidationError: {line}\n"
    assert not (out / "results.json").exists()
