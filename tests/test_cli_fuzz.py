"""Seeded fuzzing of the CLI contract with single-field scenario mutations.

Each mutation replaces one field (at any depth) of an example scenario by a
bad value, or deletes it, and runs the result through cli.main in-process.
Whatever the input, the CLI must exit 0, 2 or 3 without raising, and a
results.json it writes must be strict JSON: no NaN and no Infinity. Nor may
it hold the string "nan", which is how the CLI writes a NaN float; "inf" is
legal, since a polynomial curve's outer radius is infinite. The values are
small apart from HUGE, a float, which every integer field (grid, N, mode)
rejects; no base scenario steps in time, so no mutation can ask for a large
grid, N or step count. HUGE may overflow on its way to a result: its
RuntimeWarnings are expected, and only what reaches results.json counts.
"""

import copy
import glob
import json
import os
import warnings

import numpy as np
import pytest

from trgeo import cli

SEED = 20240607
N_MUTATIONS = 400
HUGE = 1e300
DELETE = object()          # the mutation that removes the field
VALUES = [None, "x", -1, 0, 0.5, [], {}, float("nan"), HUGE, DELETE]
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
    bases = []
    for path in EXAMPLES:
        with open(path) as f:
            bases.append(json.load(f))
    assert len(bases) == 4
    bases += [DENSITY, FOURIER_CURVE]
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
            with warnings.catch_warnings():
                if value == HUGE:
                    warnings.simplefilter("ignore", RuntimeWarning)
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
