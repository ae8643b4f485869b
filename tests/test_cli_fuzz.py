"""Seeded fuzzing of the CLI contract with single-field scenario mutations.

Each mutation replaces one field (at any depth) of an example scenario by a
small bad value and runs the result through cli.main in-process. Whatever
the input, the CLI must exit 0, 2 or 3 without raising, and a results.json
it writes must be strict JSON: no NaN and no Infinity. The values are small,
so no mutation can ask for a large grid, N or step count.
"""

import copy
import glob
import json
import os

import numpy as np
import pytest

from trgeo import cli

SEED = 20240607
N_MUTATIONS = 150
VALUES = [None, "x", -1, 0, 0.5, [], {}, float("nan")]
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
    bases.append(DENSITY)
    rng = np.random.default_rng(SEED)
    codes = set()
    for k in range(N_MUTATIONS):
        base = bases[rng.integers(len(bases))]
        paths = list(_paths(base))
        path = paths[rng.integers(len(paths))]
        value = VALUES[rng.integers(len(VALUES))]
        what = f"{base['name']}: {'.'.join(map(str, path))} = {value!r}"
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
            json.loads(results.read_text(), parse_constant=_reject_constant)
        codes.add(code)
    # the mutations reach past validation as well as into it
    assert {0, 2} <= codes
