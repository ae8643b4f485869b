"""Scenario-driven command line front end.

A scenario is a JSON file with a required "version": 1 field naming one
operation and its inputs. Each operation reads the scenario with one table
in _OPERATIONS, which declares every field once: its kind, its default or
that it is required, and its bound. _read checks each field against it,
fills the defaults and refuses any key the table does not name, at every
depth; the handlers see only checked values. Every scenario may carry the
envelope "version", "operation", "name" and "seed". Each run writes
manifest.json (the scenario as written, versions, tolerances and the names
of the files written, relative to the output directory), results.json, and
any CSV series into the output directory.

Exit codes: 0 success, 2 validation failure (bad file, a field that does
not fit its table, unknown operation, a key the operation does not read), 3
numerical failure (e.g. BlowUpDetected), with the failure recorded as a
structured entry in results.json; a refused result leaves none of its files.

Determinism: given a fixed scenario and seed the outputs are byte-identical
across runs and thread counts; all reductions are fixed-order compensated
sums and --threads only annotates the manifest.
"""

import argparse
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__, ambient, curve_lab, geodesic_flow
from . import immersion as imm
from . import variation_harness as vh
from .errors import (BadArgument, NotFinite, NumericalError, ParseError, StepTooLarge,
                     UnknownOperation, ValidationError)

SCENARIO_VERSION = 1


def _sanitize(obj):
    """Replace non-finite floats with strings so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _nan_path(obj, path):
    """The path of the first NaN float in obj (e.g. results.reports[0].fd), or None."""
    if isinstance(obj, float):
        return path if math.isnan(obj) else None
    if isinstance(obj, dict):
        items = ((f"{path}.{k}", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{k}]", v) for k, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_nan_path(v, p) for p, v in items)), None)


def _json_dump(obj, path):
    # json.dumps takes the C encoder; json.dump streams through the Python one
    with open(path, "w") as f:
        f.write(json.dumps(_sanitize(obj), sort_keys=True, separators=(",", ":")) + "\n")


def _cell(v):
    """One CSV cell: floats as '%.17g', quoted when it holds a comma, quote or LF."""
    s = format(float(v), ".17g") if isinstance(v, float) else str(v)
    if any(c in s for c in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


# --- CSV output -------------------------------------------------------------
# Numeric cells are laid out as NUL-padded rows of a uint8 matrix, one block
# of slots per column; dropping the NULs of the whole table gives its bytes.

_U64 = np.uint64


@functools.cache
def _g17_tables():
    """The read-only tables of _float_cells: the bits of the least double >= 10**d
    for d = -11..16, 5**k for k = 0..27, the ASCII of 0000..9999 as uint32 and
    their trailing zeros, masks keeping the first 0..16 of 16 bytes, and per
    (decimal exponent -11..16, point shown, sign) the 44 slots around the digits
    (at 6, 8, .. 38): sign, "0." and zeros at 1..5, the point, "e-XX" at 40."""
    tens = []
    for d in range(-11, 17):
        x = float(10 ** d) if d >= 0 else 1 / 10 ** -d              # correctly rounded
        p, q = x.as_integer_ratio()
        below = p * 10 ** -min(d, 0) < q * 10 ** max(d, 0)            # x < 10**d
        tens.append(math.nextafter(x, math.inf) if below else x)
    two = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    ascii4 = np.concatenate([np.repeat(two, 100, axis=0), np.tile(two, (100, 1))], axis=1)
    zeros = np.logical_and.accumulate(ascii4[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    heads = (np.arange(16) < np.arange(17)[:, None]) * np.uint8(255)
    frame = np.zeros((28, 2, 2, 44), np.uint8)
    for i, x in enumerate(range(-11, 17)):
        if -4 <= x < 0:                                  # %f notation below 1
            frame[i, :, :, 1:2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
        else:
            frame[i, 1, :, 7 + 2 * max(x, 0)] = ord(".")
        if x < -4:                                       # %e notation
            frame[i, :, :, 40:] = np.frombuffer(b"e-%02d" % -x, np.uint8)
    frame[:, :, 1, 0] = ord("-")
    tables = (np.array(tens).view(_U64), 5 ** np.arange(28, dtype=_U64),
              ascii4.view(np.uint32).ravel(), zeros, heads.view(_U64),
              frame.reshape(-1, 44))
    for table in tables:
        table.flags.writeable = False
    return tables


def _float_cells(x):
    """The cells '%.17g' % v of the float array x, as rows of a NUL-padded
    uint8 matrix. For 10**-11 <= |v| < 10**16 the digits are exact integer
    arithmetic: with |v| = m 2**e and k = 16 - floor(log10 |v|), N = m 5**k
    2**(e + k) rounded half to even has 17 digits (m 5**k takes two 64-bit
    limbs); every other value is formatted by Python, one at a time."""
    tens, fives, quad_ascii, quad_zeros, heads, frame = _g17_tables()
    x = np.ascontiguousarray(x, dtype=np.float64)
    a = x.view(_U64) & _U64(2 ** 63 - 1)
    fast = (a >= tens[0]) & (a < tens[-1])
    # integer ops raise no FP event; uint64 throughout, as uint64 with int64 gives float64
    d = np.where(fast, np.searchsorted(tens, a, side="right") - 12, 0)
    m = (a & _U64(2 ** 52 - 1)) | _U64(2 ** 52)
    s = (a >> _U64(52)).astype(np.intp) - 1075 + 16 - d
    q = fives[16 - d]
    mask32, b32 = _U64(2 ** 32 - 1), _U64(32)
    ll, lh = (m & mask32) * (q & mask32), (m & mask32) * (q >> b32)
    hl, hh = (m >> b32) * (q & mask32), (m >> b32) * (q >> b32)
    mid = (ll >> b32) + (lh & mask32) + (hl & mask32)
    lo = (ll & mask32) | (mid << b32)
    hi = hh + (lh >> b32) + (hl >> b32) + (mid >> b32)
    # N = (hi, lo) shifted by s, rounded half to even; s >= 0 leaves hi = 0
    t = np.clip(-s, 1, 63).astype(_U64)
    n = (lo >> t) | (hi << (_U64(64) - t))
    rest, half = lo & ((_U64(1) << t) - _U64(1)), _U64(1) << (t - _U64(1))
    n += (s < 0) & ((rest > half) | ((rest == half) & (n & _U64(1) == _U64(1))))
    n = np.where(s < 0, n, lo << np.clip(s, 0, 63).astype(_U64))
    # N < 10**17: rounding up to it needs a double within 5e-18 below a power of ten, and none is
    n[~fast] = 10 ** 16
    top = n // _U64(10 ** 8)                    # digits: the first, then four groups of four
    first = top // _U64(10 ** 8)
    quads = np.empty((len(n), 4), np.intp)
    for j, part in ((0, top - first * _U64(10 ** 8)), (2, n - top * _U64(10 ** 8))):
        quads[:, j] = part // _U64(10 ** 4)
        quads[:, j + 1] = part - quads[:, j].astype(_U64) * _U64(10 ** 4)
    # %g drops trailing zeros after the point, and the point with them
    z = quad_zeros[quads]
    zeros = z[:, 3] + (z[:, 3] == 4) * (z[:, 2] + (z[:, 2] == 4) * (
        z[:, 1] + (z[:, 1] == 4) * z[:, 0]))
    whole = np.maximum(d, 0) + 1
    kept = np.maximum(17 - zeros, whole)
    digits = np.empty((len(n), 3), _U64)
    np.bitwise_and(np.take(quad_ascii, quads).view(_U64), np.take(heads, kept - 1, axis=0),
                   out=digits[:, 1:])
    digits = digits.view(np.uint8)[:, 7:]
    digits[:, 0] = first + _U64(ord("0"))
    code = ((d + 11) * 2 + (kept > whole)) * 2 + np.signbit(x)
    slow = np.flatnonzero(~fast)
    cells = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=bytes)
    width = cells.itemsize if len(slow) else 0
    # only the slots that some cell uses
    used = frame[np.bincount(code, minlength=len(frame)) > 0].any(axis=0)
    n_digits = int(kept.max(initial=1))
    used[6:6 + 2 * n_digits:2] = True
    used[:width] = True
    out = np.take(frame[:, used], code, axis=0)
    out[:, (np.cumsum(used) - 1)[6:6 + 2 * n_digits:2]] = digits[:, :n_digits]
    if width:
        out[slow] = 0
        out[slow, :width] = cells.view(np.uint8).reshape(len(slow), width)
    return out


def _int_cells(v):
    """The cells str(k) of the array v of ints >= 0, as rows of a NUL-padded uint8 matrix."""
    mag = v.astype(_U64)
    width = len(str(int(mag.max(initial=0))))
    out = np.zeros((len(v), width), np.uint8)
    for j in range(width):
        p = _U64(10 ** (width - 1 - j))
        out[:, j] = np.where((mag >= p) | (p == 1), (mag // p) % _U64(10) + _U64(ord("0")), 0)
    return out


def _column_cells(column, encoding):
    """One column as rows of a NUL-padded uint8 matrix: a float array as
    '%.17g' % x, an array of ints >= 0 as str(k), any other column by _cell,
    then with the cells' lengths, as text may hold a NUL of its own."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return _float_cells(column), None
    if kind in ("i", "u") and column.min(initial=0) >= 0:
        return _int_cells(column), None
    cells = [_cell(v).encode(encoding) for v in (column.tolist() if kind else column)]
    matrix = np.array(cells, dtype=bytes)
    return matrix.view(np.uint8).reshape(len(cells), -1), np.array(list(map(len, cells)))


def write_csv(path, header, columns):
    """RFC-4180 CSV with LF endings: the header, then one row per entry of
    the columns, which all have one length (see _column_cells)."""
    with open(path, "w", newline="") as f:
        rows = len(columns[0]) if columns else 0
        _write_table(f, header, [_column_cells(column, f.encoding) for column in columns]
                     if rows else [])


def _write_table(f, header, cells):
    """The header, then the rows of the columns' cells (the pairs of
    _column_cells, one per column, all of one length), to the text file f."""
    f.write(",".join(map(_cell, header)) + "\n")
    if not cells:
        return
    rows = len(cells[0][0])
    blocks, text = [], []
    for matrix, lengths in cells:
        if lengths is not None:
            text.append((sum(b.shape[1] for b in blocks), lengths))
        blocks += [matrix, np.full((rows, 1), ord(","), np.uint8)]
    blocks[-1][:] = ord("\n")
    table = np.concatenate(blocks, axis=1)
    keep = table != 0
    for start, lengths in text:
        keep[:, start:start + lengths.max()] = np.arange(lengths.max()) < lengths[:, None]
    f.write(table[keep].tobytes().decode(f.encoding))


def _write_frames_csv(out_dir, frames):
    """One curve_t<k>.csv of point coordinates per frame; returns the paths.

    The coordinates of every frame are formatted by one _float_cells call,
    and the cell matrix is cut by frame and column: the kernel's cost is
    mostly fixed per call, and a frame's NUL padding is dropped anyway.
    """
    columns = [np.asarray(frame).reshape(-1, np.shape(frame)[-1]).T for frame in frames]
    cells = _float_cells(np.concatenate([np.empty(0)] + [c.ravel() for c in columns]))
    paths, start = [], 0
    for k, c in enumerate(columns):
        path = os.path.join(out_dir, f"curve_t{k}.csv")
        rows = c.shape[1]
        with open(path, "w", newline="") as f:
            _write_table(f, [f"x{j}" for j in range(len(c))],
                         [(cells[start + j * rows:start + (j + 1) * rows], None)
                          for j in range(len(c))])
        start += c.size
        paths.append(path)
    return paths


def _write_reports_csv(out_dir, reports):
    """summary.csv: one row per variation report dict; returns the path."""
    path = os.path.join(out_dir, "summary.csv")
    rows = [(r["context"], float(r["analytic"]), float(r["fd"]), float(r["rel_err"]),
             "" if r.get("richardson_order") is None else float(r["richardson_order"]))
            for r in reports]
    write_csv(path, ["case", "analytic", "fd", "rel_err", "order"], list(zip(*rows)))
    return path


# --- the scenario schema ----------------------------------------------------

_REQUIRED = object()


class _F(NamedTuple):
    """One field of a table: its kind, its default (_REQUIRED, or None for an
    optional field that stays absent) and its bound, a (text, test) pair."""
    kind: object
    default: object = _REQUIRED
    bound: tuple = None


class _Variants(NamedTuple):
    """An object read by one of several tables. The field key, read by spec,
    names the table, or its value mapped by choose does; with key None the
    table is the first whose name is a key of the object."""
    key: object
    spec: object
    tables: dict
    choose: object = None


_KINDS = {
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "number": ("a finite number", lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and math.isfinite(v)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
}


def _at(path, key):
    return f"{path}.{key}" if path else key


def _read(value, path, kind, bound=None):
    """value read as kind, with its defaults filled; ValidationError naming
    the path of the first field that does not fit.

    kind is a table {key: _F} (an object holding no other key), _Variants,
    [kind] (a list of that kind), a shape tuple (nested lists of finite
    numbers, () one number, None any length, numbers as floats), "terms" (a
    {mode: [re, im]} object, read as {int: complex}) or a name in _KINDS.
    """
    if isinstance(kind, _Variants):
        name = _variant(_read(value, path, "object"), path, kind)
        kind = {kind.key: kind.spec, **kind.tables[name]} if kind.key else kind.tables[name]
    if isinstance(kind, dict):
        value = _read(value, path, "object")
        for key in value:
            if key not in kind:
                raise ValidationError(f"{_at(path, key)}: unknown field "
                                      f"(known: {', '.join(kind) or 'none'})")
        out = {}
        for key, f in kind.items():
            if key not in value and f.default is _REQUIRED:
                raise ValidationError(f"scenario needs {_at(path, key)}")
            if key in value or f.default is not None:
                out[key] = _read(value.get(key, f.default), _at(path, key), f.kind, f.bound)
    elif isinstance(kind, list):
        out = [_read(v, f"{path}[{k}]", kind[0])
               for k, v in enumerate(_read(value, path, "list"))]
    elif isinstance(kind, tuple) and kind:
        out = _read(value, path, "list")
        if kind[0] is not None and len(out) != kind[0]:
            raise ValidationError(f"{path} must have {kind[0]} entries, got {value!r}")
        out = [_read(v, f"{path}[{k}]", kind[1:]) for k, v in enumerate(out)]
    elif kind == "terms":
        out = {}
        for key, v in _read(value, path, "object").items():
            try:
                out[int(key)] = complex(*_read(v, _at(path, key), (2,)))
            except ValueError:
                raise ValidationError(f"{_at(path, key)}: mode must be an integer") from None
    else:
        what, ok = _KINDS["number" if kind == () else kind]
        if not ok(value):
            raise ValidationError(f"{path} must be {what}, got {value!r}")
        out = float(value) if kind == () else value
    if bound is not None and not bound[1](out):
        raise ValidationError(f"{path} must be {bound[0]}, got {value!r}")
    return out


def _variant(value, path, v):
    """The name of the table of v that reads value."""
    if v.key is None:
        name = next((k for k in v.tables if k in value), None)
        if name is None:
            raise ValidationError(f"{path} needs one of {', '.join(v.tables)}")
        return name
    sel = _read({v.key: value[v.key]} if v.key in value else {}, path,
                {v.key: v.spec})[v.key]
    name = sel if v.choose is None else v.choose(sel)
    if name not in v.tables:
        raise ValidationError(f"{_at(path, v.key)}: unknown value {sel!r} "
                              f"(known: {', '.join(v.tables)})")
    return name


def _with(kind, fields):
    """A table, or each table of a _Variants, with fields added ahead."""
    if isinstance(kind, _Variants):
        return kind._replace(tables={n: {**fields, **t} for n, t in kind.tables.items()})
    return {**fields, **kind}


_NUMBER = ()
_NUMBERS = (None,)
_AT_LEAST_0 = (">= 0", lambda v: v >= 0)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_POSITIVE = ("> 0", lambda v: v > 0)
_AXIS = ("0 or 1", lambda v: v in (0, 1))


def _between(lo, hi):
    return (f">= {lo} and <= {hi}", lambda v: lo <= v <= hi)


# the limits the library sets: GridTorus sizes and a FourierCurve's N
_GRID = (f"a power of two >= 16 and <= {imm.MAX_GRID_SIZE}",
         lambda v: 16 <= v <= imm.MAX_GRID_SIZE and v & (v - 1) == 0)
# N sizes the 2N + 1 coefficients, so it is bounded like a coefficient file's modes
_CURVE_N = _between(32, curve_lab.MAX_MODE)

_CHART = {"name": _F("string", "flat_c1")}
_IMMERSION = _Variants("formula", _F("string"), {
    formula: {"grid": _F("int", 64, _GRID),
              "args": _F({key: _F(shape, _REQUIRED if default is None else default)
                          for key, (shape, default) in args.items()}, {})}
    for formula, args in imm.FORMULAS.items()})
_FIELD = _Variants("kind", _F("string", "coordinate"), {
    "coordinate": {"axis": _F("int", 0, _AXIS), "scale": _F(_NUMBER, 1.0)},
    "cosine_axis": {"axis": _F("int", 0, _AXIS), "base": _F(_NUMBER, 1.0),
                    "amplitude": _F(_NUMBER, 0.3), "mode": _F("int", 1)},
})
# a curve descriptor: a coefficient family, Fourier terms or a file of
# [n, re, im] triples, with N the Laurent degree (a file's largest |n|, at
# least 32, when absent)
_CURVE = _Variants(None, None, {
    "family": {"family": _F("string"), "N": _F("int", 256, _CURVE_N)},
    "terms": {"terms": _F("terms"), "N": _F("int", 128, _CURVE_N)},
    "coeff_file": {"coeff_file": _F("string"), "N": _F("int", None, _CURVE_N)},
})
# a family key is an integer where its default is one: the grid or the axis
_FAMILY = _Variants("kind", _F("string"), {
    kind: {key: _F(_NUMBER, d) if isinstance(d, float)
           else _F("int", d, _AXIS if key == "axis" else _GRID)
           for key, d in keys.items()}
    for kind, keys in vh.FAMILIES.items()})
_NO_PARAMS = {"params": _F({}, {})}


def _geometry(s):
    """The validated Geometry of the scenario's immersion."""
    chart = ambient.chart_from_descriptor(s["chart"])
    d = s["immersion"]
    grid = imm.GridTorus((d["grid"],) * chart.n)
    try:
        return imm.build_immersion(grid, chart, d["formula"], **d["args"])
    except BadArgument as e:
        raise ValidationError(f"immersion.args.{e}") from None


def _field(d, grid):
    if d["axis"] >= grid.n:
        raise ValidationError(f"field.axis must be < {grid.n}, got {d['axis']}")
    if d["kind"] == "coordinate":
        return imm.coordinate_field(grid, d["axis"], scale=d["scale"])
    profile = d["base"] + d["amplitude"] * np.cos(d["mode"] * grid.thetas(d["axis"]))
    comp = np.zeros((grid.n,) + grid.sizes)
    if grid.n == 1:
        comp[d["axis"]] = profile
    else:
        comp[d["axis"]] = np.expand_dims(profile, axis=1 - d["axis"])
    return imm.VectorFieldOnL(grid=grid, components=comp)


def _curve(d, path):
    """The curve of a checked descriptor; path names it in a file's error."""
    if "family" in d:
        return curve_lab.family_coefficients(d["family"], N=d["N"])
    if "terms" in d:
        return curve_lab.curve_from_terms(d["terms"], N=d["N"])
    try:
        return curve_lab.load_coefficients(d["coeff_file"], N=d.get("N"))
    except (OSError, ValueError, TypeError, IndexError) as e:
        raise ValidationError(f"{path}.coeff_file: cannot load "
                              f"{d['coeff_file']!r}: {e}") from None


# --- operation handlers ---------------------------------------------------------
# each reads the checked scenario s and writes into out_dir; raw is the
# scenario as written

def _op_curve_analyze(s, out_dir, raw):
    curve = _curve(s["curve"], "curve")
    samples = curve_lab.synthesize(curve, M=s["params"].get("samples", 4 * curve.N))
    out = curve_lab.fourier_analyze(samples, N=curve.N)
    path = os.path.join(out_dir, "coefficients.json")
    curve_lab.save_coefficients(out, path)
    return {"parseval_residual": out.parseval_residual,
            "signed_area": out.signed_area(), "n_coeffs": int(out.coeffs.size)}, [path]


def _op_curve_classify(s, out_dir, raw):
    records = []
    for k, d in enumerate(s["curves"]):
        cls = curve_lab.classify_direction(_curve(d, f"curves[{k}]"))
        records.append({
            "label": d.get("label", d.get("family", "curve")),
            "class": cls.kind,
            "r_inner": cls.evidence.r_inner,
            "r_outer": cls.evidence.r_outer,
            "confidence": cls.evidence.confidence,
            "ell1_exponent": (None if math.isinf(cls.ell1_exponent)
                              else cls.ell1_exponent),
        })
    return {"classifications": records}, []


def _op_curve_geodesic(s, out_dir, raw):
    curve = _curve(s["curve"], "curve")
    radii = s["params"]["radii"]
    frames = [curve_lab.geodesic_evaluate(curve, r) for r in radii]
    paths = _write_frames_csv(out_dir, [np.stack([f.real, f.imag], axis=-1)
                                        for f in frames])
    return {"radii": radii, "n_frames": len(frames)}, paths


def _op_curve_length(s, out_dir, raw):
    curve = _curve(s["curve"], "curve")
    prof = curve_lab.length_profile(curve, s["params"]["radii"])
    path = os.path.join(out_dir, "length_profile.csv")
    write_csv(path, ["r", "t", "Lambda", "d2"],
              [prof.radii, prof.t_values, prof.values, prof.second_differences])
    return {"lambda": [float(v) for v in prof.values],
            "min_second_difference": float(np.nanmin(prof.second_differences))}, [path]


def _op_curve_secondvar(s, out_dir, raw):
    curve = _curve(s["curve"], "curve")
    # resample_arclength evaluates 8N angles against 2N + 1 modes at once:
    # at N = 512, 128 MB peak RSS and 0.5 to 0.8 s in all (416 MB and 1.5 s
    # at 1024), measured in a fresh process on a 2-core Xeon host
    if curve.N > 512:
        raise ValidationError(f"curve.N must be <= 512 for curve.secondvar, got {curve.N}")
    curve = curve_lab.resample_arclength(curve)
    M = 4 * curve.N
    theta = 2.0 * np.pi * np.arange(M) / M
    reports = []
    for d in s["params"]["fields"]:
        res = curve_lab.second_variation_length(
            curve, d["base"] + d["amplitude"] * np.cos(d["mode"] * theta))
        reports.append({"context": d["label"], "analytic": res["analytic"], "fd": res["fd"],
                        "rel_err": res["rel_err"], "richardson_order": None})
    return {"reports": reports}, [_write_reports_csv(out_dir, reports)]


def _node_columns(sizes):
    """The header and the columns of the node indices i0.. of a grid, in C order."""
    return [f"i{k}" for k in range(len(sizes))], list(np.indices(sizes).reshape(len(sizes), -1))


def _op_jvol_compute(s, out_dir, raw):
    geo = _geometry(s)
    vols = geo.volumes()
    path = os.path.join(out_dir, "density.csv")
    names, nodes = _node_columns(geo.im.grid.sizes)
    write_csv(path, names + ["rho", "volg_density", "volj_density"],
              nodes + [geo.rho.ravel(), geo.induced_vol.ravel(), geo.volj_density.ravel()])
    return {"vol_j": vols["vol_j"], "vol_g": vols["vol_g"],
            "min_rho": float(np.min(geo.rho)), "max_rho": float(np.max(geo.rho)),
            "lagrangian_defect": geo.lagrangian_defect,
            "formula_gap": geo.formula_gap}, [path]


def _op_jvol_hj(s, out_dir, raw):
    geo = _geometry(s)
    field = geo.h_j
    mags = np.sqrt(np.sum(field.values ** 2, axis=-1))
    path = os.path.join(out_dir, "hj_magnitude.csv")
    names, nodes = _node_columns(geo.im.grid.sizes)
    write_csv(path, names + ["|H_J|"], nodes + [mags.ravel()])
    return {"max_magnitude": float(np.max(mags)),
            "min_magnitude": float(np.min(mags)),
            "tangential_leak": field.max_tangential_leak}, [path]


def _op_flow_run(s, out_dir, raw):
    im = _geometry(s).im
    X = _field(s["field"], im.grid)
    p = s["params"]
    if p["scheme"] == "spectral":
        flow = geodesic_flow.flow_spectral(im, X, p["times"])
    else:
        try:
            flow = geodesic_flow.flow_timestep(im, X, p["t_final"], p["dt"],
                                               store_every=p["store_every"])
        except BadArgument as e:
            raise ValidationError(f"params.{e}") from None
    paths = _write_frames_csv(out_dir, [f.positions() for f in flow.immersions])
    manifest = {
        "scheme": flow.scheme,
        "field": raw.get("field", {"kind": "coordinate"}),
        "amplification": flow.amplification,
        "times": [float(t) for t in flow.times],
    }
    mpath = os.path.join(out_dir, "flow_manifest.json")
    _json_dump(manifest, mpath)
    return {"scheme": flow.scheme, "amplification": flow.amplification,
            "n_frames": len(flow.immersions)}, paths + [mpath]


def _op_flow_bvp(s, out_dir, raw):
    p = s["params"]
    res = geodesic_flow.solve_bvp_annulus(_curve(p["outer"], "params.outer"),
                                          _curve(p["inner"], "params.inner"), N=p["N"])
    path = os.path.join(out_dir, "annulus_map.json")
    curve_lab.save_coefficients(res.curve, path)
    return {"modulus": res.modulus, "converged": res.converged,
            "outer_misfit": res.outer_misfit, "inner_misfit": res.inner_misfit,
            "iterations": res.iterations}, [path]


def _op_flow_uniqueness(s, out_dir, raw):
    im = _geometry(s).im
    t_final = s["params"]["t_final"]
    try:
        gap = geodesic_flow.uniqueness_compare(im, _field(s["field"], im.grid), t_final)
    except StepTooLarge:
        # the stepper's dt is t_final / UNIQUENESS_STEPS, not a field of the scenario
        raise ValidationError(
            f"params.t_final: {t_final:g} is too long: its {geodesic_flow.UNIQUENESS_STEPS} "
            "RK4 steps fail the step bound dt*m*|X| <= 0.5") from None
    return {"sup_gap": gap}, []


def _op_variation_first(s, out_dir, raw):
    geo = _geometry(s)
    rep = vh.check_first_variation(geo, _field(s["field"], geo.im.grid),
                                   context=s.get("name", "first"))
    return {"report": rep.to_dict()}, [_write_reports_csv(out_dir, [rep.to_dict()])]


def _op_variation_second(s, out_dir, raw):
    geo = _geometry(s)
    rep = vh.check_second_variation_kahler(geo, _field(s["field"], geo.im.grid),
                                           context=s.get("name", "second"))
    return {"report": rep.to_dict()}, [_write_reports_csv(out_dir, [rep.to_dict()])]


def _op_variation_density(s, out_dir, raw):
    geo = _geometry(s)
    r1, r2, integral2 = vh.check_density_divergence(geo, _field(s["field"], geo.im.grid))
    path = _write_reports_csv(out_dir, [r1.to_dict(), r2.to_dict()])
    return {"first": r1.to_dict(), "second": r2.to_dict(),
            "second_integral": integral2}, [path]


def _op_variation_convexity(s, out_dir, raw):
    p = s["params"]
    prof = vh.convexity_experiment(p["family"], p["t_grid"])
    path = os.path.join(out_dir, "convexity.csv")
    write_csv(path, ["t", "Vol_J", "d2"],
              [prof["t"], prof["vol_j"], prof["second_differences"]])
    interior = prof["second_differences"][1:-1]
    return {"min_second_difference": float(np.min(interior)),
            "vol_j": [float(v) for v in prof["vol_j"]]}, [path]


def _op_ambient_verify(s, out_dir, raw):
    chart = ambient.chart_from_descriptor(s["chart"])
    rng = np.random.default_rng(s["seed"])
    p = s["params"]
    if chart.is_flat:
        pts = rng.uniform(-1.0, 1.0, size=(p["n_points"], chart.dim))
    else:
        half = p["r_max"] * chart.radius / math.sqrt(chart.dim)
        pts = rng.uniform(-half, half, size=(p["n_points"], chart.dim))
    rep = ambient.verify_kahler_einstein(chart, pts)
    return {"report": rep}, []


_ENVELOPE = {"version": _F("int"), "operation": _F("string"), "name": _F("string", None),
             "seed": _F("int", 0, _AT_LEAST_0)}
_CURVE_OP = {"curve": _F(_CURVE)}
_IMMERSION_OP = {"chart": _F(_CHART, {}), "immersion": _F(_IMMERSION)}
_FIELD_OP = {**_IMMERSION_OP, "field": _F(_FIELD, {})}
# the size bounds below are set by peak RSS and wall time measured at the
# bound, in a fresh process on a 2-core Xeon host: 59 MB and 0.7 s for
# curve.analyze samples; 111 MB and 0.4 s for n_points on the ball;
# 68 MB and 4.4 to 5.8 s for flow.bvp N through all 60 Gauss-Newton steps
_N_POINTS = _F("int", 12, _between(1, 2 ** 16))
# each operation's handler and the table it reads the scenario with, besides
# the fields of _ENVELOPE, which every scenario may carry
_OPERATIONS = {
    "curve.analyze": (_op_curve_analyze, {
        **_CURVE_OP,
        "params": _F({"samples": _F("int", None, _between(1, 4 * curve_lab.MAX_MODE))})}),
    "curve.classify": (_op_curve_classify, {
        "curves": _F([_with(_CURVE, {"label": _F("string", None)})]), **_NO_PARAMS}),
    "curve.geodesic": (_op_curve_geodesic, {
        **_CURVE_OP, "params": _F({"radii": _F(_NUMBERS)})}),
    # a second difference needs three radii
    "curve.length": (_op_curve_length, {**_CURVE_OP, "params": _F({"radii": _F(
        _NUMBERS, _REQUIRED, ("three radii or more", lambda v: len(v) >= 3))})}),
    "curve.secondvar": (_op_curve_secondvar, {
        **_CURVE_OP, "params": _F({"fields": _F([{
            "base": _F(_NUMBER, 1.0), "amplitude": _F(_NUMBER, 0.0),
            "mode": _F("int", 1), "label": _F("string", "field")}])})}),
    "jvol.compute": (_op_jvol_compute, {**_IMMERSION_OP, **_NO_PARAMS}),
    "jvol.hj": (_op_jvol_hj, {**_IMMERSION_OP, **_NO_PARAMS}),
    "flow.run": (_op_flow_run, {**_FIELD_OP, "params": _F(_Variants(
        "scheme", _F("string", "spectral"), {
            "spectral": {"times": _F(_NUMBERS)},
            "timestep": {"t_final": _F(_NUMBER, _REQUIRED, _POSITIVE), "dt": _F(_NUMBER),
                         "store_every": _F("int", 10, _AT_LEAST_1)}}))}),
    "flow.bvp": (_op_flow_bvp, {"params": _F({
        "N": _F("int", 16, _between(1, 128)), "outer": _F(_CURVE), "inner": _F(_CURVE)})}),
    "flow.uniqueness": (_op_flow_uniqueness, {
        **_FIELD_OP, "params": _F({"t_final": _F(_NUMBER, _REQUIRED, _POSITIVE)})}),
    "variation.first": (_op_variation_first, {**_FIELD_OP, **_NO_PARAMS}),
    "variation.second": (_op_variation_second, {**_FIELD_OP, **_NO_PARAMS}),
    "variation.density": (_op_variation_density, {**_FIELD_OP, **_NO_PARAMS}),
    "variation.convexity": (_op_variation_convexity, {"params": _F({
        "family": _F(_FAMILY), "t_grid": _F(_NUMBERS)})}),
    # the sample box of a curved chart is r_max times its radius
    "ambient.verify": (_op_ambient_verify, _Variants(
        "chart", _F(_CHART, {}), {
            "flat": {"params": _F({"n_points": _N_POINTS}, {})},
            "curved": {"params": _F({"n_points": _N_POINTS,
                                     "r_max": _F(_NUMBER, 0.6, _POSITIVE)},
                                    {})}},
        lambda chart: "flat" if ambient.chart_from_descriptor(chart).is_flat else "curved")),
}


def load_scenario(path):
    try:
        with open(path) as f:
            scn = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read scenario {path}: {e}") from None
    if not isinstance(scn, dict) or scn.get("version") != SCENARIO_VERSION:
        raise ParseError(f"scenario must declare \"version\": {SCENARIO_VERSION}")
    _read(scn.get("operation"), "operation", "string")
    return scn


def _run(scn, path, out_dir, threads):
    """Execute the scenario scn that load_scenario read from path; returns
    the process exit status."""
    op = scn["operation"]
    if op not in _OPERATIONS:
        raise UnknownOperation(f"unknown operation {op!r}")
    handler, table = _OPERATIONS[op]
    s = _read(scn, "", _with(table, _ENVELOPE))
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "package_version": __version__,
        "scenario_version": SCENARIO_VERSION,
        "scenario": scn,
        "threads": threads,
        "tolerances": {"rho_min": imm.RHO_MIN,
                       "amp_max": geodesic_flow.AMP_MAX,
                       "tail_energy_abort": geodesic_flow.TAIL_ENERGY_ABORT},
    }
    results_path = os.path.join(out_dir, "results.json")
    try:
        # overflow, invalid and divide raise, so none prints a warning and
        # the first names its stage; underflow is no failure
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            try:
                results, files = handler(s, out_dir, scn)
            except FloatingPointError as e:
                raise NotFinite(f"{op} failed in {_stage(e)}: {e}") from None
        nan = _nan_path(results, "results")
        if nan is not None:
            # a refused result leaves none of its files behind
            for f in files:
                os.remove(f)
            raise NotFinite(f"{op} computed NaN at {nan}")
    except NumericalError as e:
        record = {
            "scenario": scn.get("name", os.path.basename(path)),
            "operation": op,
            "status": "numerical_failure",
            "error_type": type(e).__name__,
            "message": str(e),
        }
        t_reached = getattr(e, "t_reached", None)
        if t_reached is not None:
            record["t_reached"] = t_reached
        _json_dump(record, results_path)
        manifest["out_files"] = _out_names(out_dir, [results_path])
        _json_dump(manifest, os.path.join(out_dir, "manifest.json"))
        return 3
    record = {
        "scenario": scn.get("name", os.path.basename(path)),
        "operation": op,
        "status": "ok",
        "results": results,
    }
    _json_dump(record, results_path)
    manifest["out_files"] = _out_names(out_dir, [results_path] + list(files))
    _json_dump(manifest, os.path.join(out_dir, "manifest.json"))
    return 0


def _stage(error):
    """module.function of the innermost trgeo frame in error's traceback."""
    stage = "?"
    tb = error.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("trgeo."):
            stage = f"{module[len('trgeo.'):]}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return stage


def _out_names(out_dir, paths):
    """The written files named relative to the output directory, sorted, so
    that the manifest does not depend on where the run writes."""
    return sorted(os.path.relpath(p, out_dir) for p in paths)


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="trgeo",
        description="Scenario runner for the totally real geometry laboratory",
    )
    sub = parser.add_subparsers(dest="group")
    groups = {"run": None}
    for operation in _OPERATIONS:
        group, op = operation.split(".")
        groups.setdefault(group, []).append(op)
    for group, ops in groups.items():
        gp = sub.add_parser(group)
        if ops is not None:
            gp.add_argument("op", choices=ops)
        gp.add_argument("--scenario", required=True)
        gp.add_argument("--out", required=True)
        # absent: TRGEO_THREADS as it is when main runs
        gp.add_argument("--threads", type=int)
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.group is None:
        parser.print_usage(sys.stderr)
        return 2
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("TRGEO_THREADS", "1"))
    try:
        scn = load_scenario(args.scenario)
        if args.group != "run":
            expected = f"{args.group}.{args.op}"
            if scn["operation"] != expected:
                raise ParseError(
                    f"scenario operation {scn['operation']!r} does not match "
                    f"subcommand {expected!r}"
                )
        return _run(scn, args.scenario, args.out, threads)
    except (ValidationError, NumericalError) as e:
        print(f"trgeo: {type(e).__name__}: {e}", file=sys.stderr)
        return 2 if isinstance(e, ValidationError) else 3


if __name__ == "__main__":
    sys.exit(main())
