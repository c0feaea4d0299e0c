"""Machine-readable input/output formats.

Complex numbers are serialized as [re, im] pairs, matrices as row-major lists
of rows. CSV files are RFC-4180 style with a mandatory header row and floats
printed with 17 significant digits (0.10000000000000001); JSON floats are the
shortest repr that round-trips (0.1). Both read back to the same doubles.
Non-finite floats are inf, -inf and nan in CSV and the strings "inf", "-inf"
and "nan" in JSON; a disabled cell is empty in CSV and null in JSON. The trial
files are written from a run's columns: both format one set of cells per row.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .channels import KrausChannel, kraus_from_unitary
from .harness import RunSummary, TrialColumns
from .linalg import SubsystemLayout


class SpecParseError(ValueError):
    """Input document violates the expected schema; carries the offending path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [[encode_complex(z) for z in row] for row in np.asarray(m, dtype=complex)]


def decode_matrix(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SpecParseError(path, "expected a non-empty list of rows")
    ncols = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SpecParseError(f"{path}[{i}]", "expected a non-empty row list")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise SpecParseError(f"{path}[{i}]", f"row has {len(row)} entries, expected {ncols}")
        entries = []
        for j, entry in enumerate(row):
            if (not isinstance(entry, list)) or len(entry) != 2:
                raise SpecParseError(f"{path}[{i}][{j}]", "expected a [re, im] pair")
            re, im = entry
            try:   # type(), not isinstance: JSON true and false decode to bool, a subclass of int
                finite = all(type(x) in (int, float) and math.isfinite(x) for x in (re, im))
            except OverflowError:   # an integer beyond float range
                finite = False
            if not finite:
                raise SpecParseError(f"{path}[{i}][{j}]", "entries must be finite numbers")
            entries.append(complex(re, im))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def channel_from_spec(obj, path: str = "channel") -> KrausChannel:
    """Channel from a JSON object: either a dilation or an explicit Kraus list.

    {"unitary": matrix, "dims": [dim_S, dim_E], "env_initial": 0}  or
    {"kraus": [matrix, ...], "no_jump_index": 0}
    """
    if not isinstance(obj, dict):
        raise SpecParseError(path, "expected an object")
    if "unitary" in obj:
        u = decode_matrix(obj["unitary"], f"{path}.unitary")
        dims = obj.get("dims")
        if (not isinstance(dims, list)) or len(dims) != 2 or not all(type(d) is int and d > 0 for d in dims):
            raise SpecParseError(f"{path}.dims", "expected [dim_S, dim_E] positive integers")
        env_initial = obj.get("env_initial", 0)
        if type(env_initial) is not int or not 0 <= env_initial < dims[1]:
            raise SpecParseError(f"{path}.env_initial", f"expected an integer in [0, {dims[1]})")
        return kraus_from_unitary(u, SubsystemLayout(tuple(dims)), env_initial)
    if "kraus" in obj:
        ops_obj = obj["kraus"]
        if not isinstance(ops_obj, list) or not ops_obj:
            raise SpecParseError(f"{path}.kraus", "expected a non-empty list of matrices")
        ops = tuple(decode_matrix(m, f"{path}.kraus[{i}]") for i, m in enumerate(ops_obj))
        no_jump = obj.get("no_jump_index", 0)
        if type(no_jump) is not int or not 0 <= no_jump < len(ops):
            raise SpecParseError(f"{path}.no_jump_index", f"expected an integer in [0, {len(ops)})")
        return KrausChannel(ops, no_jump_index=no_jump)
    raise SpecParseError(path, "expected either a 'unitary' or a 'kraus' entry")


_VARIANT_CELLS = ("c_real", "xi_b", "q_ab", "lower", "upper", "tur_lhs")
# Fixed column order of trials.csv; trials.json mirrors it exactly.
CSV_COLUMNS = (
    ("trial_id", "gamma")
    + tuple(f"theta_{i}" for i in range(1, 13))
    + ("a_i", "a_j", "b_i", "b_j")
    + tuple(f"{q}_{v}" for v in ("exact", "approx", "sampled")
            for q in _VARIANT_CELLS)
    + ("postselect_p0", "violated_exact", "violated_sampled")
)


def _json_floats(column: np.ndarray) -> list:
    """A float column's cells for the JSON template's %s: a float (its repr), or quoted as _sanitize writes it."""
    cells = column.tolist()   # a non-finite cell makes the sum non-finite
    return cells if math.isfinite(sum(cells)) else [x if math.isfinite(x) else f'"{x!r}"' for x in cells]


def _rows(records: TrialColumns, floats, text: int) -> list[str]:
    """Each trial's row of trials.csv (text 0) or trials.json (text 1), floats(column) giving a float column's cells:
    one zip over the columns gives a row's cells, its template formats them (no sampled ones if it has none)."""
    exact, sampled = records.exact, records.sampled
    variants = [None if v is None else floats(getattr(v, q)) for v in (exact, records.approx, sampled)
                for q in _VARIANT_CELLS]
    violated = [None if v is None else np.where(v.tur_violated, "true", "false").tolist() for v in (exact, sampled)]
    columns = [records.trial_id.tolist(), floats(records.gamma), *map(floats, records.thetas.T),
               *records.a_idx.T.tolist(), *records.b_idx.T.tolist(), *variants, floats(records.postselect_p0),
               *violated]
    bare = [c for c, name in zip(columns, CSV_COLUMNS) if not name.endswith("_sampled")]
    with_sampled, without = _TEMPLATES[True][text], _TEMPLATES[False][text]
    if sampled is None:
        return [without % cells for cells in zip(*bare)]
    return [with_sampled % full if has else without % cells
            for has, full, cells in zip((records.shots > 0).tolist(), zip(*columns), zip(*bare))]


def _row_templates(kinds: str) -> tuple[str, str]:
    """The CSV and JSON %-templates of a row whose columns are of the kinds i(nt), f(loat), b(ool) or -(empty):
    floats as %.17g in CSV and %s (see _json_floats) in JSON, an empty cell as "" or null."""
    formats = {"i": ("%d", "%d"), "f": ("%.17g", "%s"), "b": ("%s", "%s"), "-": ("", "null")}
    lines = ",\n".join(f"      {json.dumps(c)}: {formats[k][1]}" for c, k in zip(CSV_COLUMNS, kinds))
    return ",".join(formats[k][0] for k in kinds), "    {\n" + lines + "\n    }"


_KINDS = "if" + "f" * 12 + "i" * 4 + "f" * 18 + "fbb"   # of CSV_COLUMNS in a record with a sampled variant
_TEMPLATES = {True: _row_templates(_KINDS),   # keyed by whether the record has a sampled variant
              False: _row_templates("".join("-" if c.endswith("_sampled") else k for c, k in zip(CSV_COLUMNS, _KINDS)))}


def trials_csv_text(records: TrialColumns) -> str:
    # No cell holds a comma, quote or newline, so no cell needs quoting.
    return "\n".join([",".join(CSV_COLUMNS), *_rows(records, np.ndarray.tolist, 0)]) + "\n"


def trials_json_text(records: TrialColumns) -> str:
    """dumps_json({"trials": [row, ...]}) of a run's columns, without building the row dicts."""
    if not len(records.trial_id):
        return dumps_json({"trials": []})
    return '{\n  "trials": [\n' + ",\n".join(_rows(records, _json_floats, 1)) + "\n  ]\n}\n"


def _json_default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _sanitize(x):
    """Replace non-finite floats (degenerate ratios) with string markers for JSON."""
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    if isinstance(x, dict):
        return {k: _sanitize(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sanitize(v) for v in x]
    return x


def dumps_json(obj) -> str:
    return json.dumps(_sanitize(obj), indent=2, sort_keys=False, default=_json_default, allow_nan=False) + "\n"


def summary_json_text(summary: RunSummary) -> str:
    # Wall-clock runtime is recorded in the manifest instead so that identical
    # configurations reproduce byte-identical artifact checksums.
    return dumps_json(vars(summary))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_text(config_echo: dict, outputs: dict[str, bytes], stage_seconds: dict[str, float]) -> str:
    """Run manifest referencing every emitted data file exactly once; runtime_seconds is the sum of stage_seconds."""
    config_blob = json.dumps(config_echo, sort_keys=True).encode()
    data = {
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config_echo,
        "inputs_checksum": sha256_hex(config_blob),
        "runtime_seconds": sum(stage_seconds.values()),
        "stage_seconds": stage_seconds,
        "outputs": [
            {"path": name, "sha256": sha256_hex(blob), "bytes": len(blob)}
            for name, blob in sorted(outputs.items())
        ],
    }
    return dumps_json(data)
