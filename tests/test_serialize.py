"""The fixed-schema trial writers against the dict-row csv/json encoding they replace."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from turlab.harness import ExperimentConfig, TrialColumns, TrialRecord, VariantColumns, VariantValues, run_experiment
from turlab.serialize import CSV_COLUMNS, _sanitize, trials_csv_text, trials_json_text


def reference_row(r: TrialRecord) -> dict:
    row = {"trial_id": r.trial_id, "gamma": r.gamma}
    row.update({f"theta_{i}": t for i, t in enumerate(r.thetas, start=1)})
    row["a_i"], row["a_j"] = r.a_idx
    row["b_i"], row["b_j"] = r.b_idx
    for variant, v in (("exact", r.exact), ("approx", r.approx), ("sampled", r.sampled)):
        for name in ("c_real", "xi_b", "q_ab", "lower", "upper", "tur_lhs"):
            row[f"{name}_{variant}"] = None if v is None else getattr(v, name)
    row["postselect_p0"] = r.postselect_p0
    row["violated_exact"] = r.exact.tur_violated
    row["violated_sampled"] = None if r.sampled is None else r.sampled.tur_violated
    return row


def reference_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def reference_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        row = reference_row(r)
        writer.writerow([reference_cell(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def reference_json(records) -> str:
    """json.dumps of the dict rows, each finite float printed as its CSV cell: marked as a string, then unquoted."""
    def number(x):
        return f"<{reference_cell(x)}>" if isinstance(x, float) and math.isfinite(x) else x

    rows = [{c: number(x) for c, x in reference_row(r).items()} for r in records]
    text = json.dumps(_sanitize({"trials": rows}), indent=2, allow_nan=False) + "\n"
    return text.replace('"<', "").replace('>"', "")


def columns_of(rows: list[TrialRecord]) -> TrialColumns:
    """The columns of hand-built rows, as a run holds them: a row without a sampled variant has shots 0 and nan
    sampled cells, and sampled is None if no row has one."""
    absent = VariantValues(*[math.nan] * 6, contained=False, tur_violated=False)

    def variants(values):
        return VariantColumns(*(np.array([getattr(v or absent, f.name) for v in values])
                                for f in dataclasses.fields(VariantValues)))

    widths = {"thetas": 12, "a_idx": 2, "b_idx": 2}
    columns = {}
    for f in dataclasses.fields(TrialRecord):
        values = [getattr(r, f.name) for r in rows]
        if f.name in ("exact", "approx", "sampled"):
            columns[f.name] = None if f.name == "sampled" and values.count(None) == len(rows) else variants(values)
        elif f.name == "failure":
            columns[f.name] = np.array(values, dtype=object)
        else:
            columns[f.name] = np.array(values).reshape(len(rows), *([widths[f.name]] if f.name in widths else []))
    return TrialColumns(**columns)


SPECIAL = (math.inf, -math.inf, math.nan, -0.0)


def special_variant(k: int) -> VariantValues:
    return VariantValues(*(SPECIAL[(k + j) % 4] for j in range(6)), contained=False, tur_violated=True,
                         degenerate=True)


def hand_built_records() -> list[TrialRecord]:
    """Cells no experiment is known to produce: every float column holds inf, -inf, nan or -0.0 in some row, beside
    floats whose repr and .17g differ."""
    plain = VariantValues(c_real=0.1, xi_b=1e-300, q_ab=-2.5e20, lower=-1.0, upper=1 / 3,
                          tur_lhs=math.inf, contained=True, tur_violated=False)
    common = dict(a_idx=(0, 3), b_idx=(2, 1), general_tur_holds=True, contained_imag=True, sep_tur_holds_imag=True,
                  tur_margin=math.inf, bound_gap=0.0)
    return [
        TrialRecord(trial_id=0, gamma=-0.0, thetas=tuple(SPECIAL[k % 4] for k in range(12)), exact=special_variant(0),
                    approx=plain, sampled=special_variant(1), shots=1000, postselect_p0=math.nan, **common),
        TrialRecord(trial_id=1, gamma=0.7, thetas=tuple(0.1 * k for k in range(12)), exact=plain,
                    approx=special_variant(2), sampled=None, shots=0, postselect_p0=1e-12,
                    failure="no shots survived the E = e0 postselection", **common),
        TrialRecord(trial_id=2, gamma=math.inf, thetas=tuple(SPECIAL[(k + 2) % 4] for k in range(12)),
                    exact=special_variant(3), approx=plain, sampled=plain, shots=1000, postselect_p0=-math.inf,
                    **common),
    ]


def experiment_records(gamma_range, shots):
    config = ExperimentConfig(seed=4, n_trials=40, shots=shots, gamma_range=gamma_range)
    columns = run_experiment(config)[0]
    return [columns.row(n) for n in range(len(columns.trial_id))], columns


def hand_built():
    rows = hand_built_records()
    return rows, columns_of(rows)


CASES = {
    "degenerate-gamma-0": lambda: experiment_records((0.0, 0.0), 0),
    "gamma-0.5-0.99": lambda: experiment_records((0.5, 0.99), 0),
    "shots-1-failures": lambda: experiment_records((0.0, 0.75), 1),
    "shots-1000": lambda: experiment_records((0.0, 0.75), 1000),
    "hand-built": hand_built,
    "empty": lambda: ([], columns_of([])),
}


@pytest.mark.parametrize("case", CASES)
def test_writers_equal_dict_row_encoding(case):
    rows, columns = CASES[case]()
    csv_text = trials_csv_text(columns)
    assert csv_text == reference_csv(rows)
    assert trials_json_text(csv_text) == reference_json(rows)


class Number(str):
    """A JSON number's text, as json.loads read it."""


def reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("case", CASES)
def test_json_cells_are_the_csv_cells(case):
    _, columns = CASES[case]()
    csv_text = trials_csv_text(columns)
    json_rows = json.loads(trials_json_text(csv_text), parse_float=Number, parse_int=Number,
                           parse_constant=reject)["trials"]
    csv_rows = list(csv.reader(io.StringIO(csv_text)))
    assert csv_rows[0] == list(CSV_COLUMNS) and len(json_rows) == len(csv_rows) - 1
    for json_row, cells in zip(json_rows, csv_rows[1:]):
        assert list(json_row) == list(CSV_COLUMNS)
        for value, cell in zip(json_row.values(), cells, strict=True):
            if isinstance(value, Number):
                assert value == cell
            elif value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            else:
                assert value == cell and cell in ("inf", "-inf", "nan")


def test_cases_cover_the_special_cells():
    degenerate, _ = experiment_records((0.0, 0.0), 0)
    assert any(math.isinf(r.exact.tur_lhs) for r in degenerate)
    failing, _ = experiment_records((0.0, 0.75), 1)
    assert any(r.failure is not None for r in failing) and any(r.sampled is not None for r in failing)
    assert repr(0.1) != format(0.1, ".17g")
    rows = [reference_row(r) for r in hand_built_records()]
    floats = [c for c in CSV_COLUMNS if isinstance(rows[0][c], float)]
    assert len(floats) == 1 + 12 + 3 * 6 + 1
    for column in floats:
        cells = [row[column] for row in rows if row[column] is not None]
        assert any(not math.isfinite(x) or (x == 0 and math.copysign(1.0, x) < 0) for x in cells), column
