"""The fixed-schema trial writers against the dict-row csv/json encoding they replace."""

import csv
import io
import json
import math

import pytest

from turlab.harness import ExperimentConfig, TrialRecord, VariantValues, run_experiment
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
    return json.dumps(_sanitize({"trials": [reference_row(r) for r in records]}), indent=2, allow_nan=False) + "\n"


def hand_built_records() -> list[TrialRecord]:
    """Cells no experiment is known to produce: -inf, nan, -0.0 and floats whose repr and .17g differ."""
    odd = VariantValues(c_real=0.1, xi_b=math.inf, q_ab=-math.inf, lower=math.nan, upper=-0.0,
                        tur_lhs=1 / 3, contained=False, tur_violated=True, degenerate=True)
    plain = VariantValues(c_real=0.5, xi_b=1e-300, q_ab=-2.5e20, lower=-1.0, upper=1.0,
                          tur_lhs=math.inf, contained=True, tur_violated=False)
    common = dict(gamma=0.7, thetas=tuple(0.1 * k for k in range(12)), a_idx=(0, 3), b_idx=(2, 1),
                  general_tur_holds=True, contained_imag=True, sep_tur_holds_imag=True,
                  tur_margin=math.inf, bound_gap=0.0)
    return [
        TrialRecord(trial_id=0, exact=odd, approx=plain, sampled=plain, shots=1000, postselect_p0=0.9,
                    **common),
        TrialRecord(trial_id=1, exact=plain, approx=odd, sampled=None, shots=0, postselect_p0=1e-12,
                    failure="no shots survived the E = e0 postselection", **common),
    ]


def experiment_records(gamma_range, shots):
    config = ExperimentConfig(seed=4, n_trials=40, shots=shots, gamma_range=gamma_range)
    return run_experiment(config)[0]


CASES = {
    "degenerate-gamma-0": lambda: experiment_records((0.0, 0.0), 0),
    "gamma-0.5-0.99": lambda: experiment_records((0.5, 0.99), 0),
    "shots-1-failures": lambda: experiment_records((0.0, 0.75), 1),
    "shots-1000": lambda: experiment_records((0.0, 0.75), 1000),
    "hand-built": hand_built_records,
    "empty": lambda: [],
}


@pytest.mark.parametrize("case", CASES)
def test_writers_equal_dict_row_encoding(case):
    records = CASES[case]()
    assert trials_csv_text(records) == reference_csv(records)
    assert trials_json_text(records) == reference_json(records)


def test_cases_cover_the_special_cells():
    degenerate = experiment_records((0.0, 0.0), 0)
    assert any(math.isinf(r.exact.tur_lhs) for r in degenerate)
    failing = experiment_records((0.0, 0.75), 1)
    assert any(r.failure is not None for r in failing) and any(r.sampled is not None for r in failing)
    assert repr(0.1) != format(0.1, ".17g")
