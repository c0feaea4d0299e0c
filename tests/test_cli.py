import csv
import json
from pathlib import Path

import numpy as np
import pytest

from turlab import cli
from turlab.cli import main
from turlab.random_ops import random_density
from turlab.serialize import CSV_COLUMNS, encode_matrix

from conftest import amplitude_damping_unitary, hermitian_unitary, random_channel


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def ad_channel_spec(gamma):
    return {"unitary": encode_matrix(amplitude_damping_unitary(gamma)), "dims": [2, 2], "env_initial": 0}


DATA = Path(__file__).parent / "data"
SZ = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
RHO1 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


class TestVerifyCommand:
    def test_default_run_all_suites(self, capsys):
        assert main(["verify", "--trials", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("qfi", "scaling", "protocol", "saturation", "series"):
            assert f"[PASS] {name}" in out

    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "qfi", "--trials", "15", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] qfi" in out

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--suite", "protocol,saturation", "--trials", "10",
                     "--json", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["all_passed"] is True
        assert {s["name"] for s in data["suites"]} == {"protocol", "saturation"}

    @pytest.mark.parametrize("where", ["missing/report.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_json_exits_3_before_the_suites(self, tmp_path, capsys, monkeypatch, where):
        def refuse(*args, **kwargs):
            raise AssertionError("ran the suites")

        monkeypatch.setattr(cli, "run_suites", refuse)
        assert main(["verify", "--suite", "qfi", "--trials", "2", "--json", str(tmp_path / where)]) == 3
        assert "--json" in capsys.readouterr().err

    def test_injected_fault_fails_scaling(self, capsys):
        code = main(["verify", "--suite", "scaling", "--trials", "6", "--inject-fault", "dv0-sign"])
        assert code == 2
        assert "[FAIL] scaling" in capsys.readouterr().out

    def test_negative_seed_is_input_error(self, capsys, tmp_path):
        assert main(["verify", "--suite", "qfi", "--trials", "2", "--seed", "-1"]) == 3
        assert main(["experiment", "--seed", "-1", "--trials", "2", "--out-dir", str(tmp_path / "x")]) == 3
        assert not (tmp_path / "x").exists()

    def test_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        from turlab import __version__

        report = tmp_path / "report.json"
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"turlab {__version__}\n"
        assert main(["verify", "--suite", "qfi", "--trials", "2", "--json", str(report)]) == 0
        assert [s["name"] for s in json.loads(report.read_text())["suites"]] == ["qfi"]
        assert capsys.readouterr().out.startswith("[PASS] qfi")
        report.unlink()
        assert main(["verify", "--suite", "protocol", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "protocol" in out and "qfi" not in out and not report.exists()
        assert main(["verify", "--trials", "2", "--seed", "1"]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 5
        assert main(["verify", "--suite", "scaling", "--trials", "6", "--inject-fault", "dv0-sign"]) == 2
        assert main(["verify", "--trials", "0"]) == 3
        assert main(["verify", "--suite", "nope"]) == 3
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.endswith(f"turlab {__version__}\n")

    def test_unknown_suite_is_input_error(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 3

    @pytest.mark.parametrize("suite", [",", " , ", ""])
    def test_empty_suite_selection_is_input_error(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--trials", "2"]) == 3
        captured = capsys.readouterr()
        assert "names no suite" in captured.err and "[PASS]" not in captured.out

    def test_repeated_suite_runs_once_in_first_occurrence_order(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        argv = ["verify", "--suite", "protocol", "--suite", "qfi,protocol", "--suite", "qfi", "--trials", "2"]
        assert main(argv + ["--json", str(report)]) == 0
        assert [s["name"] for s in json.loads(report.read_text())["suites"]] == ["protocol", "qfi"]

    def test_injected_fault_without_scaling_is_input_error(self, capsys):
        assert main(["verify", "--suite", "qfi,protocol", "--trials", "2", "--inject-fault", "dv0-sign"]) == 3
        captured = capsys.readouterr()
        assert "scaling" in captured.err and "[PASS]" not in captured.out


class TestExperimentCommand:
    def run_once(self, tmp_path, name, capsys):
        out_dir = tmp_path / name
        code = main(["experiment", "--seed", "7", "--trials", "5", "--shots", "0",
                     "--variants", "exact", "--out-dir", str(out_dir)])
        assert code == 0
        capsys.readouterr()
        return out_dir

    def test_files_and_zero_violations(self, tmp_path, capsys):
        out_dir = self.run_once(tmp_path, "run1", capsys)
        for name in ("trials.csv", "trials.json", "summary.json", "manifest.json"):
            assert (out_dir / name).exists()
        with open(out_dir / "trials.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert all(r["violated_exact"] == "false" for r in rows)
        assert all(r["c_real_sampled"] == "" for r in rows)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["violations"]["exact"]["tur"] == 0

    def test_byte_identical_rerun(self, tmp_path, capsys):
        d1 = self.run_once(tmp_path, "a", capsys)
        d2 = self.run_once(tmp_path, "b", capsys)
        assert (d1 / "trials.csv").read_bytes() == (d2 / "trials.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    def test_manifest_references_and_checksums(self, tmp_path, capsys):
        out_dir = self.run_once(tmp_path, "run2", capsys)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        import hashlib
        paths = [o["path"] for o in manifest["outputs"]]
        assert sorted(paths) == ["summary.json", "trials.csv", "trials.json"]
        assert len(paths) == len(set(paths))
        for entry in manifest["outputs"]:
            blob = (out_dir / entry["path"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]

    def test_csv_json_duals_agree(self, tmp_path, capsys):
        out_dir = self.run_once(tmp_path, "run3", capsys)
        with open(out_dir / "trials.csv") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads((out_dir / "trials.json").read_text())["trials"]
        assert list(csv_rows[0].keys()) == list(CSV_COLUMNS)
        for crow, jrow in zip(csv_rows, json_rows):
            for col in CSV_COLUMNS:
                jval = jrow[col]
                cval = crow[col]
                if jval is None:
                    assert cval == ""
                elif isinstance(jval, bool):
                    assert cval == ("true" if jval else "false")
                elif isinstance(jval, int):
                    assert int(cval) == jval
                elif isinstance(jval, str):  # non-finite marker from a degenerate ratio
                    assert cval == jval
                else:
                    assert abs(float(cval) - jval) <= 1e-12 * max(1.0, abs(jval))

    def test_degenerate_trials_serialize(self, tmp_path, capsys):
        # gamma = 0 makes every trial unitary, hence degenerate (tur_lhs = inf)
        out_dir = tmp_path / "degen"
        code = main(["experiment", "--seed", "1", "--trials", "3", "--shots", "0",
                     "--variants", "exact", "--gamma-min", "0", "--gamma-max", "0",
                     "--out-dir", str(out_dir)])
        assert code == 0
        capsys.readouterr()
        with open(out_dir / "trials.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["tur_lhs_exact"] == "inf" for r in rows)
        assert all(r["violated_exact"] == "false" for r in rows)
        json_rows = json.loads((out_dir / "trials.json").read_text())["trials"]
        assert all(r["tur_lhs_exact"] == "inf" for r in json_rows)

    def test_singular_no_jump_operator_exits_4_naming_trial(self, tmp_path, capsys):
        code = main(["experiment", "--gamma-min", "0.9999999", "--gamma-max", "0.9999999",
                     "--trials", "2", "--shots", "0", "--out-dir", str(tmp_path / "sing")])
        assert code == 4
        err = capsys.readouterr().err
        assert "trial 0" in err and "singular" in err

    def test_bad_flags_exit_3(self, capsys, tmp_path):
        assert main(["experiment", "--gamma-max", "1.5", "--out-dir", str(tmp_path / "x")]) == 3
        assert main(["experiment"]) == 3  # missing --out-dir

    def test_matches_the_committed_golden_run(self, tmp_path, capsys):
        """trials.csv of `experiment --seed 7 --trials 40 --shots 0 --variants exact,neumann1`, as first committed:
        inputs and flags exactly, values within 1e-12, the trade-off lhs within 1e-6 relative."""
        assert main(["experiment", "--seed", "7", "--trials", "40", "--shots", "0", "--variants", "exact,neumann1",
                     "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "trials.csv") as fh:
            got = list(csv.DictReader(fh))
        with open(DATA / "golden_seed7_trials40_exact_neumann1.csv") as fh:
            want = list(csv.DictReader(fh))
        assert len(got) == len(want) == 40 and tuple(got[0]) == tuple(want[0]) == CSV_COLUMNS
        exact = {"trial_id", "gamma", "a_i", "a_j", "b_i", "b_j", "violated_exact", "violated_sampled"}
        for g, w in zip(got, want):
            for column in CSV_COLUMNS:
                if column in exact or column.startswith("theta_") or w[column] in ("", "inf", "-inf"):
                    assert g[column] == w[column], (w["trial_id"], column)
                elif column.startswith("tur_lhs_"):
                    assert float(g[column]) == pytest.approx(float(w[column]), rel=1e-6), (w["trial_id"], column)
                else:
                    assert abs(float(g[column]) - float(w[column])) <= 1e-12, (w["trial_id"], column)

    def test_out_dir_naming_a_file_exits_3_before_the_run(self, tmp_path, capsys, monkeypatch):
        def refuse(config):
            raise AssertionError("ran the experiment")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        (tmp_path / "file").write_text("")
        assert main(["experiment", "--trials", "2", "--shots", "0", "--out-dir", str(tmp_path / "file")]) == 3
        assert "--out-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["trials.csv", "trials.json", "summary.json", "manifest.json"])
    def test_output_that_cannot_be_written_exits_3_before_the_run(self, tmp_path, capsys, monkeypatch, name):
        def refuse(config):
            raise AssertionError("ran the experiment")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        (tmp_path / name).mkdir()
        assert main(["experiment", "--trials", "2", "--shots", "0", "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot write") and name in err and "Traceback" not in err

    def test_manifest_splits_the_runtime_into_stages(self, tmp_path, capsys):
        assert main(["experiment", "--trials", "3", "--shots", "0", "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        stages = manifest["stage_seconds"]
        assert list(stages) == ["evaluate", "serialize", "write"] and all(t >= 0 for t in stages.values())
        assert sum(stages.values()) == pytest.approx(manifest["runtime_seconds"], rel=1e-6)
        assert "stage_seconds" not in (tmp_path / "summary.json").read_text()


class TestBoundCommand:
    def test_identity_channel_degenerate_report(self, tmp_path, capsys):
        spec = {"unitary": encode_matrix(np.eye(4)), "dims": [2, 2], "env_initial": 0}
        code = main([
            "bound",
            "--channel", write_spec(tmp_path, "ch.json", spec),
            "--rho", write_spec(tmp_path, "rho.json", RHO1),
            "--a", write_spec(tmp_path, "a.json", SZ),
            "--b", write_spec(tmp_path, "b.json", SZ),
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tur"]["degenerate"] is True
        assert data["tur"]["holds"] is True

    def test_amplitude_damping_closed_form(self, tmp_path, capsys):
        code = main([
            "bound",
            "--channel", write_spec(tmp_path, "ch.json", ad_channel_spec(0.5)),
            "--rho", write_spec(tmp_path, "rho.json", RHO1),
            "--a", write_spec(tmp_path, "a.json", SZ),
            "--b", write_spec(tmp_path, "b.json", SZ),
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["bound"]["correlator_real"]) <= 1e-10
        assert data["bound"]["holds"] is True
        assert abs(data["bound"]["xi_b"] - 1.0) <= 1e-10

    def test_inline_json_accepted(self, tmp_path, capsys):
        code = main([
            "bound",
            "--channel", write_spec(tmp_path, "ch.json", ad_channel_spec(0.25)),
            "--rho", json.dumps(RHO1),
            "--a", json.dumps(SZ),
            "--b", json.dumps(SZ),
        ])
        assert code == 0

    @pytest.mark.parametrize("variant", ["exact", "neumann1"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_no_jump_index_one_equals_the_reordered_channel(self, variant, part, capsys):
        """A Kraus channel whose no-jump operator sits at index 1 bounds as its operators reordered to index 0."""
        rng = np.random.default_rng(29)
        ops = [encode_matrix(v) for v in random_channel(3, 3, rng).operators]   # V_0 is ops[0]
        inputs = [json.dumps(encode_matrix(m)) for m in (random_density(3, rng, rank=2), hermitian_unitary(3, rng),
                                                         hermitian_unitary(3, rng))]
        reports = []
        for spec in ({"kraus": [ops[1], ops[0], ops[2]], "no_jump_index": 1}, {"kraus": ops, "no_jump_index": 0}):
            code = main(["bound", "--channel", json.dumps(spec), "--rho", inputs[0], "--a", inputs[1],
                         "--b", inputs[2], "--variant", variant, "--part", part])
            assert code == 0
            reports.append(json.loads(capsys.readouterr().out))
        for key in ("bound", "tur"):
            one, zero = reports[0][key], reports[1][key]
            assert one.keys() == zero.keys()
            for name, value in one.items():
                if isinstance(value, float):
                    assert abs(value - zero[name]) <= 1e-12, (key, name)
                else:
                    assert value == zero[name], (key, name)
        assert reports[0]["bound"]["approx_variant"] == variant

    def test_malformed_row_names_row(self, tmp_path, capsys):
        bad = {"kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]], "no_jump_index": 0}
        code = main([
            "bound",
            "--channel", write_spec(tmp_path, "bad.json", bad),
            "--rho", json.dumps(RHO1),
            "--a", json.dumps(SZ),
            "--b", json.dumps(SZ),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "channel.kraus[0][1]" in err

    def test_singular_channel_exits_4_with_eigenvalue(self, tmp_path, capsys):
        code = main([
            "bound",
            "--channel", write_spec(tmp_path, "ch.json", ad_channel_spec(1.0)),
            "--rho", json.dumps(RHO1),
            "--a", json.dumps(SZ),
            "--b", json.dumps(SZ),
        ])
        assert code == 4
        assert "eigenvalue" in capsys.readouterr().err

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code = main([
            "bound", "--channel", str(tmp_path / "none.json"),
            "--rho", json.dumps(RHO1), "--a", json.dumps(SZ), "--b", json.dumps(SZ),
        ])
        assert code == 3

    def test_integer_beyond_float_range_exits_3(self, capsys):
        rho = [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]
        code = main(["bound", "--channel", json.dumps(ad_channel_spec(0.25)), "--rho", json.dumps(rho),
                     "--a", json.dumps(SZ), "--b", json.dumps(SZ)])
        assert code == 3
        assert "rho[0][0]: entries must be finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--channel", "--rho", "--a", "--b"])
    def test_directory_argument_exits_3(self, flag, tmp_path, capsys):
        args = {"--channel": json.dumps(ad_channel_spec(0.25)), "--rho": json.dumps(RHO1),
                "--a": json.dumps(SZ), "--b": json.dumps(SZ), flag: str(tmp_path)}
        assert main(["bound", *(x for item in args.items() for x in item)]) == 3
        assert capsys.readouterr().err.startswith("input error: ")

    def test_non_utf8_file_exits_3(self, tmp_path, capsys):
        (tmp_path / "rho.json").write_bytes(b"\xff\xfe[[[1, 0]]]")
        code = main(["bound", "--channel", json.dumps(ad_channel_spec(0.25)), "--rho", str(tmp_path / "rho.json"),
                     "--a", json.dumps(SZ), "--b", json.dumps(SZ)])
        assert code == 3
        assert capsys.readouterr().err.startswith("input error: rho: cannot read")

    def test_operator_on_another_system_exits_3(self, tmp_path, capsys):
        sz_4 = encode_matrix(np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex))
        for flag in ("--rho", "--b"):
            args = {"--rho": json.dumps(RHO1), "--a": json.dumps(SZ), "--b": json.dumps(SZ)}
            args[flag] = json.dumps(sz_4 if flag == "--b" else encode_matrix(np.eye(4) / 4))
            code = main(["bound", "--channel", write_spec(tmp_path, "ch.json", ad_channel_spec(0.25)),
                         *(x for item in args.items() for x in item)])
            assert code == 3
            assert "must act on the channel's system" in capsys.readouterr().err

    @pytest.mark.parametrize("channel, rho, message", [
        ({"unitary": encode_matrix(np.diag([1.0, 1.0, 2.0, 1.0])), "dims": [2, 2]}, RHO1,
         "dilation unitary is not unitary"),
        ({"kraus": [encode_matrix(np.eye(2)), encode_matrix(np.diag([1.0, 0.0]))]}, RHO1,
         "completeness violated"),
        ({**ad_channel_spec(0.25), "env_initial": False}, RHO1, "channel.env_initial: expected an integer"),
        (ad_channel_spec(0.25), [[[0, 0], [0, 0]], [[0, 0], [True, False]]], "rho[1][1]: entries must be finite numbers"),
    ], ids=["not-unitary", "incomplete-kraus", "boolean-env-initial", "boolean-entry"])
    def test_invalid_channel_or_boolean_is_input_error(self, channel, rho, message, capsys):
        code = main(["bound", "--channel", json.dumps(channel), "--rho", json.dumps(rho),
                     "--a", json.dumps(SZ), "--b", json.dumps(SZ)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err

    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_neumann1_validates_and_evaluates_once(self, part, monkeypatch, capsys):
        """bound --variant neumann1 reports its own bound and the exact interval's trade-off, from one
        validation of rho, A, B and one composition of the bound (_bound_terms, which gives C(T) too)."""
        import dataclasses
        import sys

        from turlab import linalg, protocol
        from turlab.harness import ExperimentConfig, generate_trial

        s = generate_trial(ExperimentConfig(seed=5, shots=0), 3)
        want = {"bound": dataclasses.asdict(protocol.correlator_bound(s.rho, s.channel, s.a_op, s.b_op,
                                                                      variant="neumann1", part=part)),
                "tur": dataclasses.asdict(protocol.separable_tur_protocol_check(s.rho, s.channel, s.a_op, s.b_op,
                                                                                 part=part))}
        calls = {"require_density": 0, "_bound_terms": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name, original in (("require_density", linalg.require_density),
                               ("_bound_terms", protocol._bound_terms)):
            for module in [m for n, m in sys.modules.items() if n.startswith("turlab")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        spec = {"unitary": encode_matrix(s.channel.dilation.unitary), "dims": [4, 2], "env_initial": 0}
        code = main(["bound", "--channel", json.dumps(spec), "--rho", json.dumps(encode_matrix(s.rho)),
                     "--a", json.dumps(encode_matrix(s.a_op)), "--b", json.dumps(encode_matrix(s.b_op)),
                     "--variant", "neumann1", "--part", part])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(want))
        assert calls == {"require_density": 1, "_bound_terms": 1}
