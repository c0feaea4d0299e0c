"""Command-line front end.

Exit codes: 0 success, 2 invariant/property failure, 3 input error,
4 numerical degeneracy (singular no-jump operator or vanishing postselection).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from ._version import __version__
from .errors import ContractError, DegenerateChannel, SingularOperator
from .harness import ExperimentConfig, run_experiment
from .protocol import _bound_and_tradeoff
from .serialize import (
    SpecParseError,
    channel_from_spec,
    decode_matrix,
    dumps_json,
    manifest_text,
    summary_json_text,
    trials_csv_text,
    trials_json_text,
)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_INPUT = 3
EXIT_DEGENERATE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 3, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps no state in it between calls."""
    parser = _Parser(prog="turlab", description="TPCP-map thermodynamic trade-off toolkit")
    parser.add_argument("--version", action="version", version=f"turlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the property suites", parents=[], add_help=True)
    p_verify.add_argument("--suite", action="append", default=None,
                          help=f"suite name ({', '.join(SUITES)}); repeatable; default all")
    p_verify.add_argument("--trials", type=int, default=100, help="instances per suite (default 100)")
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.add_argument("--json", type=Path, default=None, help="also write a JSON report here")
    p_verify.add_argument("--inject-fault", choices=["dv0-sign"], default=None,
                          help="test-only: corrupt one internal formula to prove suite sensitivity")

    p_exp = sub.add_parser("experiment", help="run the randomized trial family and emit data files")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--trials", type=int, default=50)
    p_exp.add_argument("--shots", type=int, default=1000)
    p_exp.add_argument("--gamma-min", type=float, default=0.0)
    p_exp.add_argument("--gamma-max", type=float, default=0.75)
    p_exp.add_argument("--variants", default="exact,neumann1,sampled",
                       help="comma list among exact,neumann1,sampled; only switches sampled "
                            "(exact and neumann1 are always computed)")
    p_exp.add_argument("--out-dir", type=Path, required=True)

    p_bound = sub.add_parser("bound", help="evaluate the correlator bound for one instance")
    p_bound.add_argument("--channel", required=True, help="JSON file with the channel spec")
    p_bound.add_argument("--rho", required=True, help="JSON file or inline JSON matrix")
    p_bound.add_argument("--a", required=True, help="JSON file or inline JSON matrix")
    p_bound.add_argument("--b", required=True, help="JSON file or inline JSON matrix")
    p_bound.add_argument("--variant", choices=["exact", "neumann1"], default="exact")
    p_bound.add_argument("--part", choices=["real", "imag"], default="real")
    return parser


def _cmd_verify(args) -> int:
    suites = SUITES
    if args.suite is not None:
        # a repeated name runs once, in the order of its first occurrence
        suites = tuple(dict.fromkeys(s.strip() for entry in args.suite for s in entry.split(",") if s.strip()))
        if not suites:
            print("--suite names no suite", file=sys.stderr)
            return EXIT_INPUT
        unknown = set(suites) - set(SUITES)
        if unknown:
            print(f"unknown suite(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return EXIT_INPUT
    if args.inject_fault == "dv0-sign" and "scaling" not in suites:
        print("--inject-fault dv0-sign corrupts only the scaling suite; select scaling", file=sys.stderr)
        return EXIT_INPUT
    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    try:   # before the suites, so that an unusable --json costs no run
        report_file = args.json.open("w") if args.json is not None else contextlib.nullcontext()
    except OSError as exc:
        print(f"input error: cannot write --json: {exc}", file=sys.stderr)
        return EXIT_INPUT
    with report_file:
        results = run_suites(suites, trials=args.trials, seed=args.seed, inject_fault=args.inject_fault)
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            print(f"[{tag}] {r.name}: {r.cases} cases, {r.note} (worst {r.worst:.3e})")
        report = {
            "all_passed": all(r.passed for r in results),
            "trials": args.trials,
            "seed": args.seed,
            "suites": [dataclasses.asdict(r) for r in results],
        }
        if args.json is not None:
            report_file.write(dumps_json(report))
    if not report["all_passed"]:
        failing = ", ".join(r.name for r in results if not r.passed)
        print(f"failing suites: {failing}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_experiment(args) -> int:
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    try:
        config = ExperimentConfig(
            seed=args.seed, n_trials=args.trials, shots=args.shots,
            gamma_range=(args.gamma_min, args.gamma_max), variants=variants,
        )
    except ContractError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out_dir = args.out_dir
    with contextlib.ExitStack() as stack:
        try:   # before the run, so that an unusable --out-dir or output file costs no trials
            out_dir.mkdir(parents=True, exist_ok=True)
            files = {name: stack.enter_context((out_dir / name).open("wb"))
                     for name in ("trials.csv", "trials.json", "summary.json", "manifest.json")}
        except OSError as exc:
            print(f"input error: cannot write into --out-dir: {exc}", file=sys.stderr)
            return EXIT_INPUT
        start = time.perf_counter()
        try:
            records, summary = run_experiment(config)
        except (SingularOperator, DegenerateChannel) as exc:
            print(f"numerical degeneracy: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        evaluated = time.perf_counter()
        outputs = {
            "trials.csv": trials_csv_text(records).encode(),
            "trials.json": trials_json_text(records).encode(),
            "summary.json": summary_json_text(summary).encode(),
        }
        serialized = time.perf_counter()
        for name, blob in outputs.items():
            files[name].write(blob)
            files[name].close()
        written = time.perf_counter()
        stages = {"evaluate": evaluated - start, "serialize": serialized - evaluated, "write": written - serialized}
        files["manifest.json"].write(manifest_text(dataclasses.asdict(config), outputs, stages).encode())
    exact = summary.violations["exact"]
    print(f"wrote {len(files)} files to {out_dir}")
    print(f"exact violations: tur={exact['tur']} containment={exact['containment']} "
          f"imag={exact['tur_imag']}/{exact['containment_imag']} general={exact['general']}")
    if "sampled" in summary.violations:
        s = summary.violations["sampled"]
        print(f"sampled violations (shot noise): tur={s['tur']} containment={s['containment']} of n={s['n']}")
    return EXIT_OK


def _load_json_arg(raw: str, name: str):
    text = raw.strip()
    if text.startswith("[") or text.startswith("{"):
        source = text
    else:
        path = Path(raw)
        if not path.exists():
            raise SpecParseError(name, f"file not found: {raw}")
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:   # a directory, an unreadable or a non-UTF-8 file
            raise SpecParseError(name, f"cannot read {raw}: {exc}") from exc
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise SpecParseError(name, f"invalid JSON: {exc}") from exc


def _cmd_bound(args) -> int:
    try:
        channel = channel_from_spec(_load_json_arg(args.channel, "channel"), "channel")
        rho = decode_matrix(_load_json_arg(args.rho, "rho"), "rho")
        a = decode_matrix(_load_json_arg(args.a, "A"), "A")
        b = decode_matrix(_load_json_arg(args.b, "B"), "B")
    except (SpecParseError, ContractError) as exc:   # ContractError: the spec builds no valid channel
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        bound, tur = _bound_and_tradeoff(rho, channel, a, b, args.variant, args.part)
    except (SingularOperator, DegenerateChannel) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ContractError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(dumps_json({"bound": dataclasses.asdict(bound), "tur": dataclasses.asdict(tur)}), end="")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    return _cmd_bound(args)


if __name__ == "__main__":
    raise SystemExit(main())
