"""The benchmark's workloads and the correctness gate applied to every request.

A request is one call of turlab's public entry point ``turlab.cli.main``: one
``experiment`` or ``verify`` command on the batch workloads, one ``bound``
query on ``bound-queries``. Every request is gated; a request that raises or
misses the gate counts all of its items as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from turlab import cli
from turlab.harness import ExperimentConfig, generate_trial
from turlab.protocol import exact_correlator
from turlab.serialize import encode_matrix

WORKLOADS = ("exact-sweep", "shots-sweep", "verify-suites", "bound-queries")

# Request sizes: one request takes 0.5-1 s on the batch workloads, so a run
# gives enough requests for a median and its spread.
EXPERIMENT_TRIALS = 100
VERIFY_TRIALS = 100
BOUND_GROUP = 50          # bound queries per throughput sample

# The five counters of summary.json["violations"]["exact"]; the exact bounds
# are theorems, so each must read 0. neumann1 and sampled are approximations
# and are reported, not gated.
EXACT_COUNTERS = ("tur", "containment", "tur_imag", "containment_imag", "general")
CORRELATOR_ATOL = 1e-12
HASHED_OUTPUTS = ("trials.csv", "trials.json")


@dataclass
class Request:
    """One timed call of ``cli.main`` and what its gate found."""

    items: int
    seconds: float
    problems: list[str]
    sampled: tuple[int, int] = (0, 0)   # (sampled values produced, sampled trials attempted)


def call_main(argv: list[str]) -> tuple[int | None, float, str, str]:
    """Run ``turlab.cli.main(argv)`` with its output captured; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed request, not the end of the run
            code = None
            traceback.print_exc()
        seconds = perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def _exit_problem(code: int | None, err: str) -> list[str]:
    if code == 0:
        return []
    tail = err.strip().splitlines()[-1:] or [""]
    return [f"exit code {code}: {tail[0]}"]


def experiment_problems(code: int | None, summary: dict | None, hashes: dict | None,
                        reference: dict | None, err: str = "") -> list[str]:
    """Gate of one ``turlab experiment`` command."""
    problems = _exit_problem(code, err)
    if summary is None:
        return problems or ["summary.json missing"]
    exact = summary.get("violations", {}).get("exact", {})
    nonzero = {k: exact.get(k) for k in EXACT_COUNTERS if exact.get(k) != 0}
    if nonzero:
        problems.append(f"exact violations {nonzero}")
    if reference is not None and hashes != reference:
        problems.append("trials.csv/trials.json differ from the first repetition of this seed")
    return problems


def verify_problems(code: int | None, report: dict | None, err: str = "") -> list[str]:
    """Gate of one ``turlab verify`` command."""
    problems = _exit_problem(code, err)
    if report is None:
        return problems or ["verify report missing"]
    if report.get("all_passed") is not True:
        failing = [s.get("name") for s in report.get("suites", []) if not s.get("passed")]
        problems.append(f"verify failing suites {failing}")
    return problems


def bound_problems(code: int | None, stdout: str, expected: float, err: str = "") -> list[str]:
    """Gate of one ``turlab bound`` query against the direct Re C(T)."""
    problems = _exit_problem(code, err)
    if problems:
        return problems
    try:
        bound = json.loads(stdout)["bound"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable bound output: {exc}"]
    if bound.get("holds") is not True:
        problems.append("bound.holds is not true")
    value = bound.get("correlator_real")
    if not isinstance(value, float) or abs(value - expected) > CORRELATOR_ATOL:
        problems.append(f"correlator_real {value!r} != exact_correlator {expected!r}")
    return problems


class ExperimentWorkload:
    """``turlab experiment`` commands, all on the workload seed (closed loop, one client)."""

    group = 1

    def __init__(self, seed: int, workdir: Path, extra: list[str], trials: int = EXPERIMENT_TRIALS):
        self.seed, self.workdir, self.extra, self.trials = seed, workdir, extra, trials
        self.reference: dict | None = None

    def _argv(self, trials: int, out_dir: Path) -> list[str]:
        return ["experiment", "--seed", str(self.seed), "--trials", str(trials),
                "--out-dir", str(out_dir), *self.extra]

    def warm_up(self) -> None:
        code, _, _, err = call_main(self._argv(1, self.workdir / "warm-up"))
        if code != 0:
            raise RuntimeError(f"warm-up experiment failed: {err.strip()}")

    def request(self) -> Request:
        out_dir = self.workdir / "experiment"
        (out_dir / "summary.json").unlink(missing_ok=True)
        code, seconds, _, err = call_main(self._argv(self.trials, out_dir))
        summary = hashes = None
        if code == 0:
            summary = json.loads((out_dir / "summary.json").read_text())
            hashes = {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in HASHED_OUTPUTS}
        problems = experiment_problems(code, summary, hashes, self.reference, err)
        if self.reference is None and not problems:
            self.reference = hashes
        sampled = (0, 0)
        if summary is not None:
            produced = summary["violations"].get("sampled", {}).get("n", 0)
            sampled = (produced, produced + summary["failed_trials"])
        return Request(self.trials, seconds, problems, sampled)


class VerifyWorkload:
    """``turlab verify`` with all five suites (closed loop, one client).

    Command k runs verify seed ``seed * 10000 + k``: the suites draw channel
    dimensions at random, so one verify seed alone would make a run's speed
    depend on its draw.
    """

    group = 1

    def __init__(self, seed: int, workdir: Path, trials: int = VERIFY_TRIALS):
        self.seed, self.workdir, self.trials = seed, workdir, trials
        self.commands = 0
        self.cases = 1   # items of a command that left no report: the last count seen

    def _run(self, trials: int) -> tuple[int | None, float, dict | None, str]:
        report_path = self.workdir / "verify.json"
        self.workdir.mkdir(parents=True, exist_ok=True)
        report_path.unlink(missing_ok=True)
        verify_seed = self.seed * 10000 + self.commands
        self.commands += 1
        argv = ["verify", "--seed", str(verify_seed), "--trials", str(trials), "--json", str(report_path)]
        code, seconds, _, err = call_main(argv)
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        return code, seconds, report, err

    def warm_up(self) -> None:
        code, _, report, err = self._run(1)
        if verify_problems(code, report, err):
            raise RuntimeError(f"warm-up verify failed: {err.strip()}")

    def request(self) -> Request:
        code, seconds, report, err = self._run(self.trials)
        if report is not None:
            self.cases = sum(s["cases"] for s in report["suites"])
        return Request(self.cases, seconds, verify_problems(code, report, err))


class BoundWorkload:
    """In-process ``turlab bound`` queries, each on a distinct harness instance from the seed."""

    group = BOUND_GROUP

    def __init__(self, seed: int):
        self.config = ExperimentConfig(seed=seed)
        self.next_id = 0

    def _query(self):
        setup = generate_trial(self.config, self.next_id)
        self.next_id += 1
        channel = {"unitary": encode_matrix(setup.channel.dilation.unitary), "dims": [4, 2], "env_initial": 0}
        argv = ["bound", "--channel", json.dumps(channel)]
        for flag, m in (("--rho", setup.rho), ("--a", setup.a_op), ("--b", setup.b_op)):
            argv += [flag, json.dumps(encode_matrix(m))]
        return setup, argv

    def _run(self) -> tuple[float, list[str]]:
        setup, argv = self._query()
        code, seconds, out, err = call_main(argv)
        expected = exact_correlator(setup.rho, setup.channel, setup.a_op, setup.b_op).real
        return seconds, bound_problems(code, out, expected, err)

    def warm_up(self) -> None:
        _, problems = self._run()
        if problems:
            raise RuntimeError(f"warm-up bound query failed: {problems}")

    def request(self) -> Request:
        seconds, problems = self._run()
        return Request(1, seconds, problems)


def make(name: str, seed: int, workdir: Path):
    """The workload called ``name``, its inputs drawn from ``seed``."""
    if name == "exact-sweep":
        return ExperimentWorkload(seed, workdir / name, ["--shots", "0", "--variants", "exact,neumann1"])
    if name == "shots-sweep":
        return ExperimentWorkload(seed, workdir / name, [])
    if name == "verify-suites":
        return VerifyWorkload(seed, workdir / name)
    if name == "bound-queries":
        return BoundWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
