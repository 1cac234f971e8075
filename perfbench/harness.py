"""Timed operations over one workload, and the checks on their outputs.

One operation is one (instance, mode) pair, run the way the command
line runs it: ``smasp solve --trace`` (``cli.build_theory`` ->
``engine.run`` -> ``trace.dump_trace``) and then ``smasp check-trace
--strict-strategy`` (``trace.load_trace`` -> ``trace.validate_trace``),
each in a process of its own. To match that, every solve and every
check gets a freshly built theory and an empty theory-context cache;
the builds happen outside the timed regions.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from workloads import Instance, Workload

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("cli", "engine", "model", "oracles", "parsing", "trace", "translations")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# The machine-speed probe: seconds one probe takes on the reference
# machine, and how far around an operation its probes are pooled.
PROBE_REF_S = 1.0e-3
PROBE_WINDOW_S = 0.5


class MissingPackage(RuntimeError):
    pass


def import_package() -> tuple[dict, float]:
    """Import ``smasp`` from the checkout's ``src`` afresh (dropping any
    earlier import) and return its modules with the seconds it took."""
    if not (SRC / "smasp" / "__init__.py").is_file():
        raise MissingPackage(f"no smasp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "smasp" or n.startswith("smasp.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("smasp")
    mods = {name: importlib.import_module("smasp." + name) for name in MODULES}
    elapsed = time.perf_counter() - start
    if not Path(mods["engine"].__file__).resolve().is_relative_to(SRC):
        raise MissingPackage(f"smasp was imported from outside {SRC}")
    return mods, elapsed


@dataclass(frozen=True)
class Op:
    instance: Instance
    fmt: str
    mode: str

    @property
    def key(self) -> str:
        return f"{self.instance.name}/{self.mode}"


def operations(workload: Workload) -> list[Op]:
    """Every (instance, mode) pair, in an order shuffled once per
    workload name (not per seed), so that each kind of instance is
    spread over the whole pass rather than timed in one stretch."""
    ops = [Op(inst, fmt, mode) for inst in workload.instances for fmt, mode in inst.routes]
    random.Random(workload.name).shuffle(ops)
    return ops


def _probe_once() -> float:
    start = time.perf_counter()
    seen = set()
    hits = 0
    for i in range(4000):
        key = (i & 511, i % 7)
        if key in seen:
            hits += 1
        else:
            seen.add(key)
    return time.perf_counter() - start


class SpeedProbe:
    """Tracks how fast the machine runs Python right now.

    On a shared machine the speed of the same code drifts between
    regimes that last seconds (a fixed loop read 15 to 31 ms over one
    minute, process CPU time moving with it). A short fixed probe,
    unrelated to smasp, runs before every operation; each timing is then
    scaled by ``PROBE_REF_S`` over the median probe time around it, so
    that a figure means seconds on a machine where the probe takes
    ``PROBE_REF_S``. Raw wall times are kept alongside."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.durations.append(_probe_once())

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        # always include the last probe before and the first after
        lo = min(lo, max(bisect.bisect_right(self.times, start) - 1, 0))
        hi = max(hi, bisect.bisect_left(self.times, end) + 1)
        return PROBE_REF_S / statistics.median(self.durations[lo:hi])


@dataclass
class OpResult:
    key: str
    instance: str
    solve_s: float
    check_s: float
    verdict: Optional[str] = None
    steps: int = 0
    sha256: str = ""
    problem: Optional[str] = None
    # wall times scaled by the speed probe (equal to the raw ones when
    # no probe ran)
    solve_norm_s: float = 0.0
    check_norm_s: float = 0.0

    @property
    def signature(self) -> tuple:
        return (self.verdict, self.steps, self.sha256)


def setup_once(ops: list[Op]) -> float:
    """Seconds to import the package afresh and build the theory of
    every operation. The modules already in use stay valid: a fresh
    import makes new module objects and leaves the old ones alone."""
    mods, import_s = import_package()
    start = time.perf_counter()
    for op in ops:
        mods["cli"].build_theory(op.mode, op.fmt, op.instance.text)
    return import_s + time.perf_counter() - start


def _solve(mods: dict, op: Op, theory, self_check: bool):
    engine, oracles, cli, trace = mods["engine"], mods["oracles"], mods["cli"], mods["trace"]
    outcome = engine.run(theory, op.mode, self_check=True if self_check else None)
    if self_check and outcome.verdict == engine.VERDICT_UNSAT:
        # what `smasp solve --self-check` adds for an unsat verdict
        limit = cli.ORACLE_CHECK_ATOM_LIMIT
        if len(theory.atoms) <= limit and oracles.enumerate_smasp_models(theory, cap=limit):
            raise engine.SelfCheckError("unsat verdict, but the oracle found a model")
    return outcome, trace.dump_trace(trace.trace_from_outcome(outcome, op.mode, theory))


def _check(mods: dict, text: str, theory):
    trace = mods["trace"]
    loaded = trace.load_trace(text)
    return trace.validate_trace(loaded, theory, loaded.header.mode, strict_strategy=True)


class Checker:
    """Correctness of one operation's outputs. The reference is never
    the engine alone: known answers come from the generators or the
    enumeration oracles, models go through ``oracles.is_smasp_model``,
    and on the default seed the committed verdict, step count and trace
    digest must match too."""

    def __init__(self, mods: dict, expected: Optional[dict], enumerate_answers: bool = False):
        self.mods = mods
        self.expected = expected
        self.enumerate_answers = enumerate_answers
        self._oracle: dict[str, bool] = {}

    def oracle_answer(self, inst: Instance) -> bool:
        """Whether the program has an answer set, by the package's
        enumeration oracle (desk-scale programs only)."""
        if inst.name not in self._oracle:
            program = self.mods["parsing"].parse_lp(inst.text)
            self._oracle[inst.name] = bool(self.mods["oracles"].enumerate_answer_sets(program))
        return self._oracle[inst.name]

    def problem(self, op: Op, theory, outcome, valid) -> Optional[str]:
        engine = self.mods["engine"]
        if outcome.verdict == engine.VERDICT_LIMIT:
            return "step limit reached"
        if self.enumerate_answers and self.oracle_answer(op.instance) != op.instance.sat:
            return "the generator's answer disagrees with oracles.enumerate_answer_sets"
        if (outcome.verdict == engine.VERDICT_MODEL) != op.instance.sat:
            return f"verdict {outcome.verdict} contradicts the known answer"
        if outcome.model is not None and not self.mods["oracles"].is_smasp_model(theory, outcome.model):
            return "model fails oracles.is_smasp_model"
        if not valid.ok:
            return f"strict check failed at step {valid.step_index}: {valid.reason}"
        return None

    def against_expected(self, result: OpResult) -> Optional[str]:
        if self.expected is None:
            return None
        want = self.expected.get(result.key)
        if want is None:
            return "no committed expectation"
        if list(result.signature) != list(want):
            return f"got {list(result.signature)}, committed {want}"
        return None


def run_pass(mods: dict, workload: Workload, ops: list[Op], checker: Checker,
             reference: Optional[dict[str, OpResult]] = None, rec=None,
             between: Optional[Callable[[int], None]] = None,
             probe: Optional[SpeedProbe] = None) -> list[OpResult]:
    """Solve and check every operation once. The first pass of a run
    gets every check; later passes must repeat its outputs exactly.
    ``between(i)`` runs before operation ``i``, outside its timings."""
    context = mods["engine"]._context
    while not hasattr(context, "cache_clear"):  # unwrap a traced lookup
        context = context.__wrapped__
    clear_context = context.cache_clear
    build = mods["cli"].build_theory
    results = []
    spans = []
    for index, op in enumerate(ops):
        if between is not None:
            between(index)
        if probe is not None:
            probe.sample()
        result = OpResult(op.key, op.instance.name, 0.0, 0.0)
        theory, _, _ = build(op.mode, op.fmt, op.instance.text)
        clear_context()
        root = rec.begin_op(op.key + "/solve", "bench.solve") if rec is not None else None
        start = time.perf_counter()
        try:
            outcome, text = _solve(mods, op, theory, workload.self_check)
        except Exception as exc:  # any raise is a failed operation
            result.problem = f"solve raised {type(exc).__name__}: {exc}"
        result.solve_s = time.perf_counter() - start
        if rec is not None:
            rec.end_op(root)
        if result.problem is None:
            result.verdict, result.steps = outcome.verdict, len(outcome.steps)
            result.sha256 = hashlib.sha256(text.encode()).hexdigest()
            fresh, _, _ = build(op.mode, op.fmt, op.instance.text)
            clear_context()
            root = rec.begin_op(op.key + "/check", "bench.check") if rec is not None else None
            check_start = time.perf_counter()
            try:
                valid = _check(mods, text, fresh)
            except Exception as exc:
                result.problem = f"check raised {type(exc).__name__}: {exc}"
            result.check_s = time.perf_counter() - check_start
            if rec is not None:
                rec.end_op(root)
        if result.problem is None:
            if reference is None:
                result.problem = (checker.problem(op, theory, outcome, valid)
                                  or checker.against_expected(result))
            elif not valid.ok or result.signature != reference[op.key].signature:
                result.problem = "differs from the first pass of this run"
        results.append(result)
        spans.append((start, time.perf_counter()))
    if probe is not None:
        probe.sample()
    for result, (start, end) in zip(results, spans):
        scale = probe.scale(start, end) if probe is not None else 1.0
        result.solve_norm_s = result.solve_s * scale
        result.check_norm_s = result.check_s * scale
    if reference is None:
        _check_agreement(results)
    return results


def _check_agreement(results: list[OpResult]) -> None:
    """Every mode and route that solves an instance gives one verdict
    (the lp and pcid texts of one graph, ``<graph>.lp`` and
    ``<graph>.pcid``, count as one instance); an unsat verdict next to
    a model is counted against the unsat."""
    verdicts: dict[str, set] = {}
    for r in results:
        verdicts.setdefault(r.instance.split(".")[0], set()).add(r.verdict)
    for r in results:
        if (r.problem is None and r.verdict == "unsatisfiable"
                and "model" in verdicts[r.instance.split(".")[0]]):
            r.problem = "unsat verdict while another mode or route found a model"


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    ``beyond`` samples above it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


@dataclass(frozen=True)
class PassSummary:
    solve_s: float
    check_s: float
    solve_ms_p50: float
    solve_ms_tail: float
    tail_percentile: float
    samples: int
    raw_solve_s: float
    raw_check_s: float


def summarize(results: list[OpResult]) -> PassSummary:
    solves = [r.solve_norm_s for r in results]
    value, pct = tail(solves)
    return PassSummary(sum(solves), sum(r.check_norm_s for r in results),
                       1000 * statistics.median(solves), 1000 * value, pct, len(solves),
                       sum(r.solve_s for r in results), sum(r.check_s for r in results))
