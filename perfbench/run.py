"""The smasp benchmark: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload cnf-search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. With ``--trace 0`` it times set-up,
solves and strict trace checks and prints the end-to-end metrics; with
``--trace 1`` it times one untraced pass, then repeats set-up and the
pass with span-recording wrappers installed and prints the per-layer
metrics. Either way the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when a result was printed (``correct`` says whether every
operation passed its checks), 2 when the package or the committed
expectations cannot be found.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

EXPECTED = HERE / "expected"
SPANS = HERE / "out"

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "solve_ms_p50": "ms", "solve_ms_tail": "ms",
    "check_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracing.LAYER_NAMES:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update({
        "engine.propagate.clauses_scanned": "count",
        "engine.propagate.hit_ratio": "ratio",
        "engine.unfounded.hit_ratio": "ratio",
        "engine.conflict.learned_lits": "count",
        "engine.verify.recheck_s": "s",
        "engine.steps": "count",
        "oracles.enumerate.assignments": "count",
        "trace.bytes": "bytes",
        "translations.clauses_out": "count",
        "translations.atoms_out": "count",
        "trace_overhead": "ratio",
    })
    return units


def load_expected(workload: str, seed: int):
    """Committed (verdict, steps, trace sha256) per operation; only the
    default seed has them, other seeds rely on the independent checks."""
    if seed != DEFAULT_SEED:
        return None
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        raise harness.MissingPackage(f"missing committed expectations {path}")
    data = json.loads(path.read_text())
    if data.get("seed") != seed:
        raise harness.MissingPackage(f"{path} was recorded for seed {data.get('seed')}")
    return data["ops"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failures(results: list[harness.OpResult]) -> list[str]:
    return [f"{r.key}: {r.problem}" for r in results if r.problem]


def measure(workload, ops, expected, seconds: float) -> tuple[dict, list, str]:
    """Set up, then repeat whole passes while another one fits in
    ``seconds``; every timing is the median over passes (or set-ups),
    scaled by the speed probe."""
    start = time.perf_counter()
    mods, _ = harness.import_package()
    checker = harness.Checker(mods, expected, workload.self_check)
    probe = harness.SpeedProbe()
    # Set-ups are spread over the first pass, so that they sample the
    # machine's speed regimes rather than all landing in one.
    at = {len(ops) * k // harness.SETUP_REPEATS for k in range(harness.SETUP_REPEATS)}
    setups: list[tuple[float, float, float]] = []

    def setup(index: int) -> None:
        if index in at:
            probe.sample()
            began = time.perf_counter()
            seconds_taken = harness.setup_once(ops)
            setups.append((began, time.perf_counter(), seconds_taken))

    began = time.perf_counter()
    first = harness.run_pass(mods, workload, ops, checker, between=setup, probe=probe)
    reference = {r.key: r for r in first}
    passes, results = [harness.summarize(first)], list(first)
    last_pass = time.perf_counter() - began
    while time.perf_counter() - start + last_pass <= seconds:
        began = time.perf_counter()
        more = harness.run_pass(mods, workload, ops, checker, reference, probe=probe)
        last_pass = time.perf_counter() - began
        passes.append(harness.summarize(more))
        results += more
    raw_setup = statistics.median(s for _, _, s in setups)
    metrics = {
        "setup_s": statistics.median(s * probe.scale(b, e) for b, e, s in setups),
        "solve_s": statistics.median(p.solve_s for p in passes),
        "solve_ms_p50": statistics.median(p.solve_ms_p50 for p in passes),
        "solve_ms_tail": statistics.median(p.solve_ms_tail for p in passes),
        "check_s": statistics.median(p.check_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    note = (f"{len(passes)} pass(es) of {len(ops)} operations; "
            f"tail = p{passes[0].tail_percentile:.1f} of {passes[0].samples} solves per pass, "
            f"{harness.TAIL_BEYOND} beyond it; times are scaled to a machine where the "
            f"speed probe takes {1000 * harness.PROBE_REF_S:.2f} ms (median probe here "
            f"{1000 * statistics.median(probe.durations):.3f} ms); raw wall time: "
            f"setup {raw_setup:.4f} s, solve {statistics.median(p.raw_solve_s for p in passes):.3f} s, "
            f"check {statistics.median(p.raw_check_s for p in passes):.3f} s")
    return metrics, results, note


def measure_traced(workload, ops, expected, name: str, seed: int) -> tuple[dict, list, str]:
    mods, _ = harness.import_package()
    checker = harness.Checker(mods, expected, workload.self_check)
    first = harness.run_pass(mods, workload, ops, checker)
    untraced = harness.summarize(first)
    rec = tracing.Recorder()
    saved = tracing.install(rec, mods)
    try:
        for op in ops:
            root = rec.begin_op(op.key + "/setup", "bench.setup")
            mods["cli"].build_theory(op.mode, op.fmt, op.instance.text)
            rec.end_op(root)
        traced = harness.run_pass(mods, workload, ops, checker,
                                  {r.key: r for r in first}, rec)
    finally:
        tracing.restore(saved)
    if not tracing.is_restored(saved):
        raise RuntimeError("traced attributes were not restored")
    metrics = tracing.layer_report(rec)
    metrics["trace_overhead"] = harness.summarize(traced).solve_s / untraced.solve_s - 1
    layers, total = tracing.accounting(rec, "bench.solve")
    SPANS.mkdir(exist_ok=True)
    spans_path = SPANS / f"spans-{name}.jsonl"
    tracing.write_spans(rec, str(spans_path), {"workload": name, "seed": seed})
    note = (f"{len(rec.kinds)} spans written to {spans_path.relative_to(HERE.parent)}; "
            f"layer self times cover {layers:.3f} s of {total:.3f} s traced solve time "
            f"({100 * layers / total:.1f}%), the rest is benchmark glue; "
            + tracing.NO_WAIT_NOTE)
    return metrics, first + traced, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    ops = harness.operations(workload)
    try:
        expected = load_expected(args.workload, args.seed)
        if args.trace:
            metrics, results, note = measure_traced(workload, ops, expected, args.workload, args.seed)
            units = per_layer_units()
        else:
            metrics, results, note = measure(workload, ops, expected, args.seconds)
            units = END_TO_END
    except harness.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = _failures(results)
    held_out = "" if expected is not None else " (held-out seed: digests not checked)"
    print(f"workload {args.workload} seed {args.seed}{held_out}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':36s} {len(failures) / len(results):>14.6g} "
          f"({len(failures)} of {len(results)} operations)")
    print(f"  {note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
