"""Outside-in span tracing of one benchmark pass.

The package is not edited: :func:`install` swaps the module attributes
it calls through for span-recording wrappers, and :func:`restore` puts
the originals back. Spans stay in memory until the run ends.

Rules:

* one span per call of a wrapped function, tagged with its layer;
* a call into a layer that already has an open span folds into that
  span (one enumeration is one span, not thousands of model checks);
* ``oracles.self_check`` records only the model check ``run`` makes,
  calls from elsewhere fold into the enclosing span;
* every span carries its parent and the operation it belongs to;
  calls made outside an operation are not recorded at all.

The program has no queues and no threads, so a span is all busy time:
there is no time waited to report.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

NO_WAIT_NOTE = ("single-threaded and queue-free: every span is busy time, "
                "so no layer has a time-waited figure")

PROPAGATE = "engine.propagate"
UNFOUNDED = "engine.unfounded"
DECIDE = "engine.decide"
VERIFY = "engine.verify"
RUN = "engine.run"
CONTEXT = "engine.context"
SELF_CHECK = "oracles.self_check"

# (layer, module name, attribute names) -- the module attributes the
# package calls through. ``model.Trail`` is a class; its methods are
# swapped on the class.
LAYERS = (
    ("parsing", "cli", ("parse_dimacs", "parse_lp", "parse_pcid")),
    ("translations", "translations",
     ("completion", "ed_completion", "open_program", "pi_translation", "clausal")),
    (CONTEXT, "engine", ("_context",)),
    (PROPAGATE, "engine", ("applicable_unit_propagate",)),
    (UNFOUNDED, "engine", ("applicable_unfounded",)),
    ("oracles.gus", "oracles", ("greatest_unfounded_set",)),
    (DECIDE, "engine", ("applicable_decide",)),
    ("engine.conflict", "engine", ("analyze_conflict",)),
    (VERIFY, "engine", ("step",)),
    ("engine.digest", "engine", ("digest_trail",)),
    ("model.trail", "model.Trail", ("append", "truncate")),
    (SELF_CHECK, "oracles", ("is_smasp_model",)),
    ("oracles.enumerate", "oracles", ("enumerate_smasp_models",)),
    ("trace.dump", "trace", ("dump_trace",)),
    ("trace.load", "trace", ("load_trace",)),
    ("trace.validate", "trace", ("validate_trace",)),
    (RUN, "engine", ("run",)),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)


class Recorder:
    """Spans in parallel lists; span ``i`` is ``kinds[i]``,
    ``parents[i]`` (-1 for a root), ``ops[i]``, ``starts[i]``,
    ``ends[i]``."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self.op_names: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.last_context = None
        self._sources: dict[int, tuple] = {}

    def open(self, kind: str) -> int:
        sid = len(self.kinds)
        self.kinds.append(kind)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op if self.op is not None else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.depth[kind] += 1
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()
        self.depth[self.kinds[sid]] -= 1

    def begin_op(self, name: str, kind: str) -> int:
        """Open the root span of one operation; every span until
        :meth:`end_op` shares its id."""
        self.op = len(self.op_names)
        self.op_names.append(name)
        self._sources.clear()
        return self.open(kind)

    def end_op(self, sid: int) -> None:
        self.close(sid)
        self.op = None

    def scanned(self, context, learned: tuple) -> int:
        """Clauses one propagation call offers: the theory sources plus
        the learned clauses that are not already among them. Learned
        stores only grow within a run, so the count is kept per context
        and extended incrementally."""
        _, seen, done, extra = self._sources.get(id(context), (None, None, 0, 0))
        if seen is None or len(learned) < done:
            seen, done, extra = frozenset(context.up_sources), 0, 0
        extra += sum(1 for c in learned[done:] if c not in seen)
        # holding the context keeps its id from being reused
        self._sources[id(context)] = (context, seen, len(learned), extra)
        return len(context.up_sources) + extra


def _wrap(rec: Recorder, kind: str, fn: Callable,
          after: Optional[Callable] = None, only_under: Optional[str] = None) -> Callable:
    def traced(*args, **kwargs):
        if rec.op is None or rec.depth[kind] or (
                only_under is not None and rec.kinds[rec.stack[-1]] != only_under):
            return fn(*args, **kwargs)
        sid = rec.open(kind)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if after is not None:
            after(rec, result, args, kwargs)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", kind)
    return traced


# -- counters taken at the layer boundaries (outside the timed span) --

def _after_context(rec, result, args, kwargs):
    rec.last_context = result


def _after_propagate(rec, result, args, kwargs):
    state = args[0]
    rec.counts[PROPAGATE + ".hits"] += bool(result)
    if state.failed:
        return
    learned = args[2] if len(args) > 2 else kwargs.get("include_learned", False)
    rec.counts[PROPAGATE + ".clauses_scanned"] += rec.scanned(
        rec.last_context, state.learned if learned else ())


def _after_unfounded(rec, result, args, kwargs):
    rec.counts[UNFOUNDED + ".hits"] += bool(result)


def _after_conflict(rec, result, args, kwargs):
    rec.counts["engine.conflict.learned_lits"] += len(result[0])


def _after_enumerate(rec, result, args, kwargs):
    rec.counts["oracles.enumerate.assignments"] += 2 ** len(args[0].atoms)


def _after_dump(rec, result, args, kwargs):
    rec.counts["trace.bytes"] += len(result.encode())


def _after_translation(rec, result, args, kwargs):
    if isinstance(result, tuple):  # clause outputs; programs are not counted
        rec.counts["translations.clauses_out"] += len(result)
        rec.counts["translations.atoms_out"] += len({l.atom for c in result for l in c})


def _after_run(rec, result, args, kwargs):
    rec.counts["engine.steps"] += len(result.steps)


_AFTER = {
    CONTEXT: _after_context, PROPAGATE: _after_propagate, UNFOUNDED: _after_unfounded,
    "engine.conflict": _after_conflict, "oracles.enumerate": _after_enumerate,
    "trace.dump": _after_dump, "translations": _after_translation, RUN: _after_run,
}


def _owner(mods: dict, path: str):
    name, _, attr = path.partition(".")
    owner = mods[name]
    return getattr(owner, attr) if attr else owner


def _attribute(owner, name: str):
    # a class's own entry, so that a method is swapped as the plain function
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def install(rec: Recorder, mods: dict) -> list[tuple[object, str, object]]:
    """Swap every traced attribute for its wrapper. ``mods`` maps the
    short module names of :data:`LAYERS` to the imported modules.
    Returns what :func:`restore` needs."""
    saved = []
    for kind, path, names in LAYERS:
        owner = _owner(mods, path)
        for name in names:
            original = _attribute(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, _wrap(rec, kind, original, _AFTER.get(kind),
                                       RUN if kind == SELF_CHECK else None))
    return saved


def restore(saved: Iterable[tuple[object, str, object]]) -> None:
    for owner, name, original in saved:
        setattr(owner, name, original)


def is_restored(saved: Iterable[tuple[object, str, object]]) -> bool:
    return all(_attribute(owner, name) is original for owner, name, original in saved)


# -- analysis ---------------------------------------------------------------

def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(parents: list[int], starts: list[float], ends: list[float]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[sid], ends[sid]))
    return [ends[i] - starts[i] - covered(children.get(i, ()), starts[i], ends[i])
            for i in range(len(parents))]


def layer_report(rec: Recorder) -> dict[str, float]:
    """Per-layer totals: ``<layer>.calls`` and ``<layer>.self_s`` for
    every layer, the counters, and the derived ratios."""
    selfs = self_times(rec.parents, rec.starts, rec.ends)
    out: dict[str, float] = {}
    for layer in LAYER_NAMES:
        out[layer + ".calls"] = 0
        out[layer + ".self_s"] = 0.0
    recheck = 0.0
    for sid, kind in enumerate(rec.kinds):
        if kind + ".calls" in out:
            out[kind + ".calls"] += 1
            out[kind + ".self_s"] += selfs[sid]
        parent = rec.parents[sid]
        if kind in (PROPAGATE, UNFOUNDED, DECIDE) and parent >= 0 and rec.kinds[parent] == VERIFY:
            recheck += rec.ends[sid] - rec.starts[sid]
    out[VERIFY + ".recheck_s"] = recheck
    for name in ("engine.propagate.clauses_scanned", "engine.conflict.learned_lits",
                 "oracles.enumerate.assignments", "trace.bytes",
                 "translations.clauses_out", "translations.atoms_out", "engine.steps"):
        out[name] = rec.counts.get(name, 0)
    for layer in (PROPAGATE, UNFOUNDED):
        calls = out[layer + ".calls"]
        out[layer + ".hit_ratio"] = rec.counts.get(layer + ".hits", 0) / calls if calls else 0.0
    return out


def accounting(rec: Recorder, root_kind: str) -> tuple[float, float]:
    """(Σ layer self time, Σ root duration) over the operations whose
    root span has ``root_kind``; the gap is the benchmark's own glue
    between calls."""
    selfs = self_times(rec.parents, rec.starts, rec.ends)
    roots = {sid for sid, k in enumerate(rec.kinds) if k == root_kind}
    root_ops = {rec.ops[sid] for sid in roots}
    layers = sum(selfs[sid] for sid, k in enumerate(rec.kinds)
                 if sid not in roots and rec.ops[sid] in root_ops)
    total = sum(rec.ends[sid] - rec.starts[sid] for sid in roots)
    return layers, total


def write_spans(rec: Recorder, path: str, header: dict) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps({**header, "note": NO_WAIT_NOTE, "ops": rec.op_names}) + "\n")
        for sid, kind in enumerate(rec.kinds):
            handle.write(json.dumps([sid, kind, rec.parents[sid], rec.ops[sid],
                                     rec.starts[sid], rec.ends[sid]]) + "\n")
