"""A trace at scale, pinned byte for byte, and the dump's payload memo."""

import hashlib
import random

import gen
from helpers import lit
from smasp.engine import TraceStep, Transition, run
from smasp.model import ORIGIN_FRESH, Atom, Clause, Literal
from smasp.trace import Trace, TraceHeader, dump_trace, load_trace, trace_from_outcome
from test_trace import reference_dump

# clasp on random 3-SAT over 80 atoms: unsatisfiable after 50,256 steps
SCALE_SHA256 = "f9f8d54250304b3402360c9ce3815a9ad1163f37046d914f8f318b9c337cbb8f"


def test_an_80_atom_clasp_trace_keeps_its_bytes():
    theory = gen.random_3sat(random.Random(2), 80)
    out = run(theory, "clasp")
    assert (out.verdict, len(out.steps)) == ("unsatisfiable", 50_256)
    assert (out.stats["Backjump"], out.stats["Learn"]) == (1_185, 1_177)
    text = dump_trace(trace_from_outcome(out, "clasp", theory))
    assert hashlib.sha256(text.encode()).hexdigest() == SCALE_SHA256
    assert dump_trace(load_trace(text)) == text


def test_a_repeated_transition_dumps_as_its_reference_under_every_digest():
    """Each distinct transition is encoded once per dump; its record must
    still carry each step's own index and digest, escapes included."""
    fresh = Literal(Atom('f{"é}', ORIGIN_FRESH), False)
    backjump = Transition("Backjump", fresh, Clause((fresh, lit("a"))), None, 1)
    decide = Transition("Decide", lit("a"))
    digests = ('say "hi"', "naïve", " ", 'é"', "0123456789abcdef")
    steps = [TraceStep(i, backjump, digest) for i, digest in enumerate(digests, start=1)]
    steps += [TraceStep(6, decide, "é"), TraceStep(7, backjump, 'é"')]
    trace = Trace(TraceHeader("clasp", 'th"é'), tuple(steps))
    text = dump_trace(trace)
    assert text == reference_dump(trace)
    assert load_trace(text) == trace
