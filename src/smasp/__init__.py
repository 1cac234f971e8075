"""Satisfiability modulo answer-set programming: a clause/program
solver built as an explicit transition system, with definitional
semantic oracles, translations between the formalisms, and trace
tooling."""

from .model import (
    __version__,
    Atom,
    Body,
    CapExceeded,
    Clause,
    Literal,
    PcidTheory,
    Program,
    Rule,
    SmaspTheory,
    Trail,
    TrailEntry,
)
from .engine import Outcome, Strategy, Transition, for_mode, run, strategy_priority
from .parsing import ParseError, parse_dimacs, parse_lp, parse_pcid, parse_smasp
from .trace import Trace, load_trace, validate_trace, write_trace


__all__ = [
    "Atom", "Body", "CapExceeded", "Clause", "Literal", "PcidTheory",
    "Program", "Rule", "SmaspTheory", "Trail", "TrailEntry",
    "Outcome", "Strategy", "Transition", "for_mode", "run", "strategy_priority",
    "ParseError", "parse_dimacs", "parse_lp", "parse_pcid", "parse_smasp",
    "Trace", "load_trace", "validate_trace", "write_trace",
    "__version__",
]
