"""Byte identity of traces and theory digests on fixed inputs.

The canonical tie-breaking is the specification, so a faster engine
must write the same trace bytes. Each case builds its theory the way
``smasp solve`` does (``cli.build_theory``), runs one mode, and compares
``theory_digest`` and the sha256 of ``dump_trace`` with pinned values.
The inputs are the README examples, seeded ``tests/gen.py`` programs
and clause/program pairs, and seeded random 3-SAT formulas.
"""

import hashlib
import random

import pytest

import gen
from gen import format_pcid
from smasp import engine
from smasp.cli import build_theory
from smasp.model import PcidTheory
from smasp.parsing import format_program
from smasp.trace import dump_trace, theory_digest, trace_from_outcome

PROGRAM_MODES = ("smodels", "cmodels", "clasp", "minisatid")

README_LP = "a :- b, not c.\nb.\n"
README_PCID = "#theory\nb | -c\n#program\na :- b, not c.\nb.\n"
README_CNF = "p cnf 3 2\n1 2 0\n-1 3 0\n"


def _three_sat(seed, n=16, m=68):
    rng = random.Random(seed)
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        picked = rng.sample(range(1, n + 1), 3)
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in picked) + " 0")
    return "\n".join(lines) + "\n"


def _inputs():
    """``(name, format, text, modes)`` of every pinned input."""
    yield "readme", "lp", README_LP, PROGRAM_MODES
    yield "readme", "pcid", README_PCID, PROGRAM_MODES
    yield "readme", "cnf", README_CNF, engine.MODES
    rng = random.Random(6101)
    for i in range(10):
        program = gen.random_program(rng)
        yield f"gen{i}", "lp", format_program(program) + "\n", PROGRAM_MODES
        pcid = PcidTheory(gen.random_clauses(rng, gen.POOL[:4]),
                          gen.random_weakly_normal_program(rng))
        yield f"gen{i}", "pcid", format_pcid(pcid), PROGRAM_MODES
    for seed in range(1, 5):
        yield f"3sat{seed}", "cnf", _three_sat(seed), engine.MODES


CASES = [(f"{name}-{fmt}-{mode}", fmt, text, mode)
         for name, fmt, text, modes in _inputs() for mode in modes]


def _fingerprint(fmt, text, mode):
    theory, _, _ = build_theory(mode, fmt, text)
    outcome = engine.run(theory, mode)
    trace = dump_trace(trace_from_outcome(outcome, mode, theory))
    return theory_digest(theory), hashlib.sha256(trace.encode()).hexdigest()[:16]


def compute_all():
    """Every case's fingerprint, for re-pinning after a deliberate
    change of the canonical order."""
    return {key: _fingerprint(fmt, text, mode) for key, fmt, text, mode in CASES}


# case -> (theory_digest, first 16 hex digits of the trace's sha256)
PINNED = {
    "readme-lp-smodels": ("1d4cdd5e01334bc1", "95dd33936e450542"),
    "readme-lp-cmodels": ("1badca363b29ee26", "5a9007c34bfa41a9"),
    "readme-lp-clasp": ("1badca363b29ee26", "b88f2d42d37a9fb8"),
    "readme-lp-minisatid": ("1badca363b29ee26", "636dc22c57c30711"),
    "readme-pcid-smodels": ("86e045fcb9cd793f", "d74462df2906472b"),
    "readme-pcid-cmodels": ("f898cfb963995edc", "b3021dde8ae2c76e"),
    "readme-pcid-clasp": ("f898cfb963995edc", "136a157531ff857a"),
    "readme-pcid-minisatid": ("6991a359150a019a", "db558e0270e7cb9d"),
    "readme-cnf-clasp": ("c53b955912279588", "2fc450e22ed27607"),
    "readme-cnf-cmodels": ("c53b955912279588", "b8c8a9b23c0ff476"),
    "readme-cnf-dpll": ("c53b955912279588", "6b9087e70d693bd9"),
    "readme-cnf-minisatid": ("c53b955912279588", "e4e7c015026716d7"),
    "readme-cnf-smodels": ("c53b955912279588", "391cd4686935bb82"),
    "gen0-lp-smodels": ("3c390371ac0232b8", "f1333207eb511e65"),
    "gen0-lp-cmodels": ("c97a4f1157a5a69b", "f0b4a7f84bdda455"),
    "gen0-lp-clasp": ("c97a4f1157a5a69b", "b6589bd9a03d6e6d"),
    "gen0-lp-minisatid": ("c97a4f1157a5a69b", "1389741c880579ee"),
    "gen0-pcid-smodels": ("5b29544d3c91abad", "eb9d8405d3434d2d"),
    "gen0-pcid-cmodels": ("e6873eab04ef76b4", "1ff73491c1530d45"),
    "gen0-pcid-clasp": ("e6873eab04ef76b4", "a5f0474b798391bf"),
    "gen0-pcid-minisatid": ("8bd5594c28602aa9", "6a7a48e473ed3e2f"),
    "gen1-lp-smodels": ("bab5a7a8a9f2f507", "a255c3a2dcb1ef0c"),
    "gen1-lp-cmodels": ("d73123ea0ed69443", "5e2f5a4aa81ae024"),
    "gen1-lp-clasp": ("d73123ea0ed69443", "587ff83f453b7345"),
    "gen1-lp-minisatid": ("d73123ea0ed69443", "9240509e6e1fbd72"),
    "gen1-pcid-smodels": ("022009bc9eefe6da", "3692eb909e73acfe"),
    "gen1-pcid-cmodels": ("e5a1ecfe52886af9", "389cdc6d355d2d21"),
    "gen1-pcid-clasp": ("e5a1ecfe52886af9", "0582166817382fa1"),
    "gen1-pcid-minisatid": ("0df951278ceb991e", "d406357421011b38"),
    "gen2-lp-smodels": ("9e9e511f5b6d8432", "7896428497c22a0b"),
    "gen2-lp-cmodels": ("3df57fd72c44ea41", "2fdbe1233a0262da"),
    "gen2-lp-clasp": ("3df57fd72c44ea41", "6f41d9d5a6c6d7cb"),
    "gen2-lp-minisatid": ("3df57fd72c44ea41", "ddaa4768cb2f8c02"),
    "gen2-pcid-smodels": ("d7fb9b95f122d64e", "5cee932c3ff192a6"),
    "gen2-pcid-cmodels": ("b8e802b556946252", "f76da04666fb1128"),
    "gen2-pcid-clasp": ("b8e802b556946252", "f67f3c6752a6e4e8"),
    "gen2-pcid-minisatid": ("c9d797a156597223", "a8b5fdbca78eb1ff"),
    "gen3-lp-smodels": ("02c2d262a55892b3", "cf0b673b6475bae9"),
    "gen3-lp-cmodels": ("215997c8f69f6fe3", "98b2c9d5bd15404a"),
    "gen3-lp-clasp": ("215997c8f69f6fe3", "bb7e7dbabf5a8950"),
    "gen3-lp-minisatid": ("215997c8f69f6fe3", "a53fc3801229a1da"),
    "gen3-pcid-smodels": ("f7275514dec7b648", "ab4845dcacea62db"),
    "gen3-pcid-cmodels": ("1f35772563177d22", "9d0ad15fb7faabd4"),
    "gen3-pcid-clasp": ("1f35772563177d22", "3cb40cb1a0521f78"),
    "gen3-pcid-minisatid": ("d3b3f2530ef01467", "c29063d7e843bd6d"),
    "gen4-lp-smodels": ("56de854ae7163c40", "b536a896d9b7726f"),
    "gen4-lp-cmodels": ("e17463a8f3bc72bb", "64076a5f03fefc19"),
    "gen4-lp-clasp": ("e17463a8f3bc72bb", "9dad67c72ffe0b08"),
    "gen4-lp-minisatid": ("e17463a8f3bc72bb", "7f03f753aa6fa8d9"),
    "gen4-pcid-smodels": ("0cab3278f0c0bcfb", "360d341292122887"),
    "gen4-pcid-cmodels": ("18f16abb2e6c2b47", "418304620f2058a4"),
    "gen4-pcid-clasp": ("18f16abb2e6c2b47", "1b5bba5e84a8ac4f"),
    "gen4-pcid-minisatid": ("c612f68b80d0b9d0", "b73c174aab57af09"),
    "gen5-lp-smodels": ("54ae4925df88bf9b", "d5ddb5a78605f653"),
    "gen5-lp-cmodels": ("16d0eaaba593fc51", "61d52c9a05219342"),
    "gen5-lp-clasp": ("16d0eaaba593fc51", "940688829b3cc758"),
    "gen5-lp-minisatid": ("16d0eaaba593fc51", "18f2d5b328a6564e"),
    "gen5-pcid-smodels": ("366ce37ec52ca328", "af677aebc3022ff4"),
    "gen5-pcid-cmodels": ("04a049d482ff5b06", "df4bac2edf1b75ce"),
    "gen5-pcid-clasp": ("04a049d482ff5b06", "e76296477df96372"),
    "gen5-pcid-minisatid": ("04a049d482ff5b06", "c9504024287026a8"),
    "gen6-lp-smodels": ("9498a2d9db4a10cf", "9b40e70863e4648a"),
    "gen6-lp-cmodels": ("9aa2401008c946cd", "70fbed7d4649bd64"),
    "gen6-lp-clasp": ("9aa2401008c946cd", "345197e6c74fbbbc"),
    "gen6-lp-minisatid": ("9aa2401008c946cd", "0ce254a222aea87f"),
    "gen6-pcid-smodels": ("203aa070e9847be7", "17c3ad2805b515bf"),
    "gen6-pcid-cmodels": ("203aa070e9847be7", "ee197cc2d930d25b"),
    "gen6-pcid-clasp": ("203aa070e9847be7", "f3b2dbc9054757a5"),
    "gen6-pcid-minisatid": ("234179905e87cd0e", "20c2ad7498c2f2f8"),
    "gen7-lp-smodels": ("17e96872a69a1572", "072d375bf5f75b01"),
    "gen7-lp-cmodels": ("fcd5bc508c006335", "449e3ac0d7f14b64"),
    "gen7-lp-clasp": ("fcd5bc508c006335", "8d5a63741ffd2258"),
    "gen7-lp-minisatid": ("fcd5bc508c006335", "84131d3d65318ee0"),
    "gen7-pcid-smodels": ("852ff63adcfcf850", "1391c0397fa3dff1"),
    "gen7-pcid-cmodels": ("1f7cec9c8ae68d75", "c9a0d27dab833462"),
    "gen7-pcid-clasp": ("1f7cec9c8ae68d75", "91d1ab9a09688783"),
    "gen7-pcid-minisatid": ("4804394345bd0733", "747f2ceb0e4ae83f"),
    "gen8-lp-smodels": ("078901252fad7f8e", "4defbf2faec68e03"),
    "gen8-lp-cmodels": ("436223dd36c14f22", "e88750518e12b3c1"),
    "gen8-lp-clasp": ("436223dd36c14f22", "886e982c7736c098"),
    "gen8-lp-minisatid": ("436223dd36c14f22", "fd65895863be4dd3"),
    "gen8-pcid-smodels": ("98ed653c783e89e7", "c6929322379427b4"),
    "gen8-pcid-cmodels": ("2d71b9cb4fb0cdfe", "ebb7ef6f5cb32447"),
    "gen8-pcid-clasp": ("2d71b9cb4fb0cdfe", "d0bda5a836ea91ae"),
    "gen8-pcid-minisatid": ("74abcf957da915e1", "f10e701c9fbf314f"),
    "gen9-lp-smodels": ("5323a6d67b0b4564", "644adf77a374117b"),
    "gen9-lp-cmodels": ("b5dc4c7c284502ba", "6a223d4428d63bdd"),
    "gen9-lp-clasp": ("b5dc4c7c284502ba", "5c2557c52b8653bc"),
    "gen9-lp-minisatid": ("b5dc4c7c284502ba", "65f5518909a7a112"),
    "gen9-pcid-smodels": ("1e467946b08b4385", "b9ed171216aa15e8"),
    "gen9-pcid-cmodels": ("7dfefcf866888bc7", "78c0cd82a09c72c9"),
    "gen9-pcid-clasp": ("7dfefcf866888bc7", "396e7f3cd03fe5f1"),
    "gen9-pcid-minisatid": ("9dbf82d0b33d1288", "7b49735190649de3"),
    "3sat1-cnf-clasp": ("eeabac1c0a494e74", "e48310e4797696bc"),
    "3sat1-cnf-cmodels": ("eeabac1c0a494e74", "be907adf6b7d18d5"),
    "3sat1-cnf-dpll": ("eeabac1c0a494e74", "33fa6f600be3c096"),
    "3sat1-cnf-minisatid": ("eeabac1c0a494e74", "7209130619429965"),
    "3sat1-cnf-smodels": ("eeabac1c0a494e74", "4b80a6daf76ac059"),
    "3sat2-cnf-clasp": ("9e0a5e2882583b77", "1bdd595acd6ef45e"),
    "3sat2-cnf-cmodels": ("9e0a5e2882583b77", "6c8043fdb4e093e0"),
    "3sat2-cnf-dpll": ("9e0a5e2882583b77", "bf5b3bebc769b360"),
    "3sat2-cnf-minisatid": ("9e0a5e2882583b77", "645e8af1848c1f7e"),
    "3sat2-cnf-smodels": ("9e0a5e2882583b77", "00547e4cff463f26"),
    "3sat3-cnf-clasp": ("19621798cfeee2eb", "a49cae7898530e23"),
    "3sat3-cnf-cmodels": ("19621798cfeee2eb", "1f22985db7b7f7da"),
    "3sat3-cnf-dpll": ("19621798cfeee2eb", "4cba59ef18ddbbb8"),
    "3sat3-cnf-minisatid": ("19621798cfeee2eb", "06b24ca9054863f4"),
    "3sat3-cnf-smodels": ("19621798cfeee2eb", "321b1e8cfd4f4724"),
    "3sat4-cnf-clasp": ("bae42fa5262e8045", "1f2f32843f0dee9e"),
    "3sat4-cnf-cmodels": ("bae42fa5262e8045", "382a810a25795b30"),
    "3sat4-cnf-dpll": ("bae42fa5262e8045", "7841e101c5eac42e"),
    "3sat4-cnf-minisatid": ("bae42fa5262e8045", "6408d75decbc90ce"),
    "3sat4-cnf-smodels": ("bae42fa5262e8045", "34518775f7b9ce74"),
}


def test_every_case_is_pinned():
    assert sorted(key for key, _, _, _ in CASES) == sorted(PINNED)


@pytest.mark.parametrize("key, fmt, text, mode", CASES, ids=[c[0] for c in CASES])
def test_trace_and_theory_digest_are_unchanged(key, fmt, text, mode):
    assert _fingerprint(fmt, text, mode) == PINNED[key]
