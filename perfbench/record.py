"""Record the committed expectations of the default seed.

    python3 perfbench/record.py [workload ...]

Runs one pass per workload with every independent check (known
answers, ``oracles.is_smasp_model``, strict trace checks, agreement
across modes) and writes ``perfbench/expected/<workload>.json`` only
when all of them pass: verdict, step count and the sha256 of the
``dump_trace`` text for every (instance, mode) pair.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def record(name: str) -> int:
    workload = WORKLOADS[name](DEFAULT_SEED)
    ops = harness.operations(workload)
    mods, _ = harness.import_package()
    checker = harness.Checker(mods, None, workload.self_check)
    results = harness.run_pass(mods, workload, ops, checker)
    bad = [f"{r.key}: {r.problem}" for r in results if r.problem]
    if bad:
        print(f"{name}: not recorded, {len(bad)} failed checks", file=sys.stderr)
        for line in bad:
            print("  " + line, file=sys.stderr)
        return 1
    path = HERE / "expected" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    data = {"workload": name, "seed": DEFAULT_SEED,
            "ops": {r.key: list(r.signature) for r in results}}
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(f"{name}: {len(results)} operations recorded in {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(WORKLOADS)
    sys.exit(max(record(n) for n in names))
