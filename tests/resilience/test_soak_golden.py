"""Golden soak outputs: the five soak CLIs, byte for byte.

Each soak's ``--json`` stdout and exit code at seeds 101/202/303, and
its human-readable stdout at seed 101, are stored under
``tests/resilience/soak_golden/``; every test re-runs the command
in-process and compares the bytes.  ``integrity-soak`` and
``predict`` run at the reduced sizes of ``tests/test_cli.py``.  Any
change to the shared soak machinery (outcome ledger, replay loop,
verdicts) must leave these files unchanged.

    PYTHONPATH=src python tests/resilience/test_soak_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "soak_golden"
SEEDS = (101, 202, 303)

#: soak name -> argv after ``--seed N`` (``--json`` is appended).
SOAKS: Dict[str, List[str]] = {
    "soak": ["usaas", "soak"],
    "cluster-soak": ["usaas", "cluster-soak"],
    "stream-soak": ["usaas", "stream-soak"],
    "integrity-soak": ["usaas", "integrity-soak", "--n-calls", "120",
                       "--corpus-weeks", "2"],
    "predict": ["usaas", "predict", "--n-calls", "80",
                "--mos-sample-rate", "0.5", "--soak-queries", "60"],
}

#: (soak, seed, output format); text output is pinned at one seed.
CASES = [(name, seed, "json") for name in SOAKS for seed in SEEDS] + [
    (name, SEEDS[0], "txt") for name in SOAKS
]


def case_id(name: str, seed: int, fmt: str) -> str:
    return f"{name}-{seed}.{fmt}"


def run_cli(name: str, seed: int, fmt: str) -> Tuple[int, str]:
    """(exit code, stdout) of one soak invocation, run in-process."""
    from repro.cli import main

    argv = SOAKS[name] + ["--seed", str(seed)]
    if fmt == "json":
        argv.append("--json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def expected_codes() -> Dict[str, int]:
    return json.loads((GOLDEN_DIR / "exit_codes.json").read_text())


@pytest.mark.parametrize("name,seed,fmt", CASES)
def test_soak_reproduces_golden_bytes(name, seed, fmt):
    key = case_id(name, seed, fmt)
    code, stdout = run_cli(name, seed, fmt)
    assert code == expected_codes()[key]
    assert stdout == (GOLDEN_DIR / key).read_text(encoding="utf-8")


def write() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, seed, fmt in CASES:
        key = case_id(name, seed, fmt)
        code, stdout = run_cli(name, seed, fmt)
        (GOLDEN_DIR / key).write_text(stdout, encoding="utf-8")
        codes[key] = code
    (GOLDEN_DIR / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_soak_golden.py --write")
    write()
