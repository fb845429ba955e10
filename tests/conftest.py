"""Print one pass/fail line per acceptance criterion after the run, and
the ``deny_below`` fixture the output-writing tests share."""

import errno
import os
from pathlib import Path

import pytest

ACCEPTANCE_CRITERIA = [
    ("test_criterion_01_brute_force_equivalence",
     "01 brute force: cell rates bit-equal to naive (A,B,X) enumeration on 25 corpora, < 60 s"),
    ("test_criterion_02_analytic_oracles",
     "02 analytic oracles: one-hot corpus = 0.000000, constant corpus = 0.500000, both conditions"),
    ("test_criterion_03_scale_invariance",
     "03 scale invariance: features x 2.5 leave report.json byte-identical"),
    ("test_criterion_04_parallel_determinism",
     "04 parallel determinism: --jobs 1 and --jobs 8 reports byte-identical on both sides of the pool threshold"),
    ("test_criterion_05_dtw_oracle",
     "05 DTW oracle: DP result matches exhaustive path enumeration within 1e-12"),
    ("test_criterion_06_monotone_degradation",
     "06 monotone degradation: error non-decreasing over noise sweep, tol 0.02, >= 1000 comparisons/point"),
    ("test_criterion_07_aggregation_and_golden_tables",
     "07 aggregation: rates re-summed from pairwise.csv within 1e-9; builtin AF tables match golden cells"),
    ("test_criterion_08_confusion_metrics",
     "08 confusion: identity p_co = 1; uniform = 1/M +- 1e-12; 40/35/25 row exact; rows sum to 1 +- 1e-9"),
    ("test_criterion_09_correlation",
     "09 correlation: exact +-1.0 on (anti)linear input; constant input raises undefined-variance error"),
    ("test_criterion_10_apc",
     "10 APC: 20 gradient checks < 1e-4; causality x 10; AR(1) loss cut >= 90%; bit-identical ckpts; < 120 s"),
    ("test_criterion_11_end_to_end_pipeline",
     "11 end-to-end: synth > train > extract > eval all exit 0; extracted ABX <= noisy raw ABX + 0.02"),
    ("test_criterion_12_format_round_trips",
     "12 round trips: fbin and checkpoint bytes reproduce; malformed inputs rejected with exit code 3"),
]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            name = rep.nodeid.split("::")[-1].split("[")[0]
            ok = key == "passed" and outcomes.get(name, True)
            outcomes[name] = ok
    rows = [(text, outcomes[name]) for name, text in ACCEPTANCE_CRITERIA
            if name in outcomes]
    if not rows:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for text, ok in rows:
        terminalreporter.write_line(f"{'pass' if ok else 'FAIL'}  {text}")


@pytest.fixture
def deny_below(monkeypatch):
    """``deny_below(op, root)`` makes ``op`` ("iterdir", "mkdir",
    "write_bytes" on ``Path``, or "replace" on ``os``, by its target) raise
    a permission error for ``root`` and every path below it; other paths
    pass through, and ``monkeypatch.undo()`` lifts it."""
    def deny(op, root):
        owner = os if op == "replace" else Path
        real = getattr(owner, op)

        def denied(path, *args, **kwargs):
            target = Path(args[0] if op == "replace" else path)
            if target == root or root in target.parents:
                raise PermissionError(errno.EACCES, "Permission denied", str(target))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(owner, op, denied)
    return deny
