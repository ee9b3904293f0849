"""Shared test plumbing: the acceptance-criteria summary section, and a check
that no test leaves a child process behind.

Acceptance tests record a detail string per criterion; after the run a
terminal-summary section prints one PASS/FAIL line per criterion so the
verdicts are visible in the normal pytest output.
"""

import multiprocessing

import pytest

CRITERION_DETAILS: dict[int, str] = {}


def record_criterion(number: int, detail: str) -> None:
    CRITERION_DETAILS[number] = detail


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = [r for outcome in ("passed", "failed")
               for r in terminalreporter.stats.get(outcome, [])
               if r.when == "call" and "test_criterion_" in r.nodeid]
    if not reports:
        return
    terminalreporter.section("acceptance criteria")
    for r in sorted(reports, key=lambda r: r.nodeid):
        number = int(r.nodeid.split("test_criterion_")[1][:2])
        if r.passed:
            detail = CRITERION_DETAILS.get(number, "")
            terminalreporter.write_line(
                f"[criterion {number:02d}] PASS" + (f": {detail}" if detail else ""))
        else:
            terminalreporter.write_line(f"[criterion {number:02d}] FAIL: see {r.nodeid}")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process (such as an ablate worker) running."""
    yield
    assert not multiprocessing.active_children()
