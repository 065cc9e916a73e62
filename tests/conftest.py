import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance report lines after the run; stdout capture would
    otherwise hide the lines of passing checks."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance report")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def four_cores(monkeypatch):
    """The eigensolve splits its stacks as on a 4-core host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)


@pytest.fixture
def fail_off_the_main_thread(monkeypatch):
    """np.linalg.eigvals fails in every thread but the main one, that is in
    each row block of a split solve but the first."""
    real = np.linalg.eigvals

    def solve(a):
        if threading.current_thread() is not threading.main_thread():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", solve)


@pytest.fixture
def traced_peak():
    """peak(call): the most bytes that numpy and Python allocated during
    call() held at one time, as tracemalloc counts them."""
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
