import re

import pytest
from hypothesis import settings

from netfold import _kernels
from netfold.catalog import builtin
from netfold.shellgraph import build_shell_graph

settings.register_profile("default", deadline=None)
settings.load_profile("default")

_CRITERION = re.compile(r"::test_criterion_0?(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One CRITERION line per acceptance test, after the usual output."""
    results = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL"),
                           ("skipped", "SKIPPED")):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                name = report.nodeid.split("::")[-1]
                if label == "FAIL" or number not in results:
                    results[number] = (label, name)
    if results:
        terminalreporter.write_line("")
        for number in sorted(results):
            label, name = results[number]
            terminalreporter.write_line(f"CRITERION {number} {label}: {name}")


@pytest.fixture
def kernel_backend(monkeypatch):
    """Backend name that runs the search kernel of `netfold._kernels`.

    With numba the kernel runs compiled.  Without it `njit` leaves the kernel
    a plain function and the backend would fall back to the recursive
    reference, so the fallback is lifted and the same kernel source runs in
    the interpreter.  Either way a parity test compares the iterative kernel
    with the recursive reference, never the reference with itself.
    """
    if not _kernels.HAS_NUMBA:
        monkeypatch.setattr(_kernels, "HAS_NUMBA", True)
    return "numba"


@pytest.fixture(scope="session")
def shell_graph():
    """Shell graph of a catalog solid, cached per session."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_shell_graph(builtin(name))
        return cache[name]

    return get
