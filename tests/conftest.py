"""Shared test plumbing.

The acceptance module records one verdict line per criterion; echoing
them in the terminal summary keeps the pass/fail ledger visible even
with output capture on.
"""

import pytest

ACCEPTANCE_LINES = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def capped_address_space():
    """Cap this process's address space 1 GiB above its current size for
    one test, where the platform reports that size, so code that should
    refuse a huge grid and instead allocates it fails with MemoryError
    rather than taking the machine's memory."""
    try:
        import resource
        with open("/proc/self/status") as fh:
            size = next(int(line.split()[1]) * 1024 for line in fh
                        if line.startswith("VmSize:"))
    except (ImportError, OSError, StopIteration):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + 2 ** 30
    if soft != resource.RLIM_INFINITY:
        cap = min(cap, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
