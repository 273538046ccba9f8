import sys
from pathlib import Path

from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the same examples on every run, so a
# failure found there can be replayed; local runs keep exploring at random.
settings.register_profile("ci", derandomize=True, deadline=None)

# make reference_values importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

# per-criterion verdict lines filled in by tests/test_acceptance.py
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
