import sys

# loaded before any test module imports numpy, so in-process runs use the
# lab's one BLAS thread, as `lab run` does
import mmlab  # noqa: F401

ACCEPTANCE_LINES = []


def record_criterion(num, description, ok):
    """Collect a one-line verdict; echoed in the terminal summary."""
    line = "[criterion %2d] %-58s %s" % (num, description, "PASS" if ok else "FAIL")
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
