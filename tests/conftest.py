#: Seed the tests pass to the verify checks, the default of `su2drift verify`.
VERIFY_SEED = 12345

CRITERIA_RESULTS = []


def record_criterion(name: str, ok: bool, detail: str = ""):
    CRITERIA_RESULTS.append((name, ok, detail))


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, ok, detail in CRITERIA_RESULTS:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
