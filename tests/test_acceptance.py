"""Acceptance gate: every structural criterion at its stated size bound.

The criteria, their bounds and their runtime budgets all come from
verify._criteria("full", 0), the table behind `sutura verify --level
full`.  Each test prints one PASS/FAIL line and enforces its budget.
All arithmetic is exact, tolerance zero.
"""

import time

from sutura import verify


def _criterion_test(number, name, fn, budget):
    def test():
        start = time.perf_counter()
        problems = fn()
        elapsed = time.perf_counter() - start
        status = "PASS" if not problems else "FAIL"
        print(f"{status} — criterion {number}: {name} ({elapsed:.1f}s)")
        assert not problems, f"criterion {number} ({name}): {problems[:5]}"
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"

    test.__name__ = f"test_criterion_{number}_{name}"
    return test


for _number, (_name, _fn, _budget) in enumerate(verify._criteria("full", 0), start=1):
    _test = _criterion_test(_number, _name, _fn, _budget)
    globals()[_test.__name__] = _test
