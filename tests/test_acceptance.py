"""Full-scale acceptance suite: one test per shipped criterion, made from V.CRITERIA.

Each test runs its criterion at the stated tolerance and prints a pass/fail
line (visible with ``pytest -s`` or in the captured output of a failure).
The same criterion implementations back ``modalbridge validate``.
"""

import time

import pytest

from modalbridge import validate as V


def _criterion_test(number, name, fn):
    def test():
        start = time.time()
        out = fn(False)
        passed, details = out[0], out[1]
        elapsed = time.time() - start
        status = "PASS" if passed else "FAIL"
        print(f"criterion {number:2d} [{status}] {name} ({elapsed:.1f}s): {details}")
        assert passed, f"criterion {number} ({name}) failed: {details}"
    return test


# one test per entry of V.CRITERIA, named after its number and function, as
# test_criterion_01_kernel_integral_identity for crit_kernel_integral_identity
for _number, _name, _fn in V.CRITERIA:
    globals()[f"test_criterion_{_number:02d}_{_fn.__name__.removeprefix('crit_')}"] = \
        _criterion_test(_number, _name, _fn)


def test_criterion_07_bin_check_gives_zero_hits_a_poisson_bound():
    from modalbridge.mc import DensityEstimate

    n, area = 20_000, 1e-4
    empty = DensityEstimate(0.0, 1.0 / (n * area), n)
    # expected hits lambda = n * area * phi: P(0 hits) = e^-3 passes, e^-10 fails
    assert V._bin_agrees(empty, 3.0 / (n * area), area)[0]
    assert not V._bin_agrees(empty, 10.0 / (n * area), area)[0]
    # bins with hits keep 3 s.e. + 5% of phi
    hit = DensityEstimate(0.25, 0.01, n)
    assert V._bin_agrees(hit, 0.26, area)[0]
    assert not V._bin_agrees(hit, 0.30, area)[0]


def test_criterion_03_fits_the_operator_budget():
    # per H, the round trip alternates between two grids, and each needs its
    # inverse-transform matrix L, (n+1) x (n+1), and its kernel product matrix,
    # n x (n+1).  If the store cannot hold both grids' operators, least-recently-
    # used eviction rebuilds every one of them on each pass.
    from modalbridge import opcache

    def working_set(sizes):
        return sum(8 * ((n + 1) ** 2 + n * (n + 1)) for n in sizes)

    opcache.clear()
    V.crit_operator_round_trip(True)  # grids of 500 and 1000 steps, at H 0.25 and 0.75
    stats = opcache.stats()
    for partition in ("inverse_operator", "product_matrix"):
        assert stats[partition]["builds"] == 4 and stats[partition]["evictions"] == 0
    assert stats["inverse_operator"]["bytes"] + stats["product_matrix"]["bytes"] == \
        2 * working_set((500, 1000))
    assert opcache.BUDGET_BYTES >= working_set((2000, 4000))  # the full scale
