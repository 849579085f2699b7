"""Full-scale acceptance suite: one test per shipped criterion.

Each test runs its criterion at the stated tolerance and prints a pass/fail
line (visible with ``pytest -s`` or in the captured output of a failure).
The same criterion implementations back ``modalbridge validate``.
"""

import time

import pytest

from modalbridge import validate as V


def _run(number, name, fn):
    start = time.time()
    out = fn(False)
    passed, details = out[0], out[1]
    elapsed = time.time() - start
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {name} ({elapsed:.1f}s): {details}")
    assert passed, f"criterion {number} ({name}) failed: {details}"


def test_criterion_01_kernel_integral_identity():
    _run(1, "kernel integral identity", V.crit_kernel_integral_identity)


def test_criterion_02_kernel_form_equivalence():
    _run(2, "kernel form equivalence", V.crit_kernel_form_equivalence)


def test_criterion_03_operator_round_trip():
    _run(3, "operator round trip", V.crit_operator_round_trip)


def test_criterion_04_modal_path_structure():
    _run(4, "modal path structure", V.crit_modal_path_structure)


def test_criterion_05_conditional_gaussian():
    _run(5, "conditional Gaussian lemma", V.crit_conditional_gaussian)


def test_criterion_06_timeonly_exactness():
    _run(6, "time-only exactness", V.crit_timeonly_exactness)


def test_criterion_07_forward_mc_vs_prefactor():
    _run(7, "forward MC vs prefactor", V.crit_forward_mc_vs_prefactor)


def test_criterion_08_bridge_mc_vs_exact():
    _run(8, "bridge MC vs exact density", V.crit_bridge_mc_vs_exact)


def test_criterion_09_asymptotic_trend():
    _run(9, "asymptotic trend", V.crit_asymptotic_trend)


def test_criterion_10_figure_grid():
    _run(10, "figure grid reproduction", V.crit_figure_grid)


def test_criterion_11_determinism():
    _run(11, "determinism", V.crit_determinism)


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


def test_criterion_03_releases_its_grids():
    # at full scale the inverse-transform and product matrices of its grids
    # take several hundred MB, and no later criterion uses them
    from modalbridge import fraccalc, profiles

    V.crit_operator_round_trip(True)
    assert not [key for key in fraccalc._inverse_cache._items if key[2] in (500, 1000)]
    assert not [key for key in profiles._table_cache._items if key[1] in (500, 1000)]
