import sys
import threading
import time

import numpy as np
import pytest

from modalbridge import opcache
from modalbridge.density import approx_density
from modalbridge.driftspec import ModelSpec, parse_drift
from modalbridge.fraccalc import GridFunction, apply_KH
from modalbridge.kernel import Hurst, TimeGrid, kernel_alt, kernel_profile
from modalbridge.mc import SimConfig, bridge_mc_density, simulate_forward


@pytest.fixture(autouse=True)
def empty_store():
    # the store is process-wide: start empty, and leave none of these entries behind
    opcache.clear()
    yield
    opcache.clear()


def _array(nbytes, fill=0.0):
    return np.full(nbytes // 8, fill)


def test_lru_eviction_across_partitions(monkeypatch):
    monkeypatch.setattr(opcache, "BUDGET_BYTES", 3 * 800)
    builds = []

    def get(partition, key):
        def build():
            builds.append((partition, key))
            return _array(800)
        return opcache.get(partition, key, build)

    a1 = get("a", 1)
    b1 = get("b", 1)
    get("a", 2)
    assert get("a", 1) is a1  # a hit makes ("a", 1) the most recently used
    get("b", 2)  # evicts ("b", 1), the least recently used, from the other partition
    assert get("a", 1) is a1
    assert get("b", 1) is not b1  # rebuilt, which evicts ("a", 2)
    assert builds == [("a", 1), ("b", 1), ("a", 2), ("b", 2), ("b", 1)]
    assert opcache.stats() == {
        "a": {"builds": 2, "hits": 2, "evictions": 1, "bytes": 800},
        "b": {"builds": 3, "hits": 0, "evictions": 1, "bytes": 1600},
    }


def test_value_over_budget_is_returned_not_kept(monkeypatch):
    monkeypatch.setattr(opcache, "BUDGET_BYTES", 1000)
    kept = opcache.get("small", 0, lambda: _array(800))
    big = [opcache.get("big", 0, lambda: _array(1008, fill=k)) for k in (1.0, 2.0)]
    assert big[0][0] == 1.0 and big[1][0] == 2.0  # built twice, never stored
    assert opcache.get("small", 0, lambda: _array(800)) is kept  # nothing evicted for it
    assert opcache.stats() == {
        "small": {"builds": 1, "hits": 1, "evictions": 0, "bytes": 800},
        "big": {"builds": 2, "hits": 0, "evictions": 0, "bytes": 0},
    }


def test_sizes_count_the_arrays_of_tuples_and_objects():
    class Level:
        def __init__(self):
            self.n = 4
            self.w = _array(80)
            self.a = _array(16)

    opcache.get("tuple", 0, lambda: (_array(40), _array(24), 3.0))
    opcache.get("object", 0, Level)
    held = {p: s["bytes"] for p, s in opcache.stats().items()}
    assert held == {"tuple": 64, "object": 96}


def test_clear_drops_entries_and_counters():
    first = opcache.get("p", 0, lambda: _array(8))
    assert opcache.get("p", 0, lambda: _array(8)) is first
    opcache.clear()
    assert opcache.stats() == {}
    assert opcache.get("p", 0, lambda: _array(8)) is not first
    assert opcache.stats() == {"p": {"builds": 1, "hits": 0, "evictions": 0, "bytes": 8}}


def test_racing_builds_return_the_value_stored_first():
    # both threads miss, then build at the same time: each returns the first one stored
    barrier = threading.Barrier(2, timeout=30)
    results = [None, None]

    def worker(i):
        def build():
            barrier.wait()
            return _array(8, fill=i)
        results[i] = opcache.get("p", "key", build)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert results[0] is results[1]
    assert opcache.stats()["p"]["builds"] == 2


def test_nested_build_does_not_deadlock():
    # a build that looks up another entry, as a bridge level fetches its inverse operator
    out = []

    def outer():
        inner = opcache.get("inner", 0, lambda: _array(8, fill=2.0))
        return (inner, _array(8))

    th = threading.Thread(target=lambda: out.append(opcache.get("outer", 0, outer)), daemon=True)
    th.start()
    th.join(timeout=30)
    assert not th.is_alive()
    assert out[0][0][0] == 2.0
    assert {p: s["builds"] for p, s in opcache.stats().items()} == {"inner": 1, "outer": 1}


def test_concurrent_distinct_keys_at_capacity_two(monkeypatch):
    # many threads on a full store evict concurrently; an unlocked check-then-pop
    # can pop an entry another thread already removed.  Every call counts as
    # exactly one build or one hit.
    monkeypatch.setattr(opcache, "BUDGET_BYTES", 2 * 16)  # two entries of two int64
    errors, wrong = [], []
    calls = 5000

    def worker(w):
        try:
            for i in range(calls):
                # every other call asks for one shared entry, which stays in the store
                key = (-1, -1) if i % 2 else (w, i % 7)
                value = opcache.get(f"p{w % 3}", key, lambda: np.array(key))
                if tuple(value) != key:
                    wrong.append((key, value))
        except Exception as exc:  # recorded; the assertion below reports it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(16)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and wrong == []
    stats = opcache.stats().values()
    assert sum(s["builds"] + s["hits"] for s in stats) == 16 * calls
    assert 0 < sum(s["bytes"] for s in stats) <= 2 * 16


def test_counters_count_every_call_under_contention(monkeypatch):
    # a counter's += is a read and a write; here the read yields the interpreter
    # before it returns, so an increment made outside the lock loses updates
    class YieldingCounts(list):
        def __getitem__(self, i):
            value = super().__getitem__(i)
            time.sleep(0)
            return value

    monkeypatch.setattr(opcache, "BUDGET_BYTES", 64)
    opcache._counts["p"] = YieldingCounts([0, 0, 0, 0])
    calls, errors = 1000, []

    def worker(w):
        try:
            for i in range(calls):
                # odd calls hit one stored entry; even calls build one too large to keep
                opcache.get("p", i % 2, lambda: _array(8 if i % 2 else 128))
        except Exception as exc:  # recorded; the assertion below reports it
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    stats = opcache.stats()["p"]
    assert stats["builds"] + stats["hits"] == 8 * calls


def _refuses_writes(value):
    """Assert that each array of a stored value, and the base of each view, is read-only."""
    if isinstance(value, np.ndarray):
        parts = (value,)
    else:
        parts = value if isinstance(value, tuple) else tuple(vars(value).values())
    arrays = [part for part in parts if isinstance(part, np.ndarray)]
    assert arrays
    for array in arrays:
        for target in (array, array.base) if array.base is not None else (array,):
            with pytest.raises(ValueError, match="read-only"):
                target[...] = target


def test_every_operator_the_store_hands_out_refuses_writes(monkeypatch):
    # the store, not each builder, freezes what the pool's threads share
    model = ModelSpec(Hurst(0.7), 0.4, 0.0, 0.0, 1.0, parse_drift("0.3*t"), parse_drift("0.2"))
    cfg = SimConfig(n_paths=64, n_steps=8, seed=1)
    approx_density(model, (0.1, 0.2), n=16)
    apply_KH(GridFunction(TimeGrid(1.0, 8), np.linspace(0.0, 1.0, 9)), model.hurst)
    kernel_alt(1.0, 0.5, model.hurst)
    bridge_mc_density(model, (0.1, 0.2), cfg)
    simulate_forward(model, cfg)
    assert set(opcache.stats()) == {
        "nodes", "jacobi_rule", "kernel_profile", "psi_profile", "product_matrix",
        "inverse_operator", "modal_coeffs", "bridge_level", "forward_factor"}
    for value in opcache._entries.values():
        _refuses_writes(value)
    # a value too large to keep is returned frozen as well
    monkeypatch.setattr(opcache, "BUDGET_BYTES", 0)
    opcache.clear()
    profile = kernel_profile(Hurst(0.35))
    assert opcache.stats()["kernel_profile"]["bytes"] == 0
    _refuses_writes(profile)
