import sys
import threading

from modalbridge.opcache import OperatorCache


def test_fifo_eviction_and_reuse():
    cache = OperatorCache(2)
    builds = []

    def build(key):
        builds.append(key)
        return [key]

    a = cache.get("a", lambda: build("a"))
    assert cache.get("a", lambda: build("a")) is a
    cache.get("b", lambda: build("b"))
    cache.get("c", lambda: build("c"))  # evicts "a", the oldest
    assert len(cache) == 2
    assert cache.get("a", lambda: build("a")) is not a
    assert builds == ["a", "b", "c", "a"]


def test_concurrent_distinct_keys_at_capacity_two():
    # many threads on a full cache evict concurrently; an unlocked
    # check-then-pop can pop a key another thread already removed
    cache = OperatorCache(2)
    errors, wrong = [], []

    def worker(w):
        try:
            for i in range(5000):
                key = (w, i % 7)
                value = cache.get(key, lambda: key)
                if value != key:
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
    assert len(cache) <= 2
