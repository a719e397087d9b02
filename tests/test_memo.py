"""The keyed cache arith.Memo, the process-wide caches built on it and the
chart contexts of a RunScope, their eigencoordinate series included, under
threads: each is built once, whoever asks first."""

import threading
import time

import pytest

from modpcheck import arith, iwasawa


def test_memo_hit_never_calls_build():
    calls = []

    def build(a, b):
        calls.append((a, b))
        return [a, b]

    memo = arith.Memo(build)
    first = memo[1, 2]
    assert memo[1, 2] is first
    assert calls == [(1, 2)]
    memo[3, 4] = "stored"
    assert memo[3, 4] == "stored"
    assert calls == [(1, 2)]


def test_memo_build_that_raises_stores_nothing():
    calls = []

    def build(x):
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("first build fails")
        return 2 * x

    memo = arith.Memo(build)
    with pytest.raises(ValueError, match="first build fails"):
        memo[3,]
    assert (3,) not in memo
    assert memo[3,] == 6
    assert calls == [3, 3]


def test_memo_build_may_look_up_its_own_memo():
    # Memo lets a build look up its own memo: the lock must be re-entrant,
    # so the build finishes on its thread instead of waiting on itself
    fib = arith.Memo(lambda n: n if n < 2 else fib[n - 1,] + fib[n - 2,])
    got = []
    worker = threading.Thread(target=lambda: got.append(fib[40,]), daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert got == [102334155]
    assert len(fib) == 41


def _at_once(ask, n=4):
    """Results of ask() from n threads released together."""
    start = threading.Barrier(n)
    got, errors = [], []

    def work():
        try:
            start.wait(timeout=30)
            got.append(ask())
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return got


@pytest.mark.parametrize("cache, key, cls, builder, ask", [
    (lambda scope: scope[iwasawa.ChartContext], (13, 2, 12), iwasawa.ChartContext, "__init__",
     lambda scope: scope[iwasawa.ChartContext][13, 2, 12]),
    (lambda scope: arith._FIELD_CACHE, (7, 2), arith.Fq, "_init", lambda scope: arith.Fq(7, 2)),
    (lambda scope: arith._WITT_CACHE, (7, 2, 3), arith.WittRing, "_init",
     lambda scope: arith.WittRing(7, 2, 3)),
], ids=["chart_context", "Fq", "WittRing"])
def test_shared_cache_is_built_once_under_threads(monkeypatch, cache, key, cls, builder, ask):
    # four threads ask for an object that is not cached yet while its build
    # sleeps: one build, and every thread gets the object the cache keeps.
    # The threads share one RunScope, which holds the charts
    scope = arith.RunScope()
    monkeypatch.delitem(cache(scope), key, raising=False)
    built = []
    plain = getattr(cls, builder)

    def slow(self, *args):
        built.append(args)
        time.sleep(0.05)  # hold the build open while the others arrive
        return plain(self, *args)

    monkeypatch.setattr(cls, builder, slow)
    got = _at_once(lambda: ask(scope))
    assert len(built) == 1
    assert len({id(x) for x in got}) == 1
    assert got[0] is cache(scope)[key]


def test_y_series_is_built_once_under_threads(monkeypatch):
    # four threads ask their RunScope for a chart it does not hold yet while
    # its Y_0 sum sleeps: one sum, one context and one series tuple
    scope = arith.RunScope()
    built = []
    plain = iwasawa.ChartContext._y0_terms

    def slow(self):
        built.append(self)
        time.sleep(0.05)  # hold the build open while the others arrive
        return plain(self)

    monkeypatch.setattr(iwasawa.ChartContext, "_y0_terms", slow)
    got = _at_once(lambda: scope[iwasawa.ChartContext][13, 2, 12])
    assert len(built) == 1
    assert len({id(ctx) for ctx in got}) == 1
    assert len({id(ctx.y_series) for ctx in got}) == 1
    assert got[0] is built[0] is scope[iwasawa.ChartContext][13, 2, 12]
