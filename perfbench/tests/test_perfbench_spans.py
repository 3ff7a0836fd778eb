import itertools
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Recorder, count_within, installed, self_times, totals_by_name


def test_self_time_subtracts_children():
    spans = [(1, "p", 0.0, 10.0, None), (2, "c", 1.0, 3.0, 1), (3, "c", 5.0, 6.0, 1)]
    assert self_times(spans) == {1: pytest.approx(7.0), 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_thread_children_once():
    # two pool workers under one parent: union [2, 8] covers 6 of 10
    spans = [(1, "p", 0.0, 10.0, None), (2, "a", 2.0, 6.0, 1), (3, "b", 4.0, 8.0, 1)]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_self_time_ignores_child_parts_outside_parent():
    spans = [(1, "p", 0.0, 10.0, None), (2, "c", 8.0, 12.0, 1)]
    assert self_times(spans)[1] == pytest.approx(8.0)


def test_self_time_subtracts_only_direct_children():
    spans = [(1, "p", 0.0, 10.0, None), (2, "c", 2.0, 8.0, 1), (3, "g", 3.0, 7.0, 2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_totals_and_count_within():
    spans = [
        (1, "root", 0.0, 10.0, None),
        (2, "F", 1.0, 2.0, 1),
        (3, "solve", 3.0, 9.0, 1),
        (4, "F", 4.0, 5.0, 3),
        (5, "F", 6.0, 7.0, 3),
    ]
    totals = totals_by_name(spans)
    assert totals["F"] == (3, pytest.approx(3.0))
    assert totals["solve"] == (1, pytest.approx(4.0))
    assert count_within(spans, "F", "solve") == 2
    assert count_within(spans, "F", "missing") == 0


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_recorder_nests_spans_and_skips_recursion():
    rec = Recorder(clock=_fake_clock())

    def fact(n):
        return 1 if n <= 1 else n * traced_fact(n - 1)

    traced_fact = rec.wrap("m.fact", fact)
    outer = rec.wrap("m.outer", lambda: traced_fact(4))
    assert outer() == 24
    # the recursive calls run inside the one m.fact span
    names = {name: (sid, parent) for sid, name, _, _, parent in rec.spans}
    assert sorted(names) == ["m.fact", "m.outer"]
    assert names["m.fact"][1] == names["m.outer"][0]
    assert names["m.outer"][1] is None


def test_recorder_hook_sees_result_and_span_is_kept_on_error():
    rec = Recorder()
    seen = []
    ok = rec.wrap("m.ok", lambda x: x * 2, hook=lambda r, a, k, res: seen.append((a, res)))
    assert ok(21) == 42
    assert seen == [((21,), 42)]

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("m.boom", boom)()
    assert [s[1] for s in rec.spans] == ["m.ok", "m.boom"]


def test_pool_worker_spans_take_the_waiting_span_as_parent():
    rec = Recorder()
    barrier = threading.Barrier(2, timeout=10)

    def work(i):
        barrier.wait()  # both workers are inside their spans at once
        return i

    traced_work = rec.wrap("m.work", work)

    def run_all():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(traced_work, range(2)))

    assert rec.wrap("m.run_all", run_all)() == [0, 1]
    by_name = {}
    for sid, name, start, end, parent in rec.spans:
        by_name.setdefault(name, []).append((sid, start, end, parent))
    (root_id, r_start, r_end, _), = by_name["m.run_all"]
    assert [parent for *_, parent in by_name["m.work"]] == [root_id, root_id]
    own = self_times(rec.spans)[root_id]
    assert 0.0 <= own <= r_end - r_start


def _modules():
    impl = types.ModuleType("impl")
    impl.double = lambda x: 2 * x
    user = types.ModuleType("user")
    user.double = impl.double  # as after ``from .impl import double``
    user.call = lambda x: user.double(x) + 1
    return {"impl": impl, "user": user}


def test_installed_wraps_every_binding_and_keeps_results():
    mods = _modules()
    original = mods["impl"].double
    rec = Recorder()
    with installed(rec, {"impl.double": None}, mods):
        assert mods["impl"].double is not original
        assert mods["user"].double is mods["impl"].double
        assert mods["user"].call(5) == 11
        assert mods["impl"].double(7) == original(7)
    assert [s[1] for s in rec.spans] == ["impl.double", "impl.double"]


def test_installed_restores_attributes_even_on_error():
    mods = _modules()
    original = mods["impl"].double
    with pytest.raises(RuntimeError):
        with installed(Recorder(), {"impl.double": None}, mods):
            raise RuntimeError("step failed")
    assert mods["impl"].double is original
    assert mods["user"].double is original
