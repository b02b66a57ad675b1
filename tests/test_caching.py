"""Tests for the cache layer: the content store's one policy and the
bounded identity memo."""

import gc
import json
import os
import weakref

from repro import telemetry
from repro.caching import ContentStore, IdentityMemo
from repro.telemetry import Telemetry


def _counters(fn):
    tel = Telemetry()
    with telemetry.active(tel):
        result = fn()
    return result, tel.metrics.snapshot()["counters"]


class TestContentStore:
    def test_round_trip_counts_put_and_hit(self, tmp_path):
        store = ContentStore(tmp_path / "s", "demo", ".json")
        ok, counters = _counters(lambda: store.put("k", json.dumps([1, 2])))
        assert ok and counters == {"demo.put": 1}
        value, counters = _counters(lambda: store.get("k", json.loads))
        assert value == [1, 2] and counters == {"demo.hit": 1}
        assert (tmp_path / "s" / "k.json").is_file()

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ContentStore(tmp_path, "demo", ".json")
        value, counters = _counters(lambda: store.get("absent", json.loads))
        assert value is None and counters == {"demo.miss": 1}

    def test_undecodable_entry_is_dropped(self, tmp_path):
        store = ContentStore(tmp_path, "demo", ".json")
        store.put("k", "{torn")
        value, counters = _counters(lambda: store.get("k", json.loads))
        assert value is None
        assert counters == {"demo.miss": 1, "demo.corrupt": 1}
        assert not store.path("k").exists()

    def test_failed_write_is_counted_not_raised(self, tmp_path, monkeypatch):
        def broken_replace(src, dst):
            raise OSError(28, "No space left on device")

        store = ContentStore(tmp_path, "demo", ".pkl")
        monkeypatch.setattr(os, "replace", broken_replace)
        ok, counters = _counters(lambda: store.put("k", b"data"))
        assert ok is False and counters == {"demo.write_error": 1}
        assert list(tmp_path.iterdir()) == []


class _Obj:
    pass


class TestIdentityMemo:
    def test_keyed_by_identity_and_parts(self):
        memo = IdentityMemo(8)
        a, b = _Obj(), _Obj()
        memo.put(a, "x", value=1)
        assert memo.get(a, "x") == 1
        assert memo.get(a, "y") is None
        assert memo.get(b, "x") is None

    def test_entry_pins_its_object(self):
        memo = IdentityMemo(8)
        obj = _Obj()
        ref = weakref.ref(obj)
        memo.put(obj, value=1)
        del obj
        gc.collect()
        assert ref() is not None  # pinned, so its id cannot be reused
        memo.clear()
        gc.collect()
        assert ref() is None

    def test_least_recently_used_is_evicted(self):
        memo = IdentityMemo(2)
        a, b, c = _Obj(), _Obj(), _Obj()
        memo.put(a, value="a")
        memo.put(b, value="b")
        assert memo.get(a) == "a"  # a is now the most recent
        memo.put(c, value="c")
        assert len(memo) == 2
        assert memo.get(b) is None
        assert memo.get(a) == "a" and memo.get(c) == "c"

    def test_put_returns_value_and_clear_empties(self):
        memo = IdentityMemo(4)
        obj = _Obj()
        assert memo.put(obj, value="v") == "v"
        memo.clear()
        assert len(memo) == 0 and memo.get(obj) is None
