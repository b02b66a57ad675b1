"""Tests for the cache layer: the content store's one policy and the
bounded identity memo."""

import gc
import json
import weakref

from repro import telemetry
from repro.caching import SEGMENT_GLOB, ContentStore, IdentityMemo
from repro.telemetry import Telemetry


def _counters(fn):
    tel = Telemetry()
    with telemetry.active(tel):
        result = fn()
    return result, tel.metrics.snapshot()["counters"]


def _segments(root):
    return sorted(root.glob(SEGMENT_GLOB))


class TestContentStore:
    def test_round_trip_counts_put_and_hit(self, tmp_path):
        store = ContentStore(tmp_path / "s", "demo")
        ok, counters = _counters(lambda: store.put("k", json.dumps([1, 2])))
        assert ok and counters == {"demo.put": 1}
        value, counters = _counters(lambda: store.get("k", json.loads))
        assert value == [1, 2] and counters == {"demo.hit": 1}
        # One packed line in one segment, read back by a fresh reader.
        (segment,) = _segments(tmp_path / "s")
        assert segment.read_bytes() == b"k\t[1, 2]\n"
        assert ContentStore(tmp_path / "s", "demo").get("k", json.loads) == [1, 2]

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ContentStore(tmp_path, "demo")
        value, counters = _counters(lambda: store.get("absent", json.loads))
        assert value is None and counters == {"demo.miss": 1}

    def test_undecodable_entry_is_dropped(self, tmp_path):
        store = ContentStore(tmp_path, "demo")
        store.put("k", "{torn")
        store.put("ok", "[1]")
        for reader in (store, ContentStore(tmp_path, "demo")):
            value, counters = _counters(lambda: reader.get("k", json.loads))
            assert value is None
            assert counters == {"demo.miss": 1, "demo.corrupt": 1}
            # Dropped: asking again is a plain miss.
            value, counters = _counters(lambda: reader.get("k", json.loads))
            assert value is None and counters == {"demo.miss": 1}
            assert reader.get("ok", json.loads) == [1]

    def test_torn_last_line_is_a_counted_miss(self, tmp_path):
        store = ContentStore(tmp_path, "demo")
        store.put("a", json.dumps({"n": 1}))
        store.put("b", json.dumps({"n": 2}))
        (segment,) = _segments(tmp_path)
        # A writer killed mid-line leaves its last entry cut short.
        segment.write_bytes(segment.read_bytes()[:-4])
        reader = ContentStore(tmp_path, "demo")
        value, counters = _counters(lambda: reader.get("b", json.loads))
        assert value is None
        assert counters == {"demo.miss": 1, "demo.corrupt": 1}
        assert reader.get("a", json.loads) == {"n": 1}

    def test_two_writers_see_each_other_after_reopening(self, tmp_path):
        first = ContentStore(tmp_path, "demo")
        second = ContentStore(tmp_path, "demo")
        first.put("a", "1")
        second.put("b", "2")
        assert len(_segments(tmp_path)) == 2  # one segment per writer
        for reader in (ContentStore(tmp_path, "demo"), ContentStore(tmp_path, "demo")):
            assert reader.get("a", json.loads) == 1
            assert reader.get("b", json.loads) == 2

    def test_failed_write_is_counted_not_raised(self, tmp_path):
        root = tmp_path / "s"
        store = ContentStore(root, "demo")
        # The store's directory is gone and a file took its name: no
        # segment can be created in it.
        root.rmdir()
        root.write_text("")
        ok, counters = _counters(lambda: store.put("k", "[1]"))
        assert ok is False and counters == {"demo.write_error": 1}
        root.unlink()
        root.mkdir()
        # The next put starts a segment of its own; the failed one is lost.
        assert store.put("j", "[2]")
        reader = ContentStore(root, "demo")
        assert reader.get("j", json.loads) == [2]
        assert reader.get("k", json.loads) is None


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
