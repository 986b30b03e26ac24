"""Tests for the content-addressed result cache."""

import numpy as np
import pytest

from repro.core.errors import ExperimentError
from repro.runner import ResultCache, default_cache_root
from repro.validation.series import ExperimentResult, Series

KEY = "ab" * 32
KEY2 = "cd" * 32


def _result() -> ExperimentResult:
    res = ExperimentResult(experiment="figX", title="t", x_label="x",
                           y_label="y")
    # awkward floats: round-tripping these exactly is the whole point
    res.series.append(Series("s", [1.0, 2.0, 3.0],
                             [0.1, 1 / 3, np.pi * 1e6]))
    res.check("c", True, "detail")
    res.notes.append("n")
    return res


class TestDefaultRoot:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_root() == tmp_path / "x"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_root().name == "repro"


class TestRoundTrip:
    def test_put_get_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        res = _result()
        cache.put(KEY, res, meta={"experiment": "figX"})
        got = cache.get(KEY)
        assert got is not None
        assert got.identical(res)
        # bitwise, not approximately
        assert got.series[0].ys.tobytes() == res.series[0].ys.tobytes()

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, _result())
        path.write_text("{ truncated")
        assert cache.get(KEY) is None

    def test_unknown_format_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, _result())
        head, body = path.read_bytes().split(b"\n", 1)
        magic, _, checksum = head.split(b" ")
        # an intact body under a format number this code does not know
        path.write_bytes(b"%s 999 %s\n" % (magic, checksum) + body)
        assert cache.get(KEY) is None
        assert cache.stats.misses == 1
        assert cache.stats.quarantined == 1
        assert len(cache.quarantined()) == 1

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ExperimentError, match="malformed"):
            cache.get("../../../etc/passwd")


class TestStatsAndListing:
    def test_stats_track_outcomes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, _result())
        cache.get(KEY, "figX")
        cache.get(KEY2, "figY")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.outcomes == {"figX": "hit", "figY": "miss"}
        assert "1 hit(s), 1 miss(es)" == cache.stats.summary()

    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, _result(), meta={"experiment": "figX", "seed": 0})
        cache.put(KEY2, _result(), meta={"experiment": "figY", "seed": 1})
        entries = cache.entries()
        assert [e["experiment"] for e in entries] == ["figX", "figY"]
        assert all(e["bytes"] > 0 for e in entries)
        assert cache.clear() == 2
        assert cache.entries() == []
        assert cache.clear() == 0
