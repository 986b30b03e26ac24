"""Tests for the shared checksummed store under the result cache and the
IR step-program store."""

import json
import sys
import threading

import pytest

from repro.algorithms import matmul
from repro.cli import main
from repro.core.errors import ExperimentError
from repro.machines import GCel
from repro.runner import ResultCache
from repro.runner.store import ContentStore, seal, unseal
from repro.simulator.ir import IRStore, _decode_blob, ir_store_scope

KEY = "ab" * 32
MAGIC, FMT = b"test-blob", 7


def _store(root) -> ContentStore:
    return ContentStore(root, suffix=".blob", magic=MAGIC, fmt=FMT)


def _sealed(body: bytes) -> bytes:
    return seal(MAGIC, FMT, body)


class TestEnvelope:
    def test_seal_unseal_round_trip(self):
        raw = seal(b"test-blob", 7, b"payload")
        assert raw.startswith(b"test-blob 7 ")
        assert unseal(b"test-blob", 7, raw) == b"payload"

    @pytest.mark.parametrize("raw", [
        b"",                                    # empty
        b"payload",                             # no header line
        seal(b"other", 7, b"payload"),          # foreign magic
        seal(b"test-blob", 8, b"payload"),      # other format
        seal(b"test-blob", 7, b"payload")[:-1],  # truncated body
    ])
    def test_damage_raises(self, raw):
        with pytest.raises(ValueError):
            unseal(b"test-blob", 7, raw)


class TestContentStore:
    def test_layout_and_load(self, tmp_path):
        store = _store(tmp_path)
        path = store.write(KEY, _sealed(b"body"))
        assert path == tmp_path / KEY[:2] / f"{KEY}.blob"
        assert store.load(KEY, bytes) == (path.read_bytes(), b"body")
        assert store.load("cd" * 32, bytes) == (None, None)

    def test_malformed_key_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="malformed"):
            _store(tmp_path).path("../../etc/passwd")

    def test_damaged_entry_quarantined(self, tmp_path):
        store = _store(tmp_path)
        path = store.write(KEY, _sealed(b"body")[:-1])
        raw, value = store.load(KEY, bytes)
        assert raw is not None and value is None
        assert not path.exists()
        assert (store.quarantine_dir / path.name).exists()
        assert store.entries() == [] and store.stats() == (0, 0)

    def test_parse_failure_quarantined(self, tmp_path):
        store = _store(tmp_path)
        store.write(KEY, _sealed(b"not json"))
        assert store.load(KEY, json.loads)[1] is None
        assert len(list(store.quarantine_dir.iterdir())) == 1

    def test_clear_removes_what_stats_counts(self, tmp_path):
        store = _store(tmp_path)
        store.write(KEY, _sealed(b"bad")[:-1])
        store.load(KEY, bytes)  # quarantined
        store.write("cd" * 32, _sealed(b"good"))
        count, size = store.stats()
        assert count == 1 and size > 0
        assert store.clear() == count
        assert store.stats() == (0, 0)
        assert len(list(store.quarantine_dir.iterdir())) == 1


class TestConcurrentWrites:
    def test_same_key_writers_never_tear_a_blob(self, tmp_path):
        """Two threads of one process record the same program while a
        reader decodes it: every read sees a whole blob, and no temp
        file is left behind."""
        with ir_store_scope(IRStore(disk=False)) as mem:
            matmul.run(GCel(seed=3), 128, seed=1, engine="ir")
        ((key, prog),) = mem.memory.items()
        store = IRStore(tmp_path / "ir")
        path = store.root / key[:2] / f"{key}.irp"
        barrier = threading.Barrier(3)
        done = threading.Event()
        reads, failures = [0], []

        def writer():
            barrier.wait()
            for _ in range(300):
                store.put(key, prog)

        def reader():
            barrier.wait()
            while not done.is_set():
                try:
                    raw = path.read_bytes()
                except FileNotFoundError:
                    continue
                reads[0] += 1
                try:
                    _decode_blob(raw)
                except ValueError as exc:
                    failures.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        check = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in (*threads, check):
                t.start()
            for t in threads:
                t.join(timeout=120)
            done.set()
            check.join(timeout=120)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*threads, check))
        assert reads[0] > 0
        assert failures == []
        assert [p.name for p in path.parent.iterdir()] == [path.name]


class TestInfoMatchesClear:
    def test_quarantined_entries_are_neither_counted_nor_cleared(
            self, tmp_path, capsys):
        """One healthy and one quarantined entry in each store: ``cache
        info`` counts the healthy ones, ``cache clear`` removes exactly
        those, and the quarantined files stay for post-mortems."""
        root = tmp_path / "cache"
        cache = ResultCache(root)
        cache.put_doc(KEY, {"x": 1}, meta={"experiment": "a"})
        cache.put_doc("cd" * 32, {"x": 2}, meta={"experiment": "b"})
        cache.store.path(KEY).write_bytes(b"rot")
        assert cache.get_doc(KEY) is None  # quarantined
        ir = IRStore(root / "ir")
        with ir_store_scope(ir):
            matmul.run(GCel(seed=3), 64, seed=1, engine="ir")
            matmul.run(GCel(seed=3), 128, seed=1, engine="ir")
        bad, _ = sorted(ir.memory)
        (root / "ir" / bad[:2] / f"{bad}.irp").write_bytes(b"rot")
        assert IRStore(root / "ir").get(bad) is None  # quarantined

        assert main(["cache", "info", "--cache-dir", str(root),
                     "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["count"], info["ir"]["count"]) == (1, 1)
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "removed 1 cached result(s) and 1 step program(s)" \
            in capsys.readouterr().out
        assert len(cache.quarantined()) == 1
        assert len(list((root / "ir" / "quarantine").iterdir())) == 1
        assert main(["cache", "info", "--cache-dir", str(root),
                     "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["count"], info["ir"]["count"]) == (0, 0)
