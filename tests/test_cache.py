"""The results cache: source fingerprints and atomic stores."""

import json
import sys
import threading

from gpw import cache
from gpw.cache import ResultCache


def test_engine_version_fingerprints_the_sources(tmp_path, monkeypatch):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("x = 1\n")
    monkeypatch.setattr(cache, "__file__", str(package / "cache.py"))
    cache.engine_version.cache_clear()
    try:
        first = cache.engine_version()
        assert len(first) == 64 and cache.engine_version() == first
        (package / "a.py").write_text("x = 2\n")
        assert cache.engine_version() == first  # computed once per process
        cache.engine_version.cache_clear()
        assert cache.engine_version() != first
    finally:
        cache.engine_version.cache_clear()


def test_entry_from_another_fingerprint_is_a_miss(tmp_path, monkeypatch):
    store = ResultCache(tmp_path)
    key = ResultCache.key("digest", "codim", {"n": 2}, "tsv")
    with monkeypatch.context() as patch:
        patch.setattr(cache, "engine_version", lambda: "0" * 64)
        store.store(key, "digest", "codim", {"n": 2}, "old payload\n")
        assert store.lookup(key) == ("old payload\n", 0)
    assert store.lookup(key) is None
    store.store(key, "digest", "codim", {"n": 2}, "new payload\n", 1)
    assert store.lookup(key) == ("new payload\n", 1)


def test_concurrent_stores_of_one_key_leave_one_valid_entry(tmp_path):
    store = ResultCache(tmp_path)
    key = ResultCache.key("digest", "cochar", {"n": 4}, "json")
    payloads = [f"payload {i}\n" * 2000 for i in range(4)]
    errors = []

    def writer(payload):
        try:
            for _ in range(20):
                store.store(key, "digest", "cochar", {"n": 4}, payload)
        except OSError as exc:  # a writer whose temporary file another one moved
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside store()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
    header, body = (tmp_path / f"{key}.json").read_text(encoding="utf-8").split("\n", 1)
    assert len(body) == json.loads(header)["payload_length"]
    payload, code = store.lookup(key)
    assert payload in payloads and code == 0


def test_a_non_ascii_payload_round_trips_byte_for_byte(tmp_path):
    store = ResultCache(tmp_path)
    key = ResultCache.key("digest", "codim", {"n": 2}, "tsv")
    payload = "# algebra: ut2-réflexion\r\n😀\tπ\rend\n"
    store.store(key, "digest", "codim", {"n": 2}, payload, 1)
    raw = (tmp_path / f"{key}.json").read_bytes()
    assert raw.endswith(b"\n" + payload.encode("utf-8"))
    assert store.lookup(key) == (payload, 1)

