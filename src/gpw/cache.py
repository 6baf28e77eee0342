"""On-disk cache for rendered reports.

Entries are keyed by (algebra digest, operation, parameters, output format)
and invalidated by engine version, a fingerprint of the package's sources:
an entry written by any other code is ignored and recomputed.  A corrupt
entry is never fatal — it produces a warning on stderr and a recompute.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path


@functools.cache
def engine_version() -> str:
    """sha256 over the names and contents of the package's ``.py`` files;
    computed on first use, once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class ResultCache:
    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(digest: str, operation: str, params: dict, fmt: str) -> str:
        blob = json.dumps(
            {
                "algebra": digest,
                "operation": operation,
                "params": params,
                "format": fmt,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def lookup(self, key: str) -> tuple[str, int] | None:
        """Stored (payload, exit code), or None on miss/stale/corrupt."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
            if entry.get("engine_version") != engine_version():
                return None  # stale: written by another build
            payload = entry["payload"]
            code = entry["exit_code"]
            if not isinstance(payload, str) or not isinstance(code, int):
                raise ValueError("payload/exit_code have wrong types")
            return payload, code
        except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
            print(
                f"warning: ignoring corrupt cache entry {path.name}: {exc}",
                file=sys.stderr,
            )
            return None

    def store(
        self,
        key: str,
        digest: str,
        operation: str,
        params: dict,
        payload: str,
        exit_code: int = 0,
    ) -> None:
        entry = {
            "engine_version": engine_version(),
            "algebra": digest,
            "operation": operation,
            "params": params,
            "payload": payload,
            "exit_code": exit_code,
        }
        # a temporary file of its own per writer, so concurrent stores of
        # one key never interleave; os.replace makes the entry appear whole
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry, sort_keys=True, indent=2))
            os.replace(tmp, self._path(key))
        except BaseException:
            os.unlink(tmp)
            raise


def cache_from_environment(explicit: str | None) -> ResultCache | None:
    """Cache directory from --cache or the GPW_CACHE variable, if any."""
    directory = explicit or os.environ.get("GPW_CACHE")
    return ResultCache(directory) if directory else None
