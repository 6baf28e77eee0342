"""On-disk cache for rendered reports.

Entries are keyed by (algebra digest, operation, parameters, output format)
and invalidated by engine version, a fingerprint of the package's sources:
an entry written by any other code is ignored and recomputed.  A corrupt
entry is never fatal — it produces a warning on stderr and a recompute.

An entry is a UTF-8 file of one line of JSON, the header (engine version,
algebra digest, operation, parameters, exit code and the payload's length
in characters), followed by the rendered payload verbatim, so a replay
neither escapes nor parses the report.  A payload of another length than
its header states, e.g. one cut short, counts as corrupt.
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
            # the entry is read once, as bytes; only a line feed ends the
            # header, and the payload is decoded from a view of the rest,
            # not from a copy of it
            with open(path, "rb") as fh:
                data = fh.read()
            end = data.find(b"\n")
            end = len(data) if end < 0 else end
            line, payload = data[:end].decode("utf-8"), str(memoryview(data)[end + 1 :], "utf-8")
            header = json.loads(line)
            if not isinstance(header, dict):
                raise ValueError("header is not an object")
            if header.get("engine_version") != engine_version():
                return None  # stale: written by another build
            code, length = header["exit_code"], header["payload_length"]
            if not isinstance(code, int) or not isinstance(length, int):
                raise ValueError("exit_code/payload_length have wrong types")
            if len(payload) != length:
                raise ValueError(f"payload has {len(payload)} characters, not {length}")
            return payload, code
        except (ValueError, KeyError, OSError) as exc:
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
        header = {
            "engine_version": engine_version(),
            "algebra": digest,
            "operation": operation,
            "params": params,
            "exit_code": exit_code,
            "payload_length": len(payload),
        }
        # a temporary file of its own per writer, so concurrent stores of
        # one key never interleave; os.replace makes the entry appear whole
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(json.dumps(header, sort_keys=True) + "\n")
                fh.write(payload)
            os.replace(tmp, self._path(key))
        except BaseException:
            os.unlink(tmp)
            raise


def cache_from_environment(explicit: str | None) -> ResultCache | None:
    """Cache directory from --cache or the GPW_CACHE variable, if any."""
    directory = explicit or os.environ.get("GPW_CACHE")
    return ResultCache(directory) if directory else None
