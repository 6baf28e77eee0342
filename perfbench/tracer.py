"""Layer spans for gpw, recorded from outside the package.

``Tracer.install`` replaces gpw's public functions, including the names one
module imports from another (``gpw.cli.cocharacter_table``,
``gpw.classify.is_identity``, ...), with wrappers that record a span per
call: layer name, start, end, parent span and job.  ``uninstall`` puts the
originals back, so untraced rounds run gpw unmodified.  A name that a later
version of gpw no longer has is reported as absent and skipped.

A layer's self time is its spans' durations minus the time covered by the
spans they enclose.  Time inside a job that no wrapped layer covers is the
self time of the job's root span (``trace.uncovered_s``).  Spans keep the
raw seconds; the totals are scaled per job by ``close_job`` (to reference
host speed, see calibration.py).
"""

from __future__ import annotations

import importlib
import json
import time

# layer -> the attributes that carry it; "Class.method" patches a method
LAYERS: dict[str, list[tuple[str, str]]] = {
    "evaluator.build": [
        ("gpw.evaluator", "build_evaluation_matrix"),
        ("gpw.classify", "build_evaluation_matrix"),
    ],
    "evaluator.cochar": [
        ("gpw.evaluator", "cocharacter_table"),
        ("gpw.cli", "cocharacter_table"),
        ("gpw.classify", "cocharacter_table"),
    ],
    "evaluator.codim": [
        ("gpw.evaluator", "total_codimension"),
        ("gpw.evaluator", "slice_codimension"),
        ("gpw.cli", "total_codimension"),
    ],
    "evaluator.multiplicity": [
        ("gpw.evaluator", "multiplicity"),
        ("gpw.classify", "multiplicity"),
    ],
    "evaluator.identity": [
        ("gpw.evaluator", "is_identity"),
        ("gpw.classify", "is_identity"),
        ("gpw.cli", "is_identity"),
    ],
    "evaluator.grid": [
        ("gpw.evaluator", "is_identity_grid"),
        ("gpw.classify", "is_identity_grid"),
    ],
    "linalg.rank": [
        ("gpw.linalg", "exact_rank"),
        ("gpw.evaluator", "exact_rank"),
    ],
    "linalg.modular": [("gpw.linalg", "rank_mod_p")],
    "linalg.nullspace": [
        ("gpw.linalg", "nullspace"),
        ("gpw.evaluator", "nullspace"),
        ("gpw.algebras", "nullspace"),
    ],
    "polynomials.hwv": [
        ("gpw.polynomials", "highest_weight_vector"),
        ("gpw.evaluator", "highest_weight_vector"),
        ("gpw.classify", "highest_weight_vector"),
    ],
    "polynomials.multilinearize": [
        ("gpw.polynomials", "multilinearize"),
        ("gpw.evaluator", "multilinearize"),
        ("gpw.classify", "multilinearize"),
    ],
    "shapes.tableaux": [
        ("gpw.shapes", "standard_multitableaux"),
        ("gpw.shapes", "all_multitableaux"),
        ("gpw.evaluator", "standard_multitableaux"),
        ("gpw.evaluator", "all_multitableaux"),
    ],
    "classify.reports": [
        ("gpw.classify", "bounded_multiplicity_report"),
        ("gpw.classify", "star_multone_report"),
        ("gpw.classify", "verify_multone_lemmas"),
        ("gpw.classify", "find_sandwich_identity"),
        ("gpw.cli", "bounded_multiplicity_report"),
        ("gpw.cli", "star_multone_report"),
        ("gpw.cli", "verify_multone_lemmas"),
    ],
    "cache.lookup": [("gpw.cache", "ResultCache.lookup")],
    "cache.store": [("gpw.cache", "ResultCache.store")],
    "reports.render": [("gpw.reports", "render"), ("gpw.cli", "render")],
    "documents.load": [("gpw.documents", "load_algebra"), ("gpw.cli", "load_algebra")],
}

ROOT = "cli.main"

# per-layer metrics: self time of every layer, plus these counters
COUNTERS = {
    "evaluator.build_calls": "evaluator.build",
    "evaluator.identity_calls": "evaluator.identity",
    "linalg.rank_calls": "linalg.rank",
    "polynomials.hwv_calls": "polynomials.hwv",
}
EXTRA_COUNTS = (
    "evaluator.rows",
    "evaluator.nonzero_rows",
    "linalg.bareiss_fallbacks",
    "polynomials.polarized_terms",
    "shapes.tableaux",
    "cache.hits",
    "cache.misses",
)


def _count_result(tracer: "Tracer", layer: str, frame: dict, result) -> None:
    """Counters read off a layer call's arguments and result."""
    counts = tracer.counts
    if layer == "evaluator.build":
        counts["evaluator.rows"] += len(result.rows)
        counts["evaluator.nonzero_rows"] += sum(1 for row in result.rows if any(row))
    elif layer == "linalg.modular" and tracer._stack:
        # the kernel sees exact_rank's nonzero integer rows; a modular rank
        # below min(rows, cols) sends exact_rank on to Bareiss
        tracer._stack[-1]["fallback"] = result < min(frame["args"][0].shape)
    elif layer == "linalg.rank":
        counts["linalg.bareiss_fallbacks"] += frame.get("fallback", False)
    elif layer == "polynomials.multilinearize":
        counts["polynomials.polarized_terms"] += len(result.terms)
    elif layer == "shapes.tableaux":
        counts["shapes.tableaux"] += len(result)
    elif layer == "cache.lookup":
        counts["cache.hits" if result is not None else "cache.misses"] += 1


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self.job = None
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Forget the spans and totals recorded so far."""
        self.spans = []
        self.self_time = {layer: 0.0 for layer in [*LAYERS, ROOT]}
        self._job_time = dict(self.self_time)
        self.calls = {layer: 0 for layer in [*LAYERS, ROOT]}
        self.counts = {name: 0 for name in EXTRA_COUNTS}

    # -- spans -------------------------------------------------------------------

    def _enter(self, layer: str, args=()) -> dict:
        frame = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "layer": layer,
            "args": args,
            "children": 0.0,
        }
        self._next_id += 1
        self._stack.append(frame)
        frame["start"] = time.perf_counter()
        return frame

    def _exit(self, frame: dict) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame["start"]
        if self._stack:
            self._stack[-1]["children"] += duration
        layer = frame["layer"]
        self._job_time[layer] += duration - frame["children"]
        self.calls[layer] += 1
        self.spans.append(
            {
                "job": self.job,
                "id": frame["id"],
                "parent": frame["parent"],
                "layer": layer,
                "start": frame["start"],
                "end": end,
                "self": duration - frame["children"],
            }
        )

    def run_job(self, job: int, fn, *args):
        """Run one job under a root span."""
        self.job = job
        frame = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(frame)
            self.job = None

    def close_job(self, scale: float) -> None:
        """Add the self times recorded since the last call, times ``scale``."""
        for layer, seconds in self._job_time.items():
            self.self_time[layer] += seconds * scale
            self._job_time[layer] = 0.0

    def _wrap(self, layer: str, original):
        def traced(*args, **kwargs):
            frame = self._enter(layer, args)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(frame)
            counting = time.perf_counter()
            _count_result(self, layer, frame, result)
            if self._stack:
                # counting is tracing overhead: keep it out of the caller's self time
                self._stack[-1]["children"] += time.perf_counter() - counting
            return result

        traced.__wrapped__ = original
        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for layer, targets in LAYERS.items():
            for module_name, attribute in targets:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    self.absent.append(f"{module_name}.{attribute}")
                    continue
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, name, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(f"{module_name}.{attribute}")
                    continue
                setattr(owner, name, self._wrap(layer, original))
                self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    # -- output ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals since the last reset."""
        out = {f"{layer}_s": self.self_time[layer] for layer in LAYERS}
        out["trace.uncovered_s"] = self.self_time[ROOT]
        for name, layer in COUNTERS.items():
            out[name] = self.calls[layer]
        out.update(self.counts)
        out["trace.absent"] = len(self.absent)
        return out

    def write(self, path, round_index: int) -> None:
        """Append this round's spans to a JSON lines file."""
        with open(path, "a") as fh:
            fh.write(json.dumps({"round": round_index, "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps({"round": round_index, **span}) + "\n")
