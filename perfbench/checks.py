"""Correctness checks on the reports a workload's jobs print.

Every check works from the report text and the job that produced it, and
recomputes what it can through the independent models in reference.py:
slice codimensions, identity verdicts, witnesses, commutation lists and
lemma hypotheses.  What it cannot recompute cheaply (the multiplicities
themselves) it checks against properties every correct report has: per
composition the multiplicity-weighted degrees add up to the slice
codimension, the total is the multinomial-weighted sum of the slices, a
SATISFIED star algebra shows no multiplicity above 1, and a replay from
the cache is byte-identical to the computed report.

``check_outputs`` returns a list of error messages; empty means correct.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from fractions import Fraction
from math import prod

import reference as ref

C1, C2, C4 = ref.Group.cyclic(1), ref.Group.cyclic(2), ref.Group.cyclic(4)
C2XC2 = ref.Group.of_product(2, 2)
C2XC2XC2 = ref.Group.of_product(2, 2, 2)

# independent model of each document in workloads.DOCUMENTS
MODELS = {
    "k_c2.json": ref.k_algebra(C2, "g"),
    "k_c4.json": ref.k_algebra(C4, "g2"),
    "ut2_c2.json": ref.ut2(C2, "g"),
    "ut2_trivial.json": ref.ut2(C1, "1"),
    "e2_c2xc2.json": ref.grassmann2(C2XC2, "(0,1)", "(1,0)"),
    "e2_c4.json": ref.grassmann2(C4, "g", "g2"),
    "e2_c2xc2xc2.json": ref.grassmann2(C2XC2XC2, "(0,0,1)", "(0,1,0)"),
    "ut2_reflection.json": ref.ut2_reflection(C2, "g"),
}


class Errors(list):
    def expect(self, condition, message: str) -> bool:
        if not condition:
            self.append(message)
        return bool(condition)


def _split_top(text: str) -> list[str]:
    """Split at commas outside parentheses."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return out


def parse_shape(text: str, model: ref.Model) -> tuple[tuple[int, ...], ...]:
    """``((2,1)@1,(1)@g)`` (graded) or ``((2)@1+,(1)@g-)`` (star) as one
    partition per slot."""
    slots = model.slots()
    components = [()] * len(slots)
    inner = text[1:-1]
    for chunk in _split_top(inner) if inner else []:
        close = chunk.index(")")
        parts = tuple(int(p) for p in chunk[1:close].split(","))
        label, kind = chunk[close + 2 :], "x"
        if model.star is not None:
            label, kind = label[:-1], "y" if label[-1] == "+" else "z"
        components[slots.index((label, kind))] = parts
    return tuple(components)


def shape_degree(shape) -> int:
    return prod(ref.standard_tableaux_count(lam) for lam in shape)


def _n_of(job) -> int:
    return int(job["argv"][job["argv"].index("--n") + 1])


def _slices_agree(errors, model, slices: dict, rng, where: str) -> None:
    for comp, reported in slices.items():
        computed = ref.slice_codimension(model, comp, rng)
        errors.expect(
            computed == reported,
            f"{where}: slice codimension of {comp} is {reported}, independent evaluation gives {computed}",
        )


def _ut2_trivial_total(errors, model, n, total, where) -> None:
    if model.name == "ut2" and len(model.group.labels) == 1:
        expected = 2 ** (n - 1) * (n - 2) + 2
        errors.expect(total == expected, f"{where}: c_{n}(ut2) = {total}, expected {expected}")


def check_cochar(errors, job, report, model, rng) -> None:
    where = f"cochar {job['document']} n={_n_of(job)}"
    n = _n_of(job)
    meta = report["meta"]
    errors.expect(meta["command"] == "cochar" and meta["n"] == n, f"{where}: wrong meta {meta}")
    errors.expect(meta["slots"] == model.slot_legend(), f"{where}: slot legend {meta['slots']}")
    comps = ref.compositions(n, len(model.slots()))
    slices = {tuple(e["composition"]): e["slice_codim"] for e in report["slice_codims"]}
    if not errors.expect(list(slices) == comps, f"{where}: compositions are not those of {n}"):
        return
    weighted = defaultdict(int)
    for entry in report["support"]:
        shape = parse_shape(entry["shape"], model)
        d = shape_degree(shape)
        m = entry["multiplicity"]
        errors.expect(entry["degree"] == d, f"{where}: degree of {entry['shape']} is {d}")
        errors.expect(m >= 1, f"{where}: support entry {entry['shape']} has multiplicity {m}")
        errors.expect(sum(map(sum, shape)) == n, f"{where}: {entry['shape']} is not of size {n}")
        weighted[tuple(sum(lam) for lam in shape)] += m * d
    for comp in comps:
        errors.expect(
            weighted[comp] == slices[comp],
            f"{where}: {comp}: sum of m*d is {weighted[comp]}, slice codimension {slices[comp]}",
        )
    total = sum(ref.multinomial(c) * slices[c] for c in comps)
    errors.expect(
        report["total"] == total == meta["total_codim"],
        f"{where}: total {report['total']} / {meta['total_codim']}, weighted slices give {total}",
    )
    top = max((e["multiplicity"] for e in report["support"]), default=0)
    errors.expect(meta["max_multiplicity"] == top, f"{where}: max_multiplicity {meta['max_multiplicity']}")
    rows = [[e["shape"], e["multiplicity"], e["degree"]] for e in report["support"]]
    errors.expect(report["table"][1:] == rows, f"{where}: table differs from support")
    _ut2_trivial_total(errors, model, n, total, where)
    _slices_agree(errors, model, slices, rng, where)


def check_codim(errors, job, report, model, rng) -> None:
    n = _n_of(job)
    where = f"codim {job['document']} n={n}"
    comps = ref.compositions(n, len(model.slots()))
    entries = report["entries"]
    slices = {tuple(e["composition"]): e["slice_codim"] for e in entries}
    if not errors.expect(list(slices) == comps, f"{where}: compositions are not those of {n}"):
        return
    for e in entries:
        comp = tuple(e["composition"])
        errors.expect(e["weight"] == ref.multinomial(comp), f"{where}: weight of {comp} is {e['weight']}")
    total = sum(ref.multinomial(c) * slices[c] for c in comps)
    errors.expect(
        report["total"] == total == report["meta"]["total"],
        f"{where}: total {report['total']}, weighted slices give {total}",
    )
    _ut2_trivial_total(errors, model, n, total, where)
    _slices_agree(errors, model, slices, rng, where)


def _sandwich(identity: str, grade: str, n: int):
    x1, x2 = ("x", 1, identity), ("x", 2, grade)
    return [(x1,) * (i - 1) + (x2,) + (x1,) * (n - i) for i in range(1, n + 1)]


def check_classify_bounded(errors, job, report, model, rng, context) -> None:
    where = f"classify-bounded {job['document']}"
    meta, group = report["meta"], model.group
    n_max = meta["n_max"]
    findings = report["findings"]
    errors.expect([f["grade"] for f in findings] == group.labels, f"{where}: grades {findings}")
    for f in findings:
        grade = f["grade"]
        if f["witness"] is None:
            lower = range(2, n_max + 1)
        else:
            n = f["witness_degree"]
            coeffs = [Fraction(c) for c in f["coefficients"]]
            poly = [(c, w) for c, w in zip(coeffs, _sandwich(group.identity, grade, n)) if c]
            errors.expect(len(coeffs) == n and poly, f"{where}: witness for {grade} is empty")
            errors.expect(
                ref.is_identity(model, poly, rng),
                f"{where}: witness {f['witness']} for grade {grade} is not an identity",
            )
            excludes = not ref.is_identity(ref.ut2(group, grade), poly, rng)
            errors.expect(f["excludes_ut2"] == excludes, f"{where}: excludes_ut2 wrong for {grade}")
            lower = range(2, n)
        for d in lower:
            polys = [[(1, w)] for w in _sandwich(group.identity, grade, d)]
            rank = ref.span_rank(model, polys, rng, points=d + 4)
            errors.expect(rank == d, f"{where}: grade {grade} has a sandwich identity at degree {d}")
    verdict = "BOUNDED" if all(f["witness"] is not None for f in findings) else "UNDECIDED-AT-CAP"
    errors.expect(report["verdict"] == meta["verdict"] == verdict, f"{where}: verdict {report['verdict']}")
    errors.expect(
        context["code"] == (0 if verdict == "BOUNDED" else 1), f"{where}: exit code {context['code']}"
    )
    for n, other in context["cochar"].items():
        if n <= n_max:
            errors.expect(
                meta["empirical_max_multiplicity"] >= other["meta"]["max_multiplicity"],
                f"{where}: empirical maximum below the cochar report at n={n}",
            )


def _coefficients(model, rng, u, v) -> str:
    valid = [
        a
        for a in (0, 1, -1)
        if ref.is_identity(model, [(1, (u, v))] + ([(a, (v, u))] if a else []), rng)
    ]
    return ",".join(str(a) for a in valid) or "-"


def check_classify_multone(errors, job, report, model, rng, context) -> None:
    where = f"classify-multone {job['document']}"
    meta, labels = report["meta"], model.group.labels
    rows = []
    for g in labels:
        for h in labels:
            if g == h:
                continue
            for k1 in "yz":
                for k2 in "yz":
                    coeffs = _coefficients(model, rng, (k1, 1, g), (k2, 2, h))
                    rows.append(["pair", f"{g},{h}", k1 + k2, coeffs])
    for g in labels:
        rows.append(["same-grade", g, "yz", _coefficients(model, rng, ("y", 1, g), ("z", 2, g))])
    satisfied = all(row[3] != "-" for row in rows)
    verdict = "SATISFIED" if satisfied else "NOT-SATISFIED"
    table = report["table"]
    errors.expect(table[1 : 1 + len(rows)] == rows, f"{where}: commutation lists differ")
    errors.expect(report["verdict"] == meta["verdict"] == verdict, f"{where}: verdict {report['verdict']}")
    errors.expect(context["code"] == (0 if satisfied else 1), f"{where}: exit code {context['code']}")
    empirical = meta["empirical_max_multiplicity"]
    for n, other in context["cochar"].items():
        top = other["meta"]["max_multiplicity"]
        if n <= meta["n_max"]:
            errors.expect(empirical >= top, f"{where}: empirical maximum below the cochar report at n={n}")
        if satisfied:
            errors.expect(top <= 1, f"{where}: SATISFIED but the cochar report at n={n} has multiplicity {top}")
    if satisfied:
        errors.expect(empirical <= 1, f"{where}: SATISFIED with empirical multiplicity {empirical}")


def _lemma_rows(model, rng, n_max):
    """(criterion, grade, kind, hypothesis holds, degrees) in report order."""
    group = model.group

    def holds(*polys):
        return all(ref.is_identity(model, p, rng) for p in polys)

    def upto(degrees):
        return [d for d in degrees if d <= n_max]

    rows = []
    for g in group.labels:
        if g == group.identity:
            continue
        g2 = group.mul(g, g)
        for kind in "yz":
            u1, u2, u3, u4 = ((kind, i, g) for i in range(1, 5))
            bridge = holds([(1, (("y", 1, g2), u2))]) or holds([(1, (("z", 1, g2), u2))])
            cyc = [(1, (u1, u3, u2)), (1, (u2, u3, u1))]
            interlock = [(1, (u1, u2, u4, u3)), (1, (u2, u4, u3, u1))]
            rot = [(1, (u1, u3, u2)), (-1, (u2, u1, u3))]
            rows += [
                ("vanishing-bridge", g, kind, bridge, upto(range(3, n_max + 1))),
                ("cyclic-three", g, kind, holds(cyc), upto([3])),
                ("interlock-four", g, kind, holds(cyc, interlock), upto([4])),
                ("interlock-high", g, kind, holds(cyc, interlock), upto(range(5, n_max + 1))),
                ("rotation", g, kind, holds(rot), upto(range(3, n_max + 1))),
            ]
    return rows


def _one_slot_max(model, report, grade, kind) -> int:
    slot = model.slots().index((grade, kind))
    best = 0
    for entry in report["support"]:
        shape = parse_shape(entry["shape"], model)
        if all(not lam for i, lam in enumerate(shape) if i != slot):
            best = max(best, entry["multiplicity"])
    return best


def check_verify_lemmas(errors, job, report, model, rng, context) -> None:
    where = f"verify-lemmas {job['document']}"
    n_max = report["meta"]["n_max"]
    table = report["table"][1:]
    expected = _lemma_rows(model, rng, n_max)
    if not errors.expect(len(table) == len(expected) + 1, f"{where}: {len(table)} rows"):
        return
    violations = 0
    for row, (criterion, grade, kind, holds, degrees) in zip(table, expected):
        what = f"{where}: {criterion} {grade} {kind}"
        errors.expect(row[:4] == [criterion, grade, kind, str(holds).lower()], f"{what}: row {row}")
        errors.expect(row[4] == (",".join(map(str, degrees)) or "-"), f"{what}: degrees {row[4]}")
        if not (holds and degrees):
            errors.expect(row[5] == "-" and row[6] == "-", f"{what}: concluded without hypothesis")
            continue
        best = row[6]
        errors.expect(row[5] == str(best <= 1).lower(), f"{what}: conclusion {row[5]} with maximum {best}")
        violations += row[5] == "false"
        if all(d in context["cochar"] for d in degrees):
            computed = max(_one_slot_max(model, context["cochar"][d], grade, kind) for d in degrees)
            errors.expect(best == computed, f"{what}: maximum {best}, cochar reports give {computed}")
    errors.expect(table[-1][:2] == ["violations", violations], f"{where}: violations row {table[-1]}")
    errors.expect(context["code"] == (3 if violations else 0), f"{where}: exit code {context['code']}")


def check_identity(errors, job, report, model, rng, context) -> None:
    where = f"identity {job['document']} {job['argv'][2][:60]}"
    poly = [(c, tuple(tuple(v) for v in word)) for c, word in job["poly"]]
    verdict = ref.is_identity(model, poly, rng)
    errors.expect(
        verdict == job["expect_identity"],
        f"{where}: generated as {'an identity' if job['expect_identity'] else 'a non-identity'}"
        f" but evaluates as {'one' if verdict else 'none'}",
    )
    errors.expect(report["is_identity"] == verdict, f"{where}: gpw says {report['is_identity']}")
    errors.expect(context["code"] == (0 if verdict else 1), f"{where}: exit code {context['code']}")


CHECKS = {
    "classify-bounded": check_classify_bounded,
    "classify-multone": check_classify_multone,
    "verify-lemmas": check_verify_lemmas,
    "identity": check_identity,
}


def check_outputs(jobs, outputs, seed: int) -> list[str]:
    """Check one round's outputs (``{"stdout", "code", "error"}`` per job)."""
    errors = Errors()
    rng = random.Random(f"check:{seed}")
    reports = {}
    for job, out in zip(jobs, outputs):
        if out["error"] is not None:
            continue  # counted as a failed operation, not as a wrong answer
        if job["replay_of"] is not None:
            first = outputs[job["replay_of"]]
            errors.expect(
                (out["stdout"], out["code"]) == (first["stdout"], first["code"]),
                f"replay of {' '.join(job['argv'][:2])} differs from the computed report",
            )
            continue
        try:
            reports[job["id"]] = json.loads(out["stdout"])
        except json.JSONDecodeError as exc:
            errors.append(f"{' '.join(job['argv'][:2])}: stdout is not JSON ({exc})")
    cochar = defaultdict(dict)
    for job in jobs:
        if job["id"] in reports and job["kind"] in ("cochar", "codim"):
            model = MODELS[job["document"]]
            check = check_cochar if job["kind"] == "cochar" else check_codim
            _guarded(errors, check, job, reports[job["id"]], model, rng)
            if job["kind"] == "cochar":
                cochar[job["document"]][_n_of(job)] = reports[job["id"]]
    for job, out in zip(jobs, outputs):
        if job["id"] in reports and job["kind"] in CHECKS:
            context = {"code": out["code"], "cochar": cochar[job["document"]]}
            model = MODELS[job["document"]]
            _guarded(errors, CHECKS[job["kind"]], job, reports[job["id"]], model, rng, context)
    return errors


def _guarded(errors, check, job, report, *args) -> None:
    """A report missing a field or of the wrong shape is wrong, not a crash."""
    try:
        check(errors, job, report, *args)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        errors.append(f"{' '.join(job['argv'][:2])}: malformed report ({type(exc).__name__}: {exc})")
