"""Command line interface.

Exit codes: 0 success (and positive verdicts), 1 negative verdicts
(not an identity / unwitnessed / lists unsatisfied), 2 input errors,
an ``--out`` or ``--cache`` that cannot be written included, 3 internal
consistency violations.

Reports are byte-deterministic for fixed input and flags; timing goes to
stderr only.  Heavy commands can replay from a results cache given via
``--cache DIR`` or the ``GPW_CACHE`` environment variable.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, limits, modes
from .algebras import (
    GradedStarAlgebra,
    builtin_grassmann2,
    builtin_k,
    builtin_ut2,
)
from .cache import cache_from_environment
from .classify import (
    bounded_multiplicity_report,
    star_multone_report,
    verify_multone_lemmas,
)
from .documents import algebra_digest, dumps_algebra, load_algebra
from .errors import CapExceeded, ConsistencyViolation, InputError, PreconditionViolation
from .evaluator import cocharacter_table, is_identity, total_codimension
from .groups import parse_group_shorthand
from .polynomials import parse_poly
from .reports import Records, format_composition, format_shape, render, slot_legend
from .shapes import composition_array, multinomials


def _meta(command: str, algebra: GradedStarAlgebra, **extra) -> dict:
    meta = {
        "command": command,
        "engine": f"gpw {__version__}",
        "algebra": algebra.name,
        "digest": algebra_digest(algebra),
    }
    meta.update(extra)
    return meta


def _emit(args, payload: str) -> None:
    """Write the report as UTF-8, to ``--out`` or to stdout whatever the
    locale; a stdout without a byte buffer (a ``StringIO``) takes the text."""
    if getattr(args, "out", None):
        Path(args.out).write_text(payload, encoding="utf-8")
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(payload.encode("utf-8"))
    else:
        sys.stdout.write(payload)


# -- commands -------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        algebra = load_algebra(args.file)
    except InputError as exc:
        payload = render(
            {
                "meta": {"command": "validate", "engine": f"gpw {__version__}"},
                "table": [
                    ["status", "invalid"],
                    ["violation", type(exc).__name__, str(exc)],
                ],
                "violations": [
                    {"type": type(exc).__name__, "message": str(exc)}
                ],
            },
            args.json,
        )
        _emit(args, payload)
        return 2
    payload = render(
        {
            "meta": _meta("validate", algebra, mode=algebra.mode),
            "table": [["status", "valid"], ["mode", algebra.mode], ["dim", algebra.dim]],
        },
        args.json,
    )
    _emit(args, payload)
    return 0


# -- report commands: one table, one runner -----------------------------------------


def _codim(args, algebra):
    total, breakdown = total_codimension(algebra, args.n)
    comps = composition_array(args.n, modes.slot_count(len(algebra.group), algebra.mode))
    codims, weights = list(breakdown.values()), multinomials(comps)
    table = [["composition", "slice_codim", "weight", "contribution"]]
    table += (
        [format_composition(comp), c, w, w * c]
        for comp, c, w in zip(breakdown, codims, weights.tolist())
    )
    table.append(["TOTAL", "", "", total])
    meta = {"n": args.n, "slots": slot_legend(algebra.group, algebra.mode), "total": total}
    entries = Records(("composition", "slice_codim", "weight"), (comps, codims, weights))
    return meta, table, {"entries": entries, "total": total}, 0


def _cochar(args, algebra):
    table_obj = cocharacter_table(algebra, args.n)
    group, mode = algebra.group, algebra.mode
    table = [["shape", "multiplicity", "degree"]]
    table += (
        [format_shape(shape, group, mode), m, shape.degree()] for shape, m in table_obj.support()
    )
    meta = {
        "n": args.n,
        "slots": slot_legend(group, mode),
        "total_codim": table_obj.total_codim,
        "max_multiplicity": table_obj.max_multiplicity(),
    }
    if not args.json:
        return meta, table, {}, 0
    extras = {
        "support": Records(tuple(table[0]), tuple(zip(*table[1:]))),
        "slice_codims": Records(("composition", "slice_codim"), table_obj.slice_codim_columns()),
        "total": table_obj.total_codim,
    }
    return meta, table, extras, 0


def _identity(args, algebra):
    poly = parse_poly(args.poly, algebra.mode, algebra.group)
    if poly.is_zero:
        raise InputError("the zero polynomial is trivially an identity; nothing to test")
    verdict = is_identity(poly, algebra)
    table = [["is_identity", str(verdict).lower()]]
    return {"poly": args.poly}, table, {"is_identity": verdict}, 0 if verdict else 1


def _classify_bounded(args, algebra):
    report = bounded_multiplicity_report(algebra, args.n_max)
    group = algebra.group
    table = [["grade", "witness_degree", "witness", "excludes_ut2"]]
    findings = []
    for f in report.findings:
        if f.witness is None:
            table.append([group.label(f.grade), "-", "-", "-"])
            findings.append({"grade": group.label(f.grade), "witness": None})
        else:
            text = f.witness.poly(algebra).display(group)
            table.append(
                [group.label(f.grade), f.witness.n, text, str(f.excludes_ut2).lower()]
            )
            findings.append(
                {
                    "grade": group.label(f.grade),
                    "witness_degree": f.witness.n,
                    "witness": text,
                    "coefficients": [str(c) for c in f.witness.coefficients],
                    "excludes_ut2": f.excludes_ut2,
                }
            )
    table.append(["verdict", report.verdict, "", ""])
    table.append(["empirical_max_multiplicity", report.empirical_max_multiplicity, "", ""])
    meta = {
        "n_max": args.n_max,
        "verdict": report.verdict,
        "empirical_max_multiplicity": report.empirical_max_multiplicity,
    }
    extras = {"findings": findings, "verdict": report.verdict}
    return meta, table, extras, 0 if report.verdict == "BOUNDED" else 1


def _classify_multone(args, algebra):
    report = star_multone_report(algebra, empirical_n=args.n_max)
    group = algebra.group
    table = [["list", "grades", "kinds", "coefficients"]]
    for f in report.pair_findings:
        g, h = f.grade_pair
        coeffs = ",".join(str(c) for c in f.valid_coefficients) or "-"
        table.append(
            ["pair", f"{group.label(g)},{group.label(h)}", "".join(f.kinds), coeffs]
        )
    for f in report.same_grade_findings:
        coeffs = ",".join(str(c) for c in f.valid_coefficients) or "-"
        table.append(["same-grade", group.label(f.grade), "yz", coeffs])
    table.append(["verdict", report.verdict, "", ""])
    table.append(
        [
            "empirical_max_multiplicity",
            report.empirical_max_multiplicity,
            f"n<={report.empirical_n}",
            "",
        ]
    )
    meta = {
        "n_max": args.n_max,
        "verdict": report.verdict,
        "empirical_max_multiplicity": report.empirical_max_multiplicity,
    }
    code = 0 if report.verdict == "SATISFIED" else 1
    return meta, table, {"verdict": report.verdict}, code


def _verify_lemmas(args, algebra):
    report = verify_multone_lemmas(algebra, args.n_max)
    group = algebra.group
    table = [
        [
            "criterion",
            "grade",
            "kind",
            "hypothesis_holds",
            "degrees",
            "conclusion_holds",
            "max_multiplicity",
        ]
    ]
    for f in report.findings:
        table.append(
            [
                f.criterion,
                group.label(f.grade),
                f.kind,
                str(f.hypothesis_holds).lower(),
                ",".join(str(d) for d in f.degrees_checked) or "-",
                "-" if f.conclusion_holds is None else str(f.conclusion_holds).lower(),
                "-" if f.max_multiplicity is None else f.max_multiplicity,
            ]
        )
    violations = report.violations()
    table.append(["violations", len(violations), "", "", "", "", ""])
    meta = {"n_max": args.n_max, "violations": len(violations)}
    return meta, table, {}, 3 if violations else 0


class Report(NamedTuple):
    """One report command.  ``compute(args, algebra)`` returns the meta
    entries, the TSV table, the further JSON fields and the exit code; it
    runs only when the cache has no entry under ``cache_params``."""

    name: str
    help: str
    n_max: int | None  # default --n-max; None: the command takes none
    arguments: tuple[tuple[str, dict], ...]
    cache_params: tuple[str, ...]
    compute: Callable


DEGREE = ("--n", {"type": int, "required": True})

REPORTS = (
    Report("codim", "slice and total codimensions at degree n", 5, (DEGREE,), ("n",), _codim),
    Report("cochar", "cocharacter support at degree n", 5, (DEGREE,), ("n",), _cochar),
    Report(
        "identity",
        "test whether an expression is an identity",
        None,
        (("--poly", {"required": True}),),
        ("poly",),
        _identity,
    ),
    Report(
        "classify-bounded",
        "search sandwich witnesses per grade; verdict BOUNDED or UNDECIDED-AT-CAP",
        5,
        (),
        ("n_max",),
        _classify_bounded,
    ),
    Report(
        "classify-multone",
        "scan pairwise commutation lists on a star algebra",
        3,
        (),
        ("n_max",),
        _classify_multone,
    ),
    Report(
        "verify-lemmas",
        "re-verify the single-slot multiplicity-one criteria",
        4,
        (),
        ("n_max",),
        _verify_lemmas,
    ),
)


def run_report(report: Report, args) -> int:
    """Load, cap, replay from the cache or compute, render, emit."""
    algebra = load_algebra(args.file)
    if report.n_max is not None:
        limits.check_degree(args.n_max)
        n = getattr(args, "n", None)
        if n is not None and n > args.n_max:
            raise CapExceeded(
                f"n={n} above the cap {args.n_max}; raise it with --n-max "
                f"(hard maximum {limits.HARD_N_CAP})"
            )

    cache = cache_from_environment(args.cache)
    hit = None
    if cache is not None:
        digest = algebra_digest(algebra)
        params = {name: getattr(args, name) for name in report.cache_params}
        key = cache.key(digest, report.name, params, "json" if args.json else "tsv")
        hit = cache.lookup(key)
    if hit is not None:
        payload, code = hit
    else:
        meta, table, extras, code = report.compute(args, algebra)
        payload = render(
            {"meta": _meta(report.name, algebra, **meta), "table": table, **extras},
            args.json,
        )
        if cache is not None:
            cache.store(key, digest, report.name, params, payload, code)
    _emit(args, payload)
    return code


def _default_order_two(group) -> int:
    for g in group:
        if group.order_of(g) == 2:
            return g
    from .errors import ElementNotOrderTwo

    raise ElementNotOrderTwo("the group has no element of order two")


def _default_pair(group) -> tuple[int, int]:
    # Prefer a pair of non-identity elements so the four basis vectors land in
    # four distinct components; an identity g would collapse the support.
    e = group.identity
    for g in group:
        if g == e:
            continue
        for h in group:
            if h == e or g == h or group.mul(g, h) == e:
                continue
            return g, h
    raise PreconditionViolation(
        "the group has no pair of non-identity elements g != h with g·h != identity"
    )


def cmd_builtin(args) -> int:
    group = parse_group_shorthand(args.group)
    if args.name == "ut2":
        g = group.element(args.g) if args.g else (1 if len(group) > 1 else 0)
        algebra = builtin_ut2(group, g)
    elif args.name == "k_g":
        g = group.element(args.g) if args.g else _default_order_two(group)
        algebra = builtin_k(group, g)
    elif args.name == "grassmann2":
        if args.g and args.h:
            g, h = group.element(args.g), group.element(args.h)
        elif args.g or args.h:
            raise InputError("give both --g and --h, or neither")
        else:
            g, h = _default_pair(group)
        algebra = builtin_grassmann2(group, g, h)
    else:
        raise InputError(f"unknown builtin {args.name!r}")
    _emit(args, dumps_algebra(algebra))
    return 0


# -- parser ----------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gpw",
        description="Exact workbench for graded algebras: identities, "
        "codimensions, cocharacter multiplicities, classification reports.",
    )
    parser.add_argument("--version", action="version", version=f"gpw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache=True):
        p.add_argument("--json", action="store_true", help="emit JSON instead of TSV")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        if cache:
            p.add_argument(
                "--cache",
                help="directory for the results cache (or set GPW_CACHE)",
            )

    p = sub.add_parser("validate", help="validate an algebra document")
    p.add_argument("file")
    common(p, cache=False)
    p.set_defaults(func=cmd_validate)

    for report in REPORTS:
        p = sub.add_parser(report.name, help=report.help)
        p.add_argument("file")
        for flag, options in report.arguments:
            p.add_argument(flag, **options)
        if report.n_max is not None:
            p.add_argument(
                "--n-max",
                type=int,
                default=report.n_max,
                help=f"degree cap (default {report.n_max}, hard max {limits.HARD_N_CAP})",
            )
        common(p)
        p.set_defaults(func=partial(run_report, report))

    p = sub.add_parser("builtin", help="emit a builtin algebra document")
    p.add_argument("name", choices=["ut2", "k_g", "grassmann2"])
    p.add_argument("--group", default="c2", help="e.g. c2, c4, c2xc2")
    p.add_argument("--g", default=None, help="grading element label")
    p.add_argument("--h", default=None, help="second grading element label")
    p.add_argument("--out", help="write the document to this path")
    p.set_defaults(func=cmd_builtin, json=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code = args.func(args)
    except ConsistencyViolation as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:  # OSError: an --out or --cache it cannot write
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.monotonic() - started
        print(f"# elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
