"""Command line interface.

Exit codes: 0 success (and positive verdicts), 1 negative verdicts
(not an identity / unwitnessed / lists unsatisfied), 2 input errors,
3 internal consistency violations.

Reports are byte-deterministic for fixed input and flags; timing goes to
stderr only.  Heavy commands can replay from a results cache given via
``--cache DIR`` or the ``GPW_CACHE`` environment variable.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__, modes
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
from .evaluator import HARD_N_CAP, cocharacter_table, is_identity, total_codimension
from .groups import parse_group_shorthand
from .polynomials import parse_poly
from .reports import format_composition, format_shape, render, slot_legend
from .shapes import multinomial

DEFAULT_COCHAR_CAP = 5


def _effective_cap(n_max: int | None, default: int) -> int:
    cap = default if n_max is None else n_max
    if cap > HARD_N_CAP:
        raise CapExceeded(
            f"--n-max {cap} is above the hard maximum {HARD_N_CAP}"
        )
    if cap < 1:
        raise InputError("--n-max must be positive")
    return cap


def _meta(command: str, algebra: GradedStarAlgebra, **extra) -> dict:
    meta = {
        "command": command,
        "engine": f"gpw {__version__}",
        "algebra": algebra.name,
        "digest": algebra_digest(algebra),
    }
    meta.update({k: v for k, v in extra.items()})
    return meta


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _with_cache(args, algebra, operation, params, compute):
    """compute() -> (payload, exit_code); replayed from cache when possible."""
    fmt = "json" if args.json else "tsv"
    cache = cache_from_environment(getattr(args, "cache", None))
    if cache is None:
        return compute()
    digest = algebra_digest(algebra)
    key = cache.key(digest, operation, params, fmt)
    hit = cache.lookup(key)
    if hit is not None:
        return hit
    payload, code = compute()
    cache.store(key, digest, operation, params, payload, code)
    return payload, code


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


def cmd_codim(args) -> int:
    algebra = load_algebra(args.file)
    cap = _effective_cap(args.n_max, DEFAULT_COCHAR_CAP)
    if args.n > cap:
        raise CapExceeded(
            f"n={args.n} above the cap {cap}; raise it with --n-max "
            f"(hard maximum {HARD_N_CAP})"
        )

    def compute():
        total, breakdown = total_codimension(algebra, args.n)
        group, mode = algebra.group, algebra.mode
        table = [["composition", "slice_codim", "weight", "contribution"]]
        entries = []
        for comp, c in breakdown.items():
            weight = multinomial(comp)
            table.append([format_composition(comp, group, mode), c, weight, weight * c])
            entries.append(
                {
                    "composition": list(comp),
                    "slice_codim": c,
                    "weight": weight,
                }
            )
        table.append(["TOTAL", "", "", total])
        payload = render(
            {
                "meta": _meta(
                    "codim",
                    algebra,
                    n=args.n,
                    slots=slot_legend(group, mode),
                    total=total,
                ),
                "table": table,
                "entries": entries,
                "total": total,
            },
            args.json,
        )
        return payload, 0

    payload, code = _with_cache(args, algebra, "codim", {"n": args.n}, compute)
    _emit(args, payload)
    return code


def cmd_cochar(args) -> int:
    algebra = load_algebra(args.file)
    cap = _effective_cap(args.n_max, DEFAULT_COCHAR_CAP)
    if args.n > cap:
        raise CapExceeded(
            f"n={args.n} above the cap {cap}; raise it with --n-max "
            f"(hard maximum {HARD_N_CAP})"
        )

    def compute():
        table_obj = cocharacter_table(algebra, args.n, cap=cap)
        group, mode = algebra.group, algebra.mode
        rows = [["shape", "multiplicity", "degree"]]
        support = []
        for shape, m in table_obj.support():
            rows.append([format_shape(shape, group, mode), m, shape.degree()])
            support.append(
                {
                    "shape": format_shape(shape, group, mode),
                    "multiplicity": m,
                    "degree": shape.degree(),
                }
            )
        payload = render(
            {
                "meta": _meta(
                    "cochar",
                    algebra,
                    n=args.n,
                    slots=slot_legend(group, mode),
                    total_codim=table_obj.total_codim,
                    max_multiplicity=table_obj.max_multiplicity(),
                ),
                "table": rows,
                "support": support,
                "slice_codims": [
                    {
                        "composition": list(comp),
                        "slice_codim": c,
                    }
                    for comp, c in table_obj.slice_codims
                ],
                "total": table_obj.total_codim,
            },
            args.json,
        )
        return payload, 0

    payload, code = _with_cache(args, algebra, "cochar", {"n": args.n}, compute)
    _emit(args, payload)
    return code


def cmd_identity(args) -> int:
    algebra = load_algebra(args.file)
    poly = parse_poly(args.poly, algebra.mode, algebra.group)
    if poly.is_zero:
        raise InputError("the zero polynomial is trivially an identity; nothing to test")

    def compute():
        verdict = is_identity(poly, algebra)
        payload = render(
            {
                "meta": _meta("identity", algebra, poly=args.poly),
                "table": [["is_identity", str(verdict).lower()]],
                "is_identity": verdict,
            },
            args.json,
        )
        return payload, 0 if verdict else 1

    payload, code = _with_cache(
        args, algebra, "identity", {"poly": args.poly}, compute
    )
    _emit(args, payload)
    return code


def cmd_classify_bounded(args) -> int:
    algebra = load_algebra(args.file)
    n_max = _effective_cap(args.n_max, 5)

    def compute():
        report = bounded_multiplicity_report(algebra, n_max)
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
                    [
                        group.label(f.grade),
                        f.witness.n,
                        text,
                        str(f.excludes_ut2).lower(),
                    ]
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
        table.append(
            ["empirical_max_multiplicity", report.empirical_max_multiplicity, "", ""]
        )
        payload = render(
            {
                "meta": _meta(
                    "classify-bounded",
                    algebra,
                    n_max=n_max,
                    verdict=report.verdict,
                    empirical_max_multiplicity=report.empirical_max_multiplicity,
                ),
                "table": table,
                "findings": findings,
                "verdict": report.verdict,
            },
            args.json,
        )
        return payload, 0 if report.verdict == "BOUNDED" else 1

    payload, code = _with_cache(
        args, algebra, "classify-bounded", {"n_max": n_max}, compute
    )
    _emit(args, payload)
    return code


def cmd_classify_multone(args) -> int:
    algebra = load_algebra(args.file)
    n_max = _effective_cap(args.n_max, 3)

    def compute():
        report = star_multone_report(algebra, empirical_n=n_max)
        group = algebra.group
        table = [["list", "grades", "kinds", "coefficients"]]
        for f in report.pair_findings:
            g, h = f.grade_pair
            coeffs = ",".join(str(c) for c in f.valid_coefficients) or "-"
            table.append(
                [
                    "pair",
                    f"{group.label(g)},{group.label(h)}",
                    "".join(f.kinds),
                    coeffs,
                ]
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
        payload = render(
            {
                "meta": _meta(
                    "classify-multone",
                    algebra,
                    n_max=n_max,
                    verdict=report.verdict,
                    empirical_max_multiplicity=report.empirical_max_multiplicity,
                ),
                "table": table,
                "verdict": report.verdict,
            },
            args.json,
        )
        return payload, 0 if report.verdict == "SATISFIED" else 1

    payload, code = _with_cache(
        args, algebra, "classify-multone", {"n_max": n_max}, compute
    )
    _emit(args, payload)
    return code


def cmd_verify_lemmas(args) -> int:
    algebra = load_algebra(args.file)
    n_max = _effective_cap(args.n_max, 4)

    def compute():
        report = verify_multone_lemmas(algebra, n_max)
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
        payload = render(
            {
                "meta": _meta(
                    "verify-lemmas", algebra, n_max=n_max, violations=len(violations)
                ),
                "table": table,
            },
            args.json,
        )
        return payload, 3 if violations else 0

    payload, code = _with_cache(
        args, algebra, "verify-lemmas", {"n_max": n_max}, compute
    )
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


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("codim", help="slice and total codimensions at degree n")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-max", type=int, default=None, help="raise the degree cap (hard max 7)")
    common(p)
    p.set_defaults(func=cmd_codim)

    p = sub.add_parser("cochar", help="cocharacter support at degree n")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-max", type=int, default=None, help="raise the degree cap (hard max 7)")
    common(p)
    p.set_defaults(func=cmd_cochar)

    p = sub.add_parser("identity", help="test whether an expression is an identity")
    p.add_argument("file")
    p.add_argument("--poly", required=True)
    common(p)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser(
        "classify-bounded",
        help="search sandwich witnesses per grade; verdict BOUNDED or "
        "UNDECIDED-AT-CAP",
    )
    p.add_argument("file")
    p.add_argument("--n-max", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_classify_bounded)

    p = sub.add_parser(
        "classify-multone",
        help="scan pairwise commutation lists on a star algebra",
    )
    p.add_argument("file")
    p.add_argument("--n-max", type=int, default=None, help="empirical check depth")
    common(p)
    p.set_defaults(func=cmd_classify_multone)

    p = sub.add_parser(
        "verify-lemmas",
        help="re-verify the single-slot multiplicity-one criteria",
    )
    p.add_argument("file")
    p.add_argument("--n-max", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_verify_lemmas)

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
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.monotonic() - started
        print(f"# elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
