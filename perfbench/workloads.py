"""The benchmark's algebra documents and the job list of each workload.

A job is one gpw CLI invocation.  Job lists are fixed per workload except
where a seed is used: every workload runs its jobs in a seeded order, and
identity-powers draws its polynomials from the seed.  Each identity-powers
polynomial combines one or two fixed words of degree 7 or 8, so the
polarization and substitution work per job does not depend on the seed
(the arrangement of a word does change that work, by up to 20%); the seed
picks the variables' numbers and the coefficients, and with them which
polynomials are identities.
"""

from __future__ import annotations

import json
import random

# document file -> arguments of `gpw builtin`, or None for the document the
# benchmark writes itself (checks.MODELS holds an independent model of each)
DOCUMENTS = {
    "k_c2.json": ["k_g", "--group", "c2", "--g", "g"],
    "k_c4.json": ["k_g", "--group", "c4", "--g", "g2"],
    "ut2_c2.json": ["ut2", "--group", "c2", "--g", "g"],
    "ut2_trivial.json": ["ut2", "--group", "c1"],
    "e2_c2xc2.json": ["grassmann2", "--group", "c2xc2", "--g", "(0,1)", "--h", "(1,0)"],
    "e2_c4.json": ["grassmann2", "--group", "c4", "--g", "g", "--h", "g2"],
    "e2_c2xc2xc2.json": [
        "grassmann2", "--group", "c2xc2xc2", "--g", "(0,0,1)", "--h", "(0,1,0)"
    ],
    "ut2_reflection.json": None,
}

UT2_REFLECTION_DOCUMENT = {
    "format_version": 1,
    "name": "ut2-reflection",
    "mode": "star",
    "group": {"kind": "cyclic", "order": 2},
    "basis": ["e11", "e12", "e22"],
    "grading": ["1", "g", "1"],
    "structure": [
        [0, 0, ["1", "0", "0"]],
        [0, 1, ["0", "1", "0"]],
        [1, 2, ["0", "1", "0"]],
        [2, 2, ["0", "0", "1"]],
    ],
    "involution": [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]],
}


def write_documents(gpw_main, directory, names) -> None:
    """Write the named documents: builtins through ``gpw builtin --out``,
    the rest from their literal text."""
    for name in names:
        builtin = DOCUMENTS[name]
        path = f"{directory}/{name}"
        if builtin is None:
            with open(path, "w") as fh:
                json.dump(UT2_REFLECTION_DOCUMENT, fh, indent=2, sort_keys=True)
        elif gpw_main(["builtin", *builtin, "--out", path]) != 0:
            raise RuntimeError(f"gpw builtin {' '.join(builtin)} failed")


def _job(kind, document, *options, poly=None, expect=None):
    return {
        "kind": kind,
        "document": document,
        "argv": [kind, document, *options, "--json"],
        "replay_of": None,
        "poly": poly,
        "expect_identity": expect,
    }


def _cochar_graded(rng):
    jobs = [
        _job("cochar", "k_c2.json", "--n", "5"),
        _job("codim", "k_c4.json", "--n", "5"),
        _job("cochar", "ut2_c2.json", "--n", "5"),
        _job("codim", "ut2_trivial.json", "--n", "5"),
        _job("codim", "ut2_c2.json", "--n", "6", "--n-max", "6"),
        _job("classify-bounded", "k_c2.json"),
        _job("classify-bounded", "ut2_c2.json"),
    ]
    rng.shuffle(jobs)
    return jobs


def _star_reports(rng):
    firsts = [
        _job("cochar", "e2_c2xc2.json", "--n", "5"),
        _job("cochar", "e2_c4.json", "--n", "4"),
        _job("cochar", "e2_c2xc2xc2.json", "--n", "4"),
        _job("cochar", "ut2_reflection.json", "--n", "5"),
    ]
    for document in ("e2_c2xc2.json", "e2_c4.json", "e2_c2xc2xc2.json", "ut2_reflection.json"):
        firsts.append(_job("classify-multone", document, "--n-max", "4"))
        firsts.append(_job("verify-lemmas", document, "--n-max", "5"))
    rng.shuffle(firsts)
    for job in firsts:
        job["argv"] += ["--cache", "{cache}"]
    # every report is issued again against the same cache: a replay
    return firsts + [dict(job, replay_of=index) for index, job in enumerate(firsts)]


# -- identity-powers ------------------------------------------------------------


def _coefficient(rng) -> int:
    return rng.choice([1, -1]) * rng.randint(1, 9)


def _pair(rng, document, words):
    """Two jobs on two words w1, w2 that take the same values on the
    algebra: c*w1 - c*w2 is an identity and c*w1 - e*w2 (e != c, e != 0)
    is not.  The seed decides which of the two jobs comes first."""
    c = _coefficient(rng)
    e = c
    while e in (c, 0):
        e = c + _coefficient(rng)
    pair = [
        _job("identity", document, poly=[(c, words[0]), (-c, words[1])], expect=True),
        _job("identity", document, poly=[(c, words[0]), (-e, words[1])], expect=False),
    ]
    rng.shuffle(pair)
    return pair


def _distinct_indices(rng, count):
    return rng.sample(range(1, 10), count)


def _identity_powers(rng):
    jobs = []
    # ut2 over C2: a product of two grade-g elements vanishes, so an 8-fold
    # power of a grade-g variable is an identity (8! polarized terms, one
    # substitution)
    (a,) = _distinct_indices(rng, 1)
    g = ("x", a, "g")
    jobs.append(_job("identity", "ut2_c2.json", poly=[(_coefficient(rng), (g,) * 8)], expect=True))
    # grassmann2: y of the identity grade is a multiple of 1, so its 7-fold
    # power is not an identity
    (a,) = _distinct_indices(rng, 1)
    y = ("y", a, "(0,0)")
    jobs.append(_job("identity", "e2_c2xc2.json", poly=[(_coefficient(rng), (y,) * 7)], expect=False))
    # ut2 over C2: x_g * (diagonal letters) depends only on the multiset of
    # diagonal letters, which commute
    a, b, c = _distinct_indices(rng, 3)
    g, u, v = ("x", a, "g"), ("x", b, "1"), ("x", c, "1")
    jobs += _pair(rng, "ut2_c2.json", ((g,) + (u,) * 5 + (v,) * 2, (g,) + (v,) * 2 + (u,) * 5))
    # k over C2: with grade-g letters first and last, a word's value depends
    # only on those two letters and the multiset in between
    a, b, c, d = _distinct_indices(rng, 4)
    first, u, v, last = ("x", a, "g"), ("x", b, "1"), ("x", c, "1"), ("x", d, "g")
    jobs += _pair(
        rng, "k_c2.json", ((first,) + (u,) * 4 + (v,) * 2 + (last,), (first,) + (v,) * 2 + (u,) * 4 + (last,))
    )
    # grassmann2: y of the identity grade is central, so moving a skew
    # generator-grade letter through a 7-fold power changes nothing
    a, b = _distinct_indices(rng, 2)
    y, z = ("y", a, "(0,0)"), ("z", b, "(0,1)")
    jobs += _pair(rng, "e2_c2xc2.json", ((z,) + (y,) * 7, (y,) * 7 + (z,)))
    rng.shuffle(jobs)
    for job in jobs:
        # "--poly=" keeps a leading minus sign from reading as an option
        job["argv"] = ["identity", job["document"], f"--poly={poly_text(job['poly'])}", "--json"]
    return jobs


def poly_text(poly) -> str:
    """gpw's expression syntax for a list of (integer coefficient, word)."""
    parts = []
    for coeff, word in poly:
        body = "*".join(f"{kind}{{{index},{grade}}}" for kind, index, grade in word)
        if parts:
            parts.append(f" {'-' if coeff < 0 else '+'} {abs(coeff)}*{body}")
        else:
            parts.append(f"{coeff}*{body}")
    return "".join(parts)


WORKLOADS = {
    "cochar-graded": _cochar_graded,
    "star-reports": _star_reports,
    "identity-powers": _identity_powers,
}


def jobs_for(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    for index, job in enumerate(jobs):
        job["id"] = index
    return jobs


def documents_for(workload: str) -> list[str]:
    return sorted({job["document"] for job in jobs_for(workload, 0)})
