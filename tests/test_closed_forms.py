"""Closed forms from the literature, as oracles that share nothing with gpw.

- The cocharacter of UT_2, the upper triangular 2x2 matrices, with the
  trivial grading: m_(n) = 1, m_λ = λ1 - λ2 + 1 for λ = (λ1, λ2) with
  λ2 >= 1 and for λ = (λ1, λ2, 1), and every other m_λ is 0
  (Mishchenko-Regev-Zaicev, J. Algebra 1999; Drensky, *Free Algebras and
  PI-Algebras*, 2000).
- The codimensions of UT_3: c_n = 3^(n-2) (n^2 - 7n + 9) + 3 (n-2) 2^(n-1)
  + 3.  Degree 6 is also checked through the CLI in ``test_cli_golden.py``.
- The codimensions of M_2, the full 2x2 matrices: c_n = C(2n+2, n+1)/(n+2)
  - C(n, 3) + 1 - 2^n (Procesi, "Computing with 2x2 matrices", J. Algebra
  1984).
- The codimensions of UT_k below degree 2k: the identities of UT_k are
  those of the product of k commutators (Maltsev), so UT_k has none below
  degree 2k and c_n = n! for n < 2k.  Degree 6 of UT_4 is checked through
  the CLI, within the work cap.
"""

from math import comb, factorial

import pytest

import gpw
from gpw.cli import main
from gpw.evaluator import cocharacter_table, total_codimension
from gpw.shapes import Multipartition, partitions

from conftest import matrix_unit_document, ut3_document


def _ut2_multiplicity(lam) -> int:
    if len(lam) == 1:
        return 1
    if len(lam) == 2 or (len(lam) == 3 and lam[2] == 1):
        return lam[0] - lam[1] + 1
    return 0


@pytest.mark.parametrize("n", range(2, 8))
def test_ut2_cocharacter_is_the_closed_form(n, ut2_trivial):
    table = cocharacter_table(ut2_trivial, n)
    for lam in partitions(n):
        assert table.multiplicity_of(Multipartition((lam,))) == _ut2_multiplicity(lam), lam
    assert table.total_codim == 2 ** (n - 1) * (n - 2) + 2


@pytest.fixture(scope="module")
def ut3_trivial():
    return gpw.loads_algebra(ut3_document("trivial"))


@pytest.mark.parametrize("n", range(2, 7))
def test_ut3_codimension_is_the_closed_form(n, ut3_trivial):
    closed_form = 3 ** (n - 2) * (n * n - 7 * n + 9) + 3 * (n - 2) * 2 ** (n - 1) + 3
    assert total_codimension(ut3_trivial, n)[0] == closed_form


@pytest.fixture(scope="module")
def m2():
    return gpw.loads_algebra(matrix_unit_document("m2", 2, False))


@pytest.mark.parametrize("n", range(1, 7))
def test_m2_codimension_is_the_closed_form(n, m2):
    closed_form = comb(2 * n + 2, n + 1) // (n + 2) - comb(n, 3) + 1 - 2**n
    assert total_codimension(m2, n)[0] == closed_form


@pytest.fixture(scope="module")
def ut4():
    return gpw.loads_algebra(matrix_unit_document("ut4", 4, True))


@pytest.mark.parametrize("n", range(1, 6))
def test_ut4_has_no_identity_below_degree_eight(n, ut4):
    assert total_codimension(ut4, n)[0] == factorial(n)


def test_ut4_codimension_at_degree_six_through_the_cli(tmp_path, capsys):
    path = tmp_path / "ut4.json"
    path.write_text(matrix_unit_document("ut4", 4, True), encoding="utf-8")
    assert main(["codim", str(path), "--n", "6", "--n-max", "7"]) == 0
    assert "# total: 720\n" in capsys.readouterr().out
