"""Closed forms from the literature, as oracles that share nothing with gpw.

- The cocharacter of UT_2, the upper triangular 2x2 matrices, with the
  trivial grading: m_(n) = 1, m_λ = λ1 - λ2 + 1 for λ = (λ1, λ2) with
  λ2 >= 1 and for λ = (λ1, λ2, 1), and every other m_λ is 0
  (Mishchenko-Regev-Zaicev, J. Algebra 1999; Drensky, *Free Algebras and
  PI-Algebras*, 2000).
- The codimensions of UT_3: c_n = 3^(n-2) (n^2 - 7n + 9) + 3 (n-2) 2^(n-1)
  + 3.  Degree 6 is checked through the CLI in ``test_cli_golden.py``.
"""

import pytest

import gpw
from gpw.evaluator import cocharacter_table, total_codimension
from gpw.shapes import Multipartition, partitions

from conftest import ut3_document


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


@pytest.mark.parametrize("n", range(2, 6))
def test_ut3_codimension_is_the_closed_form(n, ut3_trivial):
    closed_form = 3 ** (n - 2) * (n * n - 7 * n + 9) + 3 * (n - 2) * 2 ** (n - 1) + 3
    assert total_codimension(ut3_trivial, n)[0] == closed_form
