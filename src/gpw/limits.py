"""gpw's two limits, owned here and nowhere else.

* Every degree-n computation (codimensions, cocharacters, multiplicities,
  the reports, the factorization check, the standard and all-fillings
  listings, standard polynomials, highest weight vectors, polarization,
  the CLI's ``--n-max``) passes :func:`check_degree` before any work: none
  clamps a degree or answers for a smaller one.
* Every sized allocation is charged first (:func:`charge`), and one of
  more than :data:`WORK_CAP` entries is refused: the evaluator's walk
  levels, rows and lattice or grid points, composition listings, algebra
  validation and group tables.

Both raise :class:`~gpw.errors.CapExceeded` (exit code 2 at the CLI), and
a degree below 1 raises :class:`~gpw.errors.InputError`.
"""

from __future__ import annotations

from .errors import CapExceeded, InputError

HARD_N_CAP = 7
WORK_CAP = 2**25  # entries one array may hold (0.25 GB of int64)


def check_degree(n: int) -> None:
    """The one degree rule: 1 <= n <= HARD_N_CAP."""
    if not 1 <= n <= HARD_N_CAP:
        error = InputError if n < 1 else CapExceeded
        raise error(f"degree {n} is not between 1 and the hard maximum {HARD_N_CAP}")


def charge(entries: int) -> None:
    """The one work limit: nothing above WORK_CAP entries."""
    if entries > WORK_CAP:
        raise CapExceeded(f"work of {entries} entries is above the work cap {WORK_CAP}")
