"""Which suites catch a wrong polynomial: the detection matrix.

Each mutant is the recurrence family to n = 24 with one A_n or one C_n
perturbed by 10**-9 * X (a low-order term) or by 10**-9 * X**(n+1) (the
leading term).  It runs through the identities suite, the uv check against
``build_uv(24)`` and the integral suites on the family cut to n <= 3, and
the test pins the exact set of check-id prefixes (the text before the
first "/") that fail.  A simplification that stops a suite from catching
one of these mutants fails here, even when every other test still passes.
"""

import functools
import re
from fractions import Fraction

import pytest

from acpolys.ac_families import (
    REFERENCE_A, REFERENCE_C, ACFamily, build_by_recurrence, identities_report,
)
from acpolys.exact_core import Polynomial
from acpolys.generalized_uv import build_uv, check_uv_consistency
from acpolys.operator_lab import INTEGRALS_MAX_N, integrals_report

MAX_N = 24

#: Every mutant fails these: the other routes, the shifted-argument sums,
#: the Euler link and the tangent expansion each read every A_n and C_n.
EVERY_MUTANT = {"route", "euler_link", "tangent_expansion", "shift_minus_sum", "shift_plus_sum"}

#: The central-difference identity of each family, and the roots C_n(+-i) = 0.
OWN = {"a": {"a_central_difference"}, "c": {"c_central_difference", "c_vanishes_at_i"}}

#: The last n of each golden table.
GOLDEN_MAX_N = {"a": len(REFERENCE_A) - 1, "c": len(REFERENCE_C) - 1}


@functools.cache
def _baseline():
    return build_by_recurrence(MAX_N), build_uv(MAX_N)


def failing_ids(letter, n, power):
    """The ids of the checks that do not pass once 10**-9 * X**power is
    added to A_n (``letter`` "a") or C_n ("c")."""
    base, uv = _baseline()
    polys = {"a": list(base.a_polys), "c": list(base.c_polys)}
    polys[letter][n] += Polynomial.monomial(power, Fraction(1, 10**9))
    family = ACFamily(tuple(polys["a"]), tuple(polys["c"]), base.route)
    cut = family._replace(a_polys=family.a_polys[:INTEGRALS_MAX_N + 1],
                          c_polys=family.c_polys[:INTEGRALS_MAX_N + 1])
    checks = [*identities_report(family).checks, *check_uv_consistency(uv, family),
              *integrals_report(cut).checks]
    return [c.id for c in checks if c.status != "pass"]


def expected_prefixes(letter, n, leading):
    """The check-id prefixes a mutant of A_n or C_n fails: of the leading
    term when ``leading``, else of the X term."""
    prefixes = EVERY_MUTANT | OWN[letter]
    if n <= GOLDEN_MAX_N[letter]:
        prefixes.add("golden")
    # Row n >= 1 of the u/v tables reads the coefficients of X**(n+1-2k),
    # k >= 0: the leading one always, the X one at even n.
    if leading:
        if n >= 1:
            prefixes.add("uv")
            if letter == "c":  # pinned for C_n from n = 1 on
                prefixes.add("c_leading")
    else:
        # An X term breaks the parity of every odd n, and the moments read
        # the X coefficients of C_1 and C_2.
        if n % 2:
            prefixes.add("parity")
        elif n >= 2:
            prefixes.add("uv")
        if letter == "c" and n in (1, 2):
            prefixes.add("moment")
    if letter == "c" and n == 0:
        # C_0 = 0, which the C-form integral at n = 0 also reads.
        prefixes |= {"c_zero", "cform"}
    return prefixes


MUTANTS = [(letter, n, leading)
           for leading in (False, True) for letter in "ac" for n in range(MAX_N + 1)]


@pytest.mark.parametrize(
    "letter, n, leading", MUTANTS,
    ids=[f"{letter.upper()}_{n}-{'leading' if leading else 'X'}"
         for letter, n, leading in MUTANTS])
def test_mutant_fails_exactly_its_suites(letter, n, leading):
    ids = failing_ids(letter, n, n + 1 if leading else 1)
    assert {i.split("/")[0] for i in ids} == expected_prefixes(letter, n, leading)
    # Every failing id names the mutated n, except the exact lam_2^1 = 4 beta_2
    # identity, which reads C_2 under an id without one.
    named = [re.search(r"\bn=(\d+)", i) for i in ids]
    assert {int(m.group(1)) for m in named if m} == {n}
    unnamed = {i for i, m in zip(ids, named) if m is None}
    assert unnamed == ({"moment/lambda_beta"} if (letter, n, leading) == ("c", 2, False)
                       else set())
