"""Which suites catch a wrong polynomial: the detection matrix.

Each mutant is the recurrence family to n = 24 with one A_n or one C_n
perturbed by 10**-9 * X (a low-order term) or by 10**-9 * X**(n+1) (the
leading term).  It runs through the identities suite, the uv check against
``build_uv(24)`` and the integral suites on the family cut to n <= 3, and
the test pins the exact set of check-id prefixes (the text before the
first "/") that fail.  A simplification that stops a suite from catching
one of these mutants fails here, even when every other test still passes.

The kernel mutants break one integer kernel of ``exact_core`` instead, in
a fresh process: a wrong kernel must show as failed checks (exit 1), never
as a usage error, and ``poly`` must not print a non-real polynomial.  A
fault that makes a computation raise is exit 4 on one stderr line, or,
in a route builder, failed checks of that route alone.
"""

import functools
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from acpolys.ac_families import (
    REFERENCE_A, REFERENCE_C, ACFamily, build_by_recurrence, identities_report,
)
from acpolys.exact_core import Polynomial
from acpolys.generalized_uv import build_uv, check_uv_consistency
from acpolys.operator_lab import INTEGRALS_MAX_N, integrals_report
from subprocess_env import subprocess_env

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


#: Each kernel mutant is source run after ``import acpolys.cli``, with
#: ``exact_core`` and ``accumulate`` in scope, and before ``cli.run``.
KERNEL_MUTANTS = {
    # Skips its last prefix-sum pass when the vector is longer than 30.
    "shift_by_one": """
def _shift_by_one(t):
    if not any(t):
        return list(t)
    r = list(reversed(t))
    for end in range(len(r), 2 if len(r) > 30 else 1, -1):
        r[:end] = accumulate(r[:end])
    r.reverse()
    return r
exact_core._shift_by_one = _shift_by_one
""",
    # Adds 1 to real coefficient 35.
    "twist": """
_twist = exact_core._twist
def twist(*args):
    re, im = _twist(*args)
    return (re if len(re) <= 35 else [*re[:35], re[35] + 1, *re[36:]]), im
exact_core._twist = twist
""",
    # Drops the last term of a row of more than 30 terms, in every module
    # that imports the row kernel.
    "linear_combination": """
_row = exact_core._linear_combination
def linear_combination(terms, divisor=1):
    terms = list(terms)
    return _row(terms[:-1] if len(terms) > 30 else terms, divisor)
for module in list(sys.modules.values()):
    if getattr(module, "_linear_combination", None) is _row:
        module._linear_combination = linear_combination
""",
    # Adds i*Y to every u/v row of degree 13 or more.
    "uv_row": """
from acpolys import generalized_uv
_row = generalized_uv._linear_combination
def uv_row(terms, divisor=1):
    p = _row(terms, divisor)
    return p + exact_core.I * exact_core.X if p.degree >= 13 else p
generalized_uv._linear_combination = uv_row
""",
    # Drops one order more than asked past order 20.
    "truncate": """
_truncate = exact_core.TruncatedSeries.truncate
def truncate(self, order):
    return _truncate(self, order - 1 if order > 20 else order)
exact_core.TruncatedSeries.truncate = truncate
""",
}

#: The shift by i goes through both mutated kernels.
SHIFTED = {"a_central_difference", "c_central_difference", "euler_link",
           "route/closed_form", "shift_minus_sum", "shift_plus_sum"}

#: Failing prefixes of ``verify identities --max-n 48`` under each mutant:
#: the text before the first "/", or "route/<route>" for a route check.
KERNEL_FAILURES = {
    "shift_by_one": SHIFTED,
    "twist": SHIFTED | {"a_vanishes_at_0", "c_vanishes_at_i"},
    "linear_combination": {"route/generating_function", "route/residue_recurrence"},
}


def with_kernel_mutant(mutant, *argv):
    script = ("import sys\nfrom itertools import accumulate\nimport acpolys.cli\n"
              "from acpolys import exact_core\n" + KERNEL_MUTANTS[mutant]
              + "sys.exit(acpolys.cli.run(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", script, *argv], env=subprocess_env(),
                          capture_output=True, text=True, timeout=300)


def kernel_prefix(check_id):
    parts = check_id.split("/")
    return "/".join(parts[:2]) if parts[0] == "route" else parts[0]


@pytest.mark.parametrize("mutant", KERNEL_FAILURES)
def test_kernel_mutant_fails_checks_and_is_no_usage_error(mutant):
    result = with_kernel_mutant(mutant, "verify", "identities", "--max-n", "48",
                                "--format", "csv")
    assert (result.returncode, result.stderr) == (1, "")
    rows = [line.split(",") for line in result.stdout.splitlines()]
    assert {kernel_prefix(row[1]) for row in rows if row[2] != "pass"} == KERNEL_FAILURES[mutant]


@pytest.mark.parametrize("mutant", ["shift_by_one", "twist"])
def test_kernel_mutant_stops_poly_on_one_short_line(mutant):
    result = with_kernel_mutant(mutant, "poly", "--family", "a", "--n", "40",
                                "--route", "closed_form")
    assert (result.returncode, result.stdout) == (4, "")
    assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 200
    assert "route closed_form built a non-real A_40 of degree 41" in result.stderr


@pytest.mark.parametrize("command", ["verify", "coeffs"])
def test_a_non_real_uv_row_is_an_internal_error(command):
    # build_uv reads each row's integers, which a row over Q(i) has not.
    result = with_kernel_mutant("uv_row", command, "uv", "--max-n", "48")
    assert (result.returncode, result.stdout) == (4, "")
    assert result.stderr == ("acpolys: internal error: ValueError('nonzero imaginary part "
                             "at X^1 of a polynomial of degree 13')\n")


def test_a_raising_route_fails_only_its_own_checks():
    result = with_kernel_mutant("truncate", "verify", "identities", "--max-n", "24",
                                "--format", "csv")
    assert (result.returncode, result.stderr) == (1, "")
    rows = [line.split(",") for line in result.stdout.splitlines()]
    failed = [row for row in rows if row[2] != "pass"]
    assert [row[1] for row in failed] == [
        f"route/generating_function/{letter}/n={n}" for n in range(25) for letter in "ac"]
    assert {row[3] for row in failed} == {"ValueError('mixed truncation orders: 23 vs 24')"}
    assert {kernel_prefix(row[1]) for row in rows} > {
        "route/closed_form", "route/coefficient_formula", "route/residue_recurrence"}


def test_a_raising_route_stops_poly_on_one_line():
    result = with_kernel_mutant("truncate", "poly", "--family", "c", "--n", "24",
                                "--route", "generating_function")
    assert (result.returncode, result.stdout) == (4, "")
    assert result.stderr == (
        "acpolys: internal error: ValueError('mixed truncation orders: 23 vs 24')\n")
