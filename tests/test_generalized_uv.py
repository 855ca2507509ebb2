"""The u/v coefficient triangles: hand-computed rows and the closed-form
consistency between the standalone recursion and the polynomial families."""

from fractions import Fraction

import pytest

from acpolys.ac_families import ACFamily, build_by_recurrence, lambda_alpha_tables
from acpolys.exact_core import I, Polynomial
from acpolys.generalized_uv import UVTables, build_uv, check_uv_consistency, row_width
from acpolys.report import PASS

F = Fraction

# Rows worked by hand from the recursion before implementation:
#   n=1 seed; n=2,3 by the first-column rules; n=4 exercises the interior
#   rule (q=2 with n even, the top-index case).
HAND_ROWS_U = {
    (1, 1): F(0),
    (2, 1): F(1),
    (3, 1): F(2),
    (3, 2): F(0),
    (4, 1): F(10, 3),
    (4, 2): F(7, 3),
}

HAND_ROWS_V = {
    (1, 1): F(1),
    (2, 1): F(2),
    (3, 1): F(4),
    (3, 2): F(1),
    (4, 1): F(20, 3),
    (4, 2): F(8, 3),
    (5, 1): F(10),
}


def build_uv_fractions(n_max: int) -> tuple:
    """The recursion of ``build_uv`` with one ``Fraction`` per operation:
    the reference for its integer rows.  Returns the (u, v) dicts."""
    u = {(1, 1): F(0)}
    v = {(1, 1): F(1)}
    for n in range(1, n_max):
        v[(n + 1, 1)] = F(n + 1) + F(n - 1, n) * v[(n, 1)]
        u[(n + 1, 1)] = u[(n, 1)] + v[(n, 1)] / n
        for q in range(2, row_width(n + 1) + 1):
            sum_v = F(0)
            sum_u = F(0)
            for k in range(1, q):
                denom = n + 2 - 2 * k
                sum_v += v[(n, k)] * v[(n + 1 - 2 * k, q - k)] / denom
                sum_u += v[(n, k)] * u[(n + 1 - 2 * k, q - k)] / denom
            if q <= row_width(n):
                sum_v += F(n + 1 - 2 * q, n + 2 - 2 * q) * v[(n, q)]
                sum_u += v[(n, q)] / (n + 2 - 2 * q) + u[(n, q)]
            v[(n + 1, q)] = sum_v
            u[(n + 1, q)] = sum_u
    return u, v


class TestRowWidth:
    def test_widths(self):
        assert [row_width(n) for n in range(1, 9)] == [1, 1, 2, 2, 3, 3, 4, 4]


class TestBuildUV:
    def test_zero_max_is_empty(self):
        # The rows start at n = 1; n = 0 is a valid, empty table.
        uv = build_uv(0)
        assert uv.u == {} and uv.v == {}
        assert uv.max_n == 0
        assert check_uv_consistency(uv, build_by_recurrence(0)) == []

    def test_rejects_negative_max(self):
        with pytest.raises(ValueError):
            build_uv(-1)

    def test_seed_row(self):
        uv = build_uv(1)
        assert uv.u == {(1, 1): F(0)}
        assert uv.v == {(1, 1): F(1)}

    def test_hand_rows(self):
        uv = build_uv(5)
        for key, expected in HAND_ROWS_U.items():
            assert uv.u[key] == expected, f"u{key}"
        for key, expected in HAND_ROWS_V.items():
            assert uv.v[key] == expected, f"v{key}"

    def test_table_shape(self):
        n_max = 12
        uv = build_uv(n_max)
        expected_keys = {
            (n, k) for n in range(1, n_max + 1) for k in range(1, row_width(n) + 1)
        }
        assert set(uv.u) == expected_keys
        assert set(uv.v) == expected_keys
        assert uv.max_n == n_max

    def test_equals_fraction_recursion(self):
        u_ref, v_ref = build_uv_fractions(120)
        for n_max in (*range(65), 120):
            uv = build_uv(n_max)
            assert uv.u == {key: x for key, x in u_ref.items() if key[0] <= n_max}, n_max
            assert uv.v == {key: x for key, x in v_ref.items() if key[0] <= n_max}, n_max
        assert all(type(x) is F for x in (*uv.u.values(), *uv.v.values()))

    def test_top_v_entries_nonzero(self):
        # The deepest v entry of each row is a positive rational.
        uv = build_uv(20)
        for n in range(1, 21):
            assert uv.v[(n, row_width(n))] > 0


class TestConsistency:
    def test_uv_matches_families_to_24(self):
        n_max = 24
        uv = build_uv(n_max)
        family = build_by_recurrence(n_max)
        checks = check_uv_consistency(uv, family)
        failures = [c.id for c in checks if c.status != PASS]
        assert not failures

    def test_closed_form_by_hand_n4(self):
        # u_n^k = (n+1) alpha_n^(n+1-2k): u_4^2 = 5 * alpha_4^1 = 5 * 7/15
        family = build_by_recurrence(4)
        t = lambda_alpha_tables(family)
        assert 5 * t.alpha[(4, 1)] == F(7, 3) == HAND_ROWS_U[(4, 2)]
        assert 5 * t.lam[(4, 3)] == F(20, 3) == HAND_ROWS_V[(4, 1)]

    def test_a_wrong_entry_fails_showing_both_sides(self):
        uv = build_uv(4)
        u = dict(uv.u)
        u[(4, 2)] += 1
        checks = check_uv_consistency(UVTables(u, uv.v, 4), build_by_recurrence(4))
        assert [c.to_json_dict() for c in checks if c.status != PASS] == [{
            "id": "uv/u/n=4,k=2", "description": "u_4^2 = (5) alpha_4^1",
            "status": "fail", "lhs": "10/3", "rhs": "7/3",
            "error_metric": "exact mismatch",
        }]

    def test_an_imaginary_family_coefficient_fails_one_check(self):
        # i*X^3 added to C_4 makes C_4 a polynomial over Q(i): its checks
        # take the exact fallback, and only the X^3 coefficient differs.
        family = build_by_recurrence(6)
        c_polys = list(family.c_polys)
        c_polys[4] = c_polys[4] + Polynomial.monomial(3, I)
        checks = check_uv_consistency(
            build_uv(6), ACFamily(family.a_polys, tuple(c_polys), family.route))
        assert len(checks) == 36
        assert [c.to_json_dict() for c in checks if c.status != PASS] == [{
            "id": "uv/v/n=4,k=1", "description": "v_4^1 = (5) lam_4^3",
            "status": "fail", "lhs": "20/3", "rhs": "20/3+5*i",
            "error_metric": "exact mismatch",
        }]

    def test_uv_table_longer_than_family_rejected(self):
        uv = build_uv(6)
        family = build_by_recurrence(4)
        with pytest.raises(ValueError):
            check_uv_consistency(uv, family)

    def test_convention_checks_present(self):
        uv = build_uv(3)
        family = build_by_recurrence(3)
        ids = [c.id for c in check_uv_consistency(uv, family)]
        assert "uv/convention_u0/n=2" in ids
        assert "uv/convention_v0/n=3" in ids
