"""Seeded request streams for the three benchmark workloads.

Each workload is an endless stream of CLI requests drawn from one
``random.Random(seed)``: the same seed gives the same requests in the same
order.  Requests are dealt in shuffled decks of a fixed composition, so a
run that stops part-way through a deck still sees nearly the same mix of
request kinds whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("selftest-n48", "tables-emit", "operator-grid")

# selftest at N=48 runs 2316 checks in 10-18 s.  N=96 takes about 100 s per
# request, too long for a repeated run.
SELFTEST_MAX_N = 48

# Four grid sizes with 1600 drawn twice per deck: the median request then
# falls inside one grid size instead of on the boundary between two, which
# would make the median jump with the exact deck composition.
GRID_DECK = (200, 800, 1600, 1600, 2400)

POLY_ROUTES = ("recurrence", "coefficient_formula", "generating_function")
NUMBER_KINDS = ("bernoulli", "cosecant", "tangent")
POLY_MAX_N = 64
NUMBERS_MAX_N = 300
COEFFS_MAX_N = 120


@dataclass
class Request:
    """One CLI request: ``kind`` and ``params`` describe it, ``argv`` runs it."""

    kind: str
    params: dict
    argv: tuple

    def label(self) -> str:
        return " ".join(self.argv)


def _selftest() -> Request:
    argv = ("selftest", "--max-n", str(SELFTEST_MAX_N), "--format", "csv")
    return Request("selftest", {"max_n": SELFTEST_MAX_N}, argv)


def _integrals(grid_size: int) -> Request:
    argv = ("verify", "integrals", "--suite", "all",
            "--grid-size", str(grid_size), "--format", "csv")
    return Request("integrals", {"grid_size": grid_size}, argv)


def _poly(rng: random.Random, n: int) -> Request:
    params = {
        "family": rng.choice("ac"),
        "n": n,
        "route": rng.choice(POLY_ROUTES),
        "format": rng.choice(("json", "csv", "latex")),
    }
    argv = ("poly", "--family", params["family"], "--n", str(n),
            "--route", params["route"], "--format", params["format"])
    return Request("poly", params, argv)


def _numbers(rng: random.Random, max_n: int) -> Request:
    params = {
        "kind": rng.choice(NUMBER_KINDS),
        "max_n": max_n,
        "format": rng.choice(("json", "csv")),
    }
    argv = ("numbers", "--kind", params["kind"], "--max-n", str(max_n),
            "--format", params["format"])
    return Request("numbers", params, argv)


def _coeffs(rng: random.Random, table: str, max_n: int) -> Request:
    params = {"table": table, "max_n": max_n,
              "format": rng.choice(("json", "csv"))}
    argv = ("coeffs", table, "--max-n", str(max_n), "--format", params["format"])
    return Request("coeffs", params, argv)


def _tables_deck(rng: random.Random) -> list:
    """21 exact-emission requests: mostly small, with one large table of
    each coefficient kind and a few large polynomials and number tables."""
    deck = [_poly(rng, rng.randint(0, 16)) for _ in range(8)]
    deck += [_poly(rng, rng.randint(17, POLY_MAX_N)) for _ in range(2)]
    deck += [_numbers(rng, rng.randint(0, 60)) for _ in range(4)]
    deck.append(_numbers(rng, rng.randint(61, NUMBERS_MAX_N)))
    for table in ("alpha-lambda", "uv"):
        deck += [_coeffs(rng, table, rng.randint(1, 30)) for _ in range(2)]
        deck.append(_coeffs(rng, table, rng.randint(61, COEFFS_MAX_N)))
    rng.shuffle(deck)
    return deck


def requests(workload: str, seed: int):
    """The endless request stream of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload: {workload}")
    rng = random.Random(f"{workload}/{seed}")
    while True:
        if workload == "selftest-n48":
            yield _selftest()
        elif workload == "operator-grid":
            deck = list(GRID_DECK)
            rng.shuffle(deck)
            yield from (_integrals(g) for g in deck)
        else:
            yield from _tables_deck(rng)
