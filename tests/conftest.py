"""Shared fixtures: the reference suite of surfaces exercised everywhere."""

import math

import pytest

from lawson import Case, InvalidTripleError, Triple, spectral, validate

# Candidate parameters; the builder drops anything inadmissible.
_GENERALIZED_CANDIDATES = [
    (0, 0, 1),
    (0, 1, 2),
    (1, 1, 2),
    (1, 2, 3),
    (1, 1, 4),
    (1, 2, 4),
    (0, 1, 3),
    (1, 3, 4),
    (2, 3, 6),
    (1, 2, 5),
    (3, 4, 6),
]
_LAWSON_CANDIDATES = [(1, 1), (2, 1), (3, 1)]


def build_suite() -> list[Triple]:
    suite = []
    for a, b, c in _GENERALIZED_CANDIDATES:
        try:
            suite.append(validate(Case.GENERALIZED, a, b, c))
        except InvalidTripleError:
            continue
    for a, b in _LAWSON_CANDIDATES:
        try:
            suite.append(validate(Case.LAWSON, a, b))
        except InvalidTripleError:
            continue
    return suite


SUITE = build_suite()
SUITE_IDS = [t.label() for t in SUITE]


def per_l_counts(report, t: Triple) -> tuple[tuple[int, int], ...]:
    """The count's (l, count) at l = 0 .. floor c from its stops and parity sectors:
    count(l) = #{s in sectors[l mod 2] : l < stops[s]}."""
    return tuple((l, sum(l < report.stops[s] for s in report.sectors[l % 2]))
                 for l in range(math.isqrt(t.c_squared) + 1))


@pytest.fixture(scope="session")
def suite():
    return SUITE


@pytest.fixture(autouse=True)
def cold_spectral_memo():
    """Every test starts from an empty memo of spectral requests, so a test that counts solves
    counts its own and none that an earlier test left in the memo."""
    spectral._sector_eigenvalues.cache_clear()
