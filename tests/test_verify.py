"""Verification report aggregation."""

import pytest

import lawson.spectral as spectral
from lawson import Case, run_verification, validate


EXPECTED_CHECKS = [
    "unit_norm",
    "lame",
    "separated_ode",
    "laplace_eigenfunction",
    "area",
    "anchors",
    "symmetry",
    "count",
    "interlacing",
]


class TestRunVerification:
    @pytest.mark.parametrize(
        "case,params",
        [
            (Case.GENERALIZED, (0, 0, 1)),
            (Case.GENERALIZED, (1, 0, 2)),
            (Case.GENERALIZED, (1, 2, 3)),
            (Case.LAWSON, (2, 1)),
        ],
    )
    def test_suite_members_pass(self, case, params):
        report = run_verification(validate(case, *params), grid_n=2048)
        assert report.status == "ok"
        assert [c.name for c in report.checks] == EXPECTED_CHECKS
        assert all(c.passed for c in report.checks)

    def test_deep_mode_measures_orders(self):
        report = run_verification(validate(Case.GENERALIZED, 1, 1, 2), grid_n=2048, deep=True)
        assert report.status == "ok"
        anchors = next(c for c in report.checks if c.name == "anchors")
        assert all(1.8 <= o <= 2.2 for o in anchors.values["orders"])
        count = next(c for c in report.checks if c.name == "count")
        assert count.values["n2_refined"] == count.values["n2"]

    def test_tolerance_record(self):
        report = run_verification(validate(Case.GENERALIZED, 0, 0, 1), grid_n=2048)
        tolerances = report.tolerances()
        assert set(tolerances) == set(EXPECTED_CHECKS)
        assert "1e-10" in tolerances["separated_ode"]

    def test_each_sector_solved_once_per_grid(self, monkeypatch):
        """Anchors, count and interlacing share one table per grid: T_(5,7,13)
        needs l = 0..14 in four sectors, once at grid_n and once at 2 grid_n."""
        solve = spectral._sector_eigenvalues
        calls = []

        def counted(problem, grid_n, sector, k):
            calls.append((grid_n, problem.l, sector))
            return solve(problem, grid_n, sector, k)

        monkeypatch.setattr(spectral, "_sector_eigenvalues", counted)
        spectral._table.cache_clear()
        report = run_verification(validate(Case.GENERALIZED, 5, 7, 13), grid_n=2048, deep=True)
        assert report.status == "ok"
        assert len(calls) == len(set(calls)) == 2 * 4 * (13 + 2)
        assert sum(1 for n, _, _ in calls if n == 2048) == 4 * (13 + 2)
