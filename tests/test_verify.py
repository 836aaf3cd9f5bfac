"""Verification report aggregation."""

import math
import random

import pytest

import lawson.spectral as spectral
import lawson.surface as surface
import lawson.verify as verify
from lawson import Case, IndeterminateCountError, anchor_check, run_verification, validate
from lawson.cli import render_json


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


def _floats(values):
    """Every float in a check's values, through nested dicts and lists."""
    if isinstance(values, float):
        yield values
    elif isinstance(values, (dict, list, tuple)):
        for v in values.values() if isinstance(values, dict) else values:
            yield from _floats(v)


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
        assert anchors.values["orders"]
        assert all(1.8 <= o <= 2.2 for o in anchors.values["orders"])
        count = next(c for c in report.checks if c.name == "count")
        assert count.values["n2_refined"] == count.values["n2"]

    def test_indeterminate_recount_makes_the_report_indeterminate(self, monkeypatch):
        """The doubled grid's recount is the evidence of "grid-stable": when its certificate
        fails, the deep report is indeterminate, while the report at the grid alone is ok."""
        count = verify.count_N2

        def refined_fails(t, grid_n):
            if grid_n == 4096:
                raise IndeterminateCountError("indeterminate count; refine grid")
            return count(t, grid_n)

        monkeypatch.setattr(verify, "count_N2", refined_fails)
        t = validate(Case.GENERALIZED, 1, 2, 3)
        assert run_verification(t, grid_n=2048).status == "ok"
        report = run_verification(t, grid_n=2048, deep=True)
        assert report.status == "indeterminate"
        check = next(c for c in report.checks if c.name == "count")
        assert not check.passed and "indeterminate" in check.values["error"]

    def test_deep_anchor_at_its_rounding_floor_passes(self):
        """T_(1,1,5)'s lambda_0 anchor is exact on the grid: its residuals, 5.8e-11 at 2048 and
        2.3e-10 at 4096, are rounding, which grows as 1 / h^2.  They lie below the derived floors,
        so they measure no order; a fixed floor of 1e-11 read them as order -2 and failed."""
        t = validate(Case.GENERALIZED, 1, 1, 5)
        report = run_verification(t, grid_n=2048, deep=True)
        anchors = next(c for c in report.checks if c.name == "anchors")
        assert anchors.values["floors"] == [anchor_check(t, 2048)[2], anchor_check(t, 4096)[2]]
        coarse, fine = anchor_check(t, 2048)[0], anchor_check(t, 4096)[0]
        assert coarse[0] <= anchors.values["floors"][0] and fine[0] <= anchors.values["floors"][1]
        assert len(anchors.values["orders"]) == 2
        assert anchors.passed and report.status == "ok"

    def test_deep_anchor_orders_above_the_floor_are_measured(self):
        """T_(5,7,13)'s lambda_1 and lambda_2 residuals (1.1e-6 and 1.3e-6 at 2048) lie far above
        the floors (9.0e-10 at 2048, 3.6e-9 at 4096), so their orders are measured."""
        t = validate(Case.GENERALIZED, 5, 7, 13)
        anchors = verify._anchor_check(t, 2048, deep=True)
        floors = anchors.values["floors"]
        for r1, r2 in zip(anchor_check(t, 2048)[0][1:], anchor_check(t, 4096)[0][1:]):
            assert r1 > floors[0] and r2 > floors[1]
        assert len(anchors.values["orders"]) >= 2
        assert anchors.passed

    def test_tolerance_record(self):
        report = run_verification(validate(Case.GENERALIZED, 0, 0, 1), grid_n=2048)
        tolerances = report.tolerances()
        assert set(tolerances) == set(EXPECTED_CHECKS)
        assert "1e-10" in tolerances["separated_ode"]

    def test_each_sector_solved_once_per_grid(self, monkeypatch):
        """Anchors and interlacing share one solve per (l, grid), and the count solves none in y:
        T_(5,7,13) needs the anchors l = 13, 7, 5 at both grids, and interlacing reads its gaps
        there and solves nothing more.  Each sector is asked once for its share of the lowest
        four eigenvalues, NN for 2 and ND, DN and DD for 1, and never solved again.  Each grid's
        spectra are one request, so one factoring call per grid."""
        lanczos, factors = spectral._lanczos, spectral._factors
        asked, columns, factored = [], [], []

        def recorded(where, ld, le, sigma, k, basis):
            asked.append(k)
            return lanczos(where, ld, le, sigma, k, basis)

        def factored_once(t, grid_n, cols):
            factored.append(grid_n)
            columns.extend((grid_n, l, sector) for l, sector in cols)
            return factors(t, grid_n, cols)

        monkeypatch.setattr(spectral, "_lanczos", recorded)
        monkeypatch.setattr(spectral, "_factors", factored_once)
        report = run_verification(validate(Case.GENERALIZED, 5, 7, 13), grid_n=2048, deep=True)
        assert report.status == "ok"
        calls = [(*column, k) for column, k in zip(columns, asked, strict=True)]
        assert len(calls) == len(set(calls)) == 12 + 12
        assert {k for *_, k in calls} == {1, 2}
        assert [k for n, l, sector, k in calls if sector == "NN"] == [2] * 6
        assert {l for n, l, *_ in calls if n == 2048} == {5, 7, 13}
        assert {l for n, l, *_ in calls if n == 4096} == {5, 7, 13}
        assert [n for n, *_ in calls] == [2048] * 12 + [4096] * 12
        assert factored == [2048, 4096]

    def test_one_evaluation_per_closed_form_check(self, monkeypatch):
        """The separated-ODE and Lame checks each form the three profiles once, and the symmetry
        check reads one immersion for all three half-period maps.  ``lawson.surface.immersion``
        is read there by ``symmetry_residual`` alone (unit_norm calls ``verify``'s own name)."""
        calls = {"_profiles": 0, "immersion": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(spectral, "_profiles")
        counted(surface, "immersion")
        report = run_verification(validate(Case.GENERALIZED, 1, 2, 3), grid_n=2048)
        assert report.status == "ok"
        assert calls == {"_profiles": 2, "immersion": 1}

    @pytest.mark.parametrize(
        "abc,deep,rungs",
        [
            ((1, 2, 3), False, (128, 256)),
            ((1, 2, 3), True, (128, 256, 512)),
            ((5, 7, 32), False, (128, 256)),
            ((5, 7, 33), False, (256, 512)),
            ((60, 80, 101), False, (512, 1024)),
            ((1, 2, 150), True, (1024, 2048, 4096)),
        ],
    )
    def test_minimality_ladder_scales_with_the_frequencies(self, abc, deep, rungs):
        """The first rung is the least power of two >= max(128, 4 max(a, b, c))."""
        check = verify._takahashi_check(validate(Case.GENERALIZED, *abc), deep)
        assert [k for k in check.values if k.startswith("residual_")] == [
            f"residual_n{n}" for n in rungs
        ]

    def test_high_frequency_surface_is_minimal(self):
        """At T_(1,2,150) the rungs 128 and 256 are pre-asymptotic (ratio about 1.3);
        from 1024 on the residual falls by 4 per doubling."""
        report = run_verification(validate(Case.GENERALIZED, 1, 2, 150), grid_n=2048)
        ladder = next(c for c in report.checks if c.name == "laplace_eigenfunction")
        assert ladder.passed
        assert report.status == "ok"

    @pytest.mark.parametrize("case,params", [
        (Case.GENERALIZED, (1, 2, 1500)), (Case.GENERALIZED, (2, 1531, 2871)),
        (Case.GENERALIZED, (1, 1000, 1001)), (Case.LAWSON, (1000, 1)),
    ], ids=["T_(1,2,1500)", "T_(2,1531,2871)", "T_(1,1000,1001)", "tau_(1000,1)"])
    def test_count_passes_at_high_c(self, case, params):
        """The count check passes at the default grid where the count on the y-grid did not: a
        non-anchor eigenvalue within 1.6e-5 of 2 made the first three indeterminate, and
        tau_(1000,1) counted n2 = 1998 against j = 2000."""
        t = validate(case, *params)
        count, indeterminate = verify._count_check(t, 2048, False)
        assert count.passed and not indeterminate
        assert count.values["n2"] == count.values["j_closed"]

    @pytest.mark.parametrize("abc", [(1, 2, 2**64 - 1), (1, 2, 10**77), (1, 2, 2**509),
                                     (10**15, 10**15 + 1, 2 * 10**15)],
                             ids=["T_(1,2,2^64-1)", "T_(1,2,10^77)", "T_(1,2,2^509)",
                                  "T_(10^15,10^15+1,2*10^15)"])
    def test_every_check_but_minimality_passes_at_a_huge_c(self, monkeypatch, abc):
        """Every check but the minimality residual, whose ladder grows with c, passes at grid
        2048 up to c = 2^509, near the c^2 < 2^1020 bound: the count's stops are Python integers,
        not the length of a range (at most 2^63 - 1), the area's nodes come from the strip of
        the surface's modulus, with no c^2-sized square, and the interlacing bar roots each
        c^2-sized factor before their product, which overflows from c = 2^256 on.  The thin
        Lawson pairs past 2^53 have their own test below, as interlacing fails there."""
        monkeypatch.setattr(verify, "_takahashi_check", lambda t, deep: verify.CheckResult(
            "laplace_eigenfunction", True, {}, "not run"))
        report = run_verification(validate(Case.GENERALIZED, *abc), grid_n=2048)
        assert [c.name for c in report.checks] == EXPECTED_CHECKS
        assert [c.name for c in report.checks if not c.passed] == []
        assert not report.indeterminate

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", [10**8, 10**9], ids=["tau_(10^8,1)", "tau_(10^9,1)"])
    def test_thin_lawson_pairs_past_2_53_keep_p_finite(self, monkeypatch, a):
        """P(0) = b^2 stays exact on tau_(a,1) once a^2 + 1 >= 2^53, where the cos 2y form of P
        read 0 and separated_ode, area and the spectral solves divided by it.  Every check but
        minimality then gives finite values, with no RuntimeWarning, and only interlacing fails:
        its gaps (2.2e-11 and 1.7e-12) sit against item 1's bars of 62 and 6218."""
        monkeypatch.setattr(verify, "_takahashi_check", lambda t, deep: verify.CheckResult(
            "laplace_eigenfunction", True, {}, "not run"))
        report = run_verification(validate(Case.LAWSON, a, 1), grid_n=2048)
        assert [c.name for c in report.checks] == EXPECTED_CHECKS
        assert all(math.isfinite(v) for c in report.checks for v in _floats(c.values))
        assert [c.name for c in report.checks if not c.passed] == ["interlacing"]
        assert not report.indeterminate

    def test_lawson_pairs_pass_lame(self):
        """Every Lawson pair with a^2 + b^2 <= 900, tau_(300,1) and tau_(1000,1) pass lame under its
        rounding bound; 22 of the pairs (k^2 <= -100) failed the former absolute 1e-12."""
        pairs = [(a, b) for a in range(1, 31) for b in range(1, a + 1)
                 if math.gcd(a, b) == 1 and a * a + b * b <= 900] + [(300, 1), (1000, 1)]
        failing = [ab for ab in pairs if not verify._lame_check(validate(Case.LAWSON, *ab)).passed]
        assert len(pairs) == 215 and failing == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a,b", [(2**300, 3), (2**509, 1)],
                             ids=["tau_(2^300,3)", "tau_(2^509,1)"])
    def test_lame_is_finite_at_every_admissible_modulus(self, a, b):
        """k^2 = -4.6e179 and -2.8e306: the residuals and their bound stay finite and the check
        passes, where k^2 times the bracket of dn'', or the unscaled equation, would overflow."""
        check = verify._lame_check(validate(Case.LAWSON, a, b))
        assert all(math.isfinite(v) for v in check.values.values())
        assert check.passed

    @pytest.mark.parametrize("n", [10**7, 10**8], ids=["n=10^7", "n=10^8"])
    def test_separated_ode_reads_the_exact_kp2(self, n):
        """On T_(0, n, n + 1), k'^2 = (2n + 1) / (n + 1)^2 comes from the integers into P and the
        profiles, so component_1, whose terms are at most 2 in size, stays at rounding; from the
        rounded k^2 it read 3.0e-10 and 4.4e-9, above the 1e-10 bar."""
        check = verify._eq35_check(validate(Case.GENERALIZED, 0, n, n + 1))
        assert check.values["component_1"] <= 1e-15
        assert check.passed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_k2_rounding_to_one_keeps_lame_and_area_finite(self):
        """On T_(0, 2^56 - 1, 2^56) k^2 rounds to 1.0 while k'^2 = 2^-55 + ... is carried: lame
        and area pass with no RuntimeWarning, where lame raised on k^2 = 1.0 and the area's
        integrand divided by zero."""
        t = validate(Case.GENERALIZED, 0, 2**56 - 1, 2**56)
        assert verify._lame_check(t).passed
        assert verify._area_check(t).passed

    @pytest.mark.parametrize("m", [101, 10**4 + 1, 2**100 + 1], ids=["m=101", "m=10^4+1", "m=2^100+1"])
    def test_symmetry_near_the_lawson_boundary(self, m):
        """T_(2m, m^2, m^2 + 2) has Q = 4 and c odd: phi1 flips f3 alone, so its residual is
        2 c3 = sqrt(2 / (m^2 + 1)), 0.014 at m = 101 and 1.1e-30 at m = 2^100 + 1, below rounding
        there.  It is no symmetry all the same (c3^2 > 0 from the integers), and the check passes,
        where the former floor of 0.1 on the other maps' residuals failed it."""
        check = verify._symmetry_check(validate(Case.GENERALIZED, 2 * m, m * m, m * m + 2))
        assert check.passed
        assert check.values["expected"] == "none"
        assert check.values["phi1_closed_form"] == pytest.approx(math.sqrt(2 / (m * m + 1)),
                                                                 rel=1e-15)

    def test_an_overflowed_bound_bounds_nothing(self):
        """A check passes only a finite value against a finite bound: inf <= inf fails."""
        assert not verify._at_most("lame", {}, math.inf, math.inf).passed
        assert not verify._at_most("lame", {}, 1.0, math.inf).passed
        assert not verify._at_most("lame", {}, math.nan, 1.0).passed
        assert verify._at_most("lame", {}, 1.0, 1.0).passed

    @pytest.mark.parametrize("deep", [False, True])
    def test_indeterminate_count_states_the_answered_tolerance(self, monkeypatch, deep):
        t = validate(Case.GENERALIZED, 1, 2, 3)
        answered = run_verification(t, grid_n=2048, deep=deep).tolerances()["count"]

        def indeterminate(*args):
            raise IndeterminateCountError("indeterminate count")

        monkeypatch.setattr(verify, "count_N2", indeterminate)
        report = run_verification(t, grid_n=2048, deep=deep)
        assert report.status == "indeterminate"
        count = next(c for c in report.checks if c.name == "count")
        assert count.values == {"error": "indeterminate count"}
        assert count.tolerance == answered
        assert answered == "n2 == closed-form j" + (", grid-stable" if deep else "")

    def test_interlacing_record_reports_both_gaps_and_the_bar(self, monkeypatch):
        """The record holds what interlacing_check reported: each strict gap's smallest value with
        its l and the names of its two eigenvalues, the bar, and the margin bar / smaller gap."""
        check = verify.interlacing_check
        reports = []

        def recorded(t, grid_n):
            reports.append(check(t, grid_n))
            return reports[-1]

        monkeypatch.setattr(verify, "interlacing_check", recorded)
        report = run_verification(validate(Case.GENERALIZED, 1, 2, 3), grid_n=2048)
        interlacing = next(c for c in report.checks if c.name == "interlacing")
        r, = reports
        (g10, l10, *s10), (g32, l32, *s32) = r.gaps
        assert interlacing.values == {
            "lambda1_minus_lambda0": {"gap": g10, "l": l10, "sectors": s10},
            "lambda3_minus_lambda2": {"gap": g32, "l": l32, "sectors": s32},
            "bar": r.bar,
            "margin": r.bar / min(g10, g32),
        }
        assert interlacing.passed and 0.0 < interlacing.values["margin"] < 1.0
        assert {l10, l32} <= {3.0, 2, 1} and s10[1] == "NN_0"

    @pytest.mark.parametrize("grid_n,rule", [(252, ">= 256"), (1030, "divisible by 4")])
    def test_grid_rule_checked_before_any_check(self, monkeypatch, grid_n, rule):
        """A grid the sectors reject fails before the first check runs."""
        immersion = verify.immersion
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return immersion(*args, **kwargs)

        monkeypatch.setattr(verify, "immersion", counted)
        with pytest.raises(ValueError, match=rule):
            run_verification(validate(Case.GENERALIZED, 0, 0, 1), grid_n)
        assert calls == []

    @pytest.mark.parametrize("case,params", [
        (Case.GENERALIZED, (0, 0, 1)), (Case.GENERALIZED, (5, 7, 13)), (Case.LAWSON, (3, 1)),
    ])
    def test_grid_1024_verifies_ok(self, case, params):
        """The count needs no more than the sectors' rule: 1024 answers ok, with m = 256."""
        report = run_verification(validate(case, *params), grid_n=1024)
        assert report.status == "ok"
        count = next(c for c in report.checks if c.name == "count")
        assert count.values["cells"] == 256

    def test_reports_do_not_depend_on_the_memo(self):
        """20 census-range surfaces render the same run in order from an empty memo and then
        in reverse, when the memo holds every spectrum they read."""
        rng = random.Random(30)
        generalized = [(a, b, c) for c in range(1, 31) for b in range(c) for a in range(b + 1)
                       if a * a + b * b < c * c and math.gcd(a, b, c) == 1]
        pairs = [(a, b) for a in range(1, 31) for b in range(1, a + 1)
                 if a * a + b * b <= 900 and math.gcd(a, b) == 1]
        triples = ([validate(Case.GENERALIZED, *abc) for abc in rng.sample(generalized, 15)]
                   + [validate(Case.LAWSON, *ab) for ab in rng.sample(pairs, 5)])

        def render(t):
            report = run_verification(t, grid_n=2048)
            return render_json({"status": report.status, "tolerances": report.tolerances(),
                                "checks": [[c.name, c.passed, c.values] for c in report.checks]})

        forward = [render(t) for t in triples]
        backward = [render(t) for t in reversed(triples)]
        assert forward == backward[::-1]


def test_count_does_not_depend_on_the_grid():
    """count_N2's n2, stops and sectors are functions of the triple: the grid enters only the
    inertia certificate.  Every seventh canonical surface of the census (c <= 30) counts the same
    at grids 256 and 4096, and both certificates hold."""
    generalized = [validate(Case.GENERALIZED, a, b, c) for c in range(1, 31) for b in range(c)
                   for a in range(b + 1) if a * a + b * b < c * c and math.gcd(a, b, c) == 1]
    pairs = [validate(Case.LAWSON, a, b) for a in range(1, 31) for b in range(1, a + 1)
             if a * a + b * b <= 900 and math.gcd(a, b) == 1]
    for t in (generalized + pairs)[::7]:
        coarse, fine = spectral.count_N2(t, 256), spectral.count_N2(t, 4096)
        assert ((coarse.n2, coarse.stops, coarse.sectors)
                == (fine.n2, fine.stops, fine.sectors)), t.label()
