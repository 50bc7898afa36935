"""Chord/tangent geometry, normalization, Hensel lifting, enumeration."""

import random

import numpy as np
import pytest

import cubicloop.surface as surface
import oracles
from cubicloop.eisenstein import (
    ONE,
    PI,
    THETA,
    ZERO,
    PrecisionExhausted,
    RingElt,
    nu,
)
from cubicloop.surface import (
    HENSEL_INDEX,
    HenselCriterionFailed,
    LambdaParams,
    PointsCoincide,
    ProjPoint,
    all_params,
    canonical_form,
    chord,
    compose_parametric,
    enumerate_classes,
    eval_form,
    lift_representative,
    normalize,
    random_lift,
    residue_tuple,
)

U0 = ProjPoint((ONE, -ONE, ZERO, ZERO))
U1 = ProjPoint((ONE, ZERO, -ONE, ZERO))
Q2 = ProjPoint((ZERO, ONE, -THETA, ZERO))


class TestEvalForm:
    def test_exact_zero(self):
        assert eval_form(U0).is_zero()

    def test_unit_value(self):
        assert eval_form(ProjPoint((ONE, ONE, ONE, ZERO))) == RingElt(3)

    def test_near_surface_residue(self):
        # the canonical mod-pi^3 tuple of a class solves F only to nu = 5
        p = ProjPoint(residue_tuple(LambdaParams("P", 0, (1, 0, 0))))
        assert nu(eval_form(p)) == 5


class TestNormalize:
    def test_worked_example(self):
        p = ProjPoint((-(THETA**2) + PI**2, THETA, PI, -PI * THETA**2))
        cf = normalize(p, 3)
        assert cf.pivot == 0
        assert cf.coords == ((1, 0, 0), (-1, -1, 1), (0, -1, 1), (0, 1, 0))

    def test_pivot_conditions(self):
        rng = random.Random(11)
        params = all_params()
        for _ in range(30):
            lp = params[rng.randrange(len(params))]
            cf = normalize(random_lift(lp, 12, rng.randrange(1 << 30)), 3)
            assert cf.coords[cf.pivot] == (1, 0, 0)
            for i in range(cf.pivot):
                assert cf.coords[i][0] == 0

    def test_scales_out_common_valuation(self):
        p = ProjPoint((PI**2, -(PI**2), ZERO, ZERO))
        cf = normalize(p, 3)
        assert cf.pivot == 0 and cf.coords[1] == (-1, 0, 0)

    def test_zero_point_rejected(self):
        with pytest.raises(PrecisionExhausted):
            normalize(ProjPoint((ZERO, ZERO, ZERO, ZERO)), 3)

    def test_insufficient_precision_rejected(self):
        with pytest.raises(PrecisionExhausted):
            normalize(ProjPoint(U0.coords, 2), 3)


class TestPointPrecision:
    """Coordinates are exact; the point's prec is the only precision, and
    these are the guards that read it."""

    def test_valuation_is_capped_at_the_point_precision(self):
        coords = (PI**3, PI**4, ZERO, PI**5)
        assert normalize(ProjPoint(coords), 1).pivot == 0
        with pytest.raises(PrecisionExhausted):
            normalize(ProjPoint(coords, 3), 1)

    def test_form_point_refuses_deeper_digits(self):
        form = canonical_form(all_params()[100])
        p = form.as_point()
        assert p.prec == form.depth == 3
        assert normalize(p, 3) == form
        with pytest.raises(PrecisionExhausted):
            normalize(p, 4)
        with pytest.raises(PrecisionExhausted):
            form.truncate(4)

    def test_chord_works_at_the_lower_precision(self):
        params = all_params()
        p = lift_representative(params[40], 12)
        q = lift_representative(params[150], 8)
        r, trace = chord(p, q)
        assert r.prec == chord(q, p)[0].prec == 8
        vmin = min(nu(c) for c in r.coords)
        assert trace.margin == 8 - vmin - 3
        normalize(r, 3, margin=trace.margin)
        with pytest.raises(PrecisionExhausted):
            normalize(r, 3, margin=trace.margin + 1)


class TestChord:
    def test_swap_on_u0(self):
        r, trace = chord(U0, U1)
        assert normalize(r, 3) == normalize(ProjPoint((ZERO, ONE, -ONE, ZERO)), 3)
        assert trace.margin == float("inf")

    def test_known_pair(self):
        r, _ = chord(U1, Q2)
        assert normalize(r, 3) == normalize(ProjPoint((-THETA, ONE, ZERO, ZERO)), 3)

    def test_generic_swap(self):
        # the chord through U0 swaps the first two coordinates of any point
        rng = random.Random(5)
        for _ in range(10):
            lp = all_params()[rng.randrange(243)]
            p = random_lift(lp, 12, rng.randrange(1 << 30))
            r, _ = chord(U0, p)
            swapped = ProjPoint((p.coords[1], p.coords[0], p.coords[2], p.coords[3]), p.prec)
            assert normalize(r, 3) == normalize(swapped, 3)

    def test_output_on_surface(self):
        rng = random.Random(17)
        for _ in range(20):
            lp1 = all_params()[rng.randrange(243)]
            lp2 = all_params()[rng.randrange(243)]
            p = random_lift(lp1, 12, rng.randrange(1 << 30))
            q = random_lift(lp2, 12, rng.randrange(1 << 30))
            try:
                r, _ = chord(p, q)
            except (PointsCoincide, PrecisionExhausted):
                continue
            assert oracles.check_on_surface(r.coords, r.prec)

    def test_symmetry_and_involution(self):
        rng = random.Random(23)
        p = random_lift(all_params()[40], 12, rng.randrange(1 << 30))
        q = random_lift(all_params()[150], 12, rng.randrange(1 << 30))
        r1, _ = chord(p, q)
        r2, _ = chord(q, p)
        assert normalize(r1, 3) == normalize(r2, 3)
        back, _ = chord(r1, q)
        assert normalize(back, 3) == normalize(p, 3)

    def test_coincident_points(self):
        with pytest.raises(PointsCoincide):
            chord(U0, ProjPoint((RingElt(2), RingElt(-2), ZERO, ZERO)))


class TestTangent:
    def test_eckhardt_collapse(self):
        for d in ((ONE, -ONE, ONE, ZERO), (ZERO, ZERO, ZERO, ONE)):
            out = oracles.tangent_section_point(U0, d)
            assert normalize(out, 3) == normalize(U0, 3)

    def test_not_tangent(self):
        with pytest.raises(oracles.NotTangentDirection):
            oracles.tangent_section_point(U0, (ONE, ZERO, ZERO, ZERO))

    def test_contraction_at_generic_point(self):
        rng = random.Random(31)
        p = random_lift(all_params()[100], 12, rng.randrange(1 << 30))
        for _ in range(5):
            d = oracles.tangent_direction(p, rng)
            out = oracles.tangent_section_point(p, d)
            assert normalize(out, 3) == normalize(p, 3)


class TestHensel:
    def test_criterion_failure(self, monkeypatch):
        # a Hensel coordinate moved by 3 gives a tuple with nu(F) = 4, which
        # fails the criterion nu(F) > 2*nu(3x^2) = 4; the pi^3 and pi^4 bumps
        # of a random lift leave nu(F) at 4
        def shifted(lp):
            coords = list(residue_tuple(lp))
            coords[HENSEL_INDEX[lp.family]] += 3
            return tuple(coords)

        monkeypatch.setattr(surface, "residue_tuple", shifted)
        for lp in all_params()[::40]:
            assert nu(eval_form(ProjPoint(shifted(lp)))) == 4
            with pytest.raises(HenselCriterionFailed):
                lift_representative(lp, 12)
            with pytest.raises(HenselCriterionFailed):
                random_lift(lp, 12, 5)

    def test_step_without_progress_is_refused(self, monkeypatch):
        lp = LambdaParams("P", 0, (1, 0, -1))
        assert nu(eval_form(ProjPoint(residue_tuple(lp)))) < 12
        # a zero Newton step leaves x, and so nu(F), where they are
        monkeypatch.setattr(surface, "div_exact", lambda *args: ZERO)
        with pytest.raises(PrecisionExhausted):
            lift_representative(lp, 12)


class TestLifting:
    def test_representative_contract(self):
        rng = random.Random(41)
        for _ in range(15):
            lp = all_params()[rng.randrange(243)]
            p = lift_representative(lp, 12)
            assert nu(eval_form(p)) >= 12
            assert normalize(p, 3) == canonical_form(lp)

    def test_random_lift_stays_in_class(self):
        rng = random.Random(43)
        for _ in range(10):
            lp = all_params()[rng.randrange(243)]
            seed = rng.randrange(1 << 30)
            p = random_lift(lp, 12, seed)
            assert nu(eval_form(p)) >= 12
            assert normalize(p, 3) == canonical_form(lp)

    def test_random_lifts_differ_below_class_level(self):
        lp = LambdaParams("Q", 1, (0, 1, -1))
        a = random_lift(lp, 12, 1)
        b = random_lift(lp, 12, 2)
        assert normalize(a, 3) == normalize(b, 3)
        assert normalize(a, 5) != normalize(b, 5)

    def test_deterministic(self):
        lp = LambdaParams("R", 2, (1, 0, 0))
        a = random_lift(lp, 12, 99)
        b = random_lift(lp, 12, 99)
        assert all(nu(x - y) >= 12 for x, y in zip(a.coords, b.coords))


class TestDraw:
    # 2^63 and 2^64 - 1 set the top bit of the key; 2^64 and -1 wrap mod 2^64
    KEYS = [0, 1, 242, 1 << 63, (1 << 64) - 1, 1 << 64, -1]
    KEYS += map(random.Random(47).getrandbits, [64] * 9)

    @pytest.mark.parametrize("bound", [3, 242, 243, 1 << 30, (1 << 62) + 1])
    def test_equals_the_python_splitmix64(self, bound):
        keys = np.array(self.KEYS, dtype=object)
        got = surface._draw(bound, 5, keys[:, None], keys)
        want = [[oracles.splitmix_draw(bound, 5, a, b) for b in self.KEYS] for a in self.KEYS]
        assert got.dtype == np.int64 and got.tolist() == want

    def test_int_keys_draw_as_object_keys(self):
        # the int64 path, keys below 2^63, and the scalar path
        keys = [k for k in self.KEYS if 0 <= k < 1 << 63]
        got = surface._draw(243, 2, np.array(keys), 7).tolist()
        assert got == [oracles.splitmix_draw(243, 2, k, 7) for k in keys]
        assert surface._draw(243, 2, 1, 7).tolist() == [oracles.splitmix_draw(243, 2, 1, 7)]


class TestEnumeration:
    def test_counts(self):
        assert [len(enumerate_classes(n)) for n in (1, 2, 3)] == [3, 27, 243]

    def test_forms_distinct(self):
        for n in (1, 2, 3):
            forms = enumerate_classes(n)
            assert len({oracles.key(cf) for cf in forms}) == len(forms)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_bruteforce_oracle(self, n):
        got = {oracles.key(cf) for cf in enumerate_classes(n)}
        assert got == oracles.liftable_tuples(n)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            enumerate_classes(4)


class TestParametricComposition:
    def test_worked_example(self):
        got = compose_parametric(
            LambdaParams("P", 0, (1, 0, 0)), LambdaParams("Q", 0, (0, 0, 0))
        )
        expected = normalize(
            ProjPoint((PI, -ONE + PI**2, ONE, -PI), 3), 3
        )
        assert got == expected

    def test_matches_chord(self):
        rng = random.Random(53)
        for _ in range(25):
            lp_p = LambdaParams(
                "P", rng.randrange(3), tuple(rng.randrange(-1, 2) for _ in range(3))
            )
            lp_q = LambdaParams(
                "Q", rng.randrange(3), tuple(rng.randrange(-1, 2) for _ in range(3))
            )
            r, _ = chord(lift_representative(lp_p, 12), lift_representative(lp_q, 12))
            assert compose_parametric(lp_p, lp_q) == normalize(r, 3)

    def test_family_restriction(self):
        with pytest.raises(ValueError):
            compose_parametric(
                LambdaParams("Q", 0, (0, 0, 0)), LambdaParams("Q", 0, (0, 0, 0))
            )


class TestLambdaParams:
    @pytest.mark.parametrize(
        "family,exp,digits",
        [("X", 0, (0, 0, 0)), ("P", 3, (0, 0, 0)), ("P", 0, (2, 0, 0)), ("P", 0, (0, 0))],
    )
    def test_validation(self, family, exp, digits):
        with pytest.raises(ValueError):
            LambdaParams(family, exp, digits)
