"""Closed-form layer: exponents, amplitudes, profiles, classifiers."""

import math

import numpy as np
import pytest

from absorblab import (
    PowerPair,
    classify_regime,
    elliptic_constants,
    eval_elliptic,
    eval_flat,
    flat_constants,
    wellposedness,
)


def _random_superlinear_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        p = rng.uniform(0.4, 3.5)
        q = rng.uniform(0.4, 3.5)
        if p * q >= 1.25:
            pairs.append((p, q))
    return pairs


class TestPowerPair:
    def test_hand_values(self):
        pair = PowerPair(2, 2)
        assert pair.a == pytest.approx(1.0, abs=1e-15)
        assert pair.b == pytest.approx(1.0, abs=1e-15)
        pair = PowerPair(2, 3)
        assert pair.a == pytest.approx(0.6, abs=1e-15)
        assert pair.b == pytest.approx(0.8, abs=1e-15)
        pair = PowerPair(0.5, 3)
        assert pair.a == pytest.approx(3.0, rel=1e-14)
        assert pair.b == pytest.approx(8.0, rel=1e-14)

    def test_sublinear_reports_raw_negative_values(self):
        pair = PowerPair(0.5, 0.5)
        assert pair.a < 0 and pair.b < 0

    def test_rejects_pq_one(self):
        with pytest.raises(ValueError):
            PowerPair(2, 0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PowerPair(-1, 2)
        with pytest.raises(ValueError):
            PowerPair(2, 0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(0.3, 3.0)
            q = rng.uniform(0.3, 3.0)
            if abs(p * q - 1.0) < 0.05:
                continue
            ab_pair = PowerPair(p, q)
            ba_pair = PowerPair(q, p)
            assert ab_pair.a == pytest.approx(ba_pair.b, rel=1e-14)
            assert ab_pair.b == pytest.approx(ba_pair.a, rel=1e-14)


class TestFlatConstants:
    def test_symmetric_two(self):
        consts = flat_constants(PowerPair(2, 2))
        assert consts.a_star == pytest.approx(1.0, rel=1e-14)
        assert consts.b_star == pytest.approx(1.0, rel=1e-14)

    def test_two_three(self):
        consts = flat_constants(PowerPair(2, 3))
        assert consts.a_star == pytest.approx((48 / 125) ** 0.2, rel=1e-13)
        assert consts.b_star == pytest.approx((108 / 625) ** 0.2, rel=1e-13)

    @pytest.mark.parametrize("big_q", [1.5, 2.0, 3.0, 5.0])
    def test_scalar_consistency(self, big_q):
        # p = q = Q collapses onto the scalar amplitude (Q-1)^(-1/(Q-1))
        consts = flat_constants(PowerPair(big_q, big_q))
        expected = (big_q - 1.0) ** (-1.0 / (big_q - 1.0))
        assert consts.a_star == pytest.approx(expected, rel=1e-12)

    def test_rejects_sublinear(self):
        with pytest.raises(ValueError):
            flat_constants(PowerPair(0.5, 0.5))

    def test_amplitude_system_resubstitution(self):
        # a A = B**p and b B = A**q pin the amplitudes uniquely
        rng = np.random.default_rng(7)
        for p, q in _random_superlinear_pairs(rng, 50):
            pair = PowerPair(p, q)
            consts = flat_constants(pair)
            lhs_u = pair.a * consts.a_star
            lhs_v = pair.b * consts.b_star
            assert lhs_u == pytest.approx(consts.b_star**p, rel=1e-10)
            assert lhs_v == pytest.approx(consts.a_star**q, rel=1e-10)


class TestEvalFlat:
    def test_values(self):
        pair = PowerPair(2, 2)
        assert eval_flat(pair, 1.0) == pytest.approx((1.0, 1.0), rel=1e-14)
        assert eval_flat(pair, 2.0) == pytest.approx((0.5, 0.5), rel=1e-14)

    @pytest.mark.parametrize("big_q, t, value", [(2, 1.0, 1.0), (3, 0.5, 1.0), (2, 0.1, 10.0)])
    def test_scalar_decay_profile(self, big_q, t, value):
        # at p = q = Q the flat solution is the scalar profile ((Q-1)t)^(-1/(Q-1))
        assert eval_flat(PowerPair(big_q, big_q), t) == pytest.approx((value, value), rel=1e-14)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            eval_flat(PowerPair(2, 2), 0.0)

    def test_ode_identity_at_t_one(self):
        pair = PowerPair(2, 2)
        delta = 1e-5
        up = eval_flat(pair, 1.0 + delta)[0]
        um = eval_flat(pair, 1.0 - delta)[0]
        v = eval_flat(pair, 1.0)[1]
        assert abs((up - um) / (2 * delta) + v**pair.p) < 1e-8

    def test_ode_identity_random_pairs(self):
        # central finite differences on u(t) against -v**p, across times
        rng = np.random.default_rng(23)
        for p, q in _random_superlinear_pairs(rng, 100):
            pair = PowerPair(p, q)
            for t in (0.5, 1.0, 2.0):
                delta = 1e-5 * t
                up = eval_flat(pair, t + delta)[0]
                um = eval_flat(pair, t - delta)[0]
                vp = eval_flat(pair, t)[1] ** pair.p
                assert abs((up - um) / (2 * delta) + vp) <= 1e-6 * vp


class TestEllipticConstants:
    def test_symmetric_dim_one(self):
        consts = elliptic_constants(PowerPair(2, 2), 1)
        assert consts.a_sub == pytest.approx(6.0, rel=1e-12)
        assert consts.b_sub == pytest.approx(6.0, rel=1e-12)

    def test_symmetric_dim_three(self):
        consts = elliptic_constants(PowerPair(2, 2), 3)
        assert consts.a_sub == pytest.approx(2.0, rel=1e-12)

    def test_symmetry_under_swap(self):
        consts = elliptic_constants(PowerPair(2.5, 2.5), 1)
        assert consts.a_sub == consts.b_sub

    def test_rejects_flat_profile_dimension(self):
        # p = q = 2 gives 2a = 2b = 2, not above N - 2 = 3
        with pytest.raises(ValueError):
            elliptic_constants(PowerPair(2, 2), 5)

    @pytest.mark.parametrize("p,q,dim_n", [(2, 2, 1), (2, 3, 1), (2, 2, 3), (1.5, 3, 2)])
    def test_direct_differentiation_oracle(self, p, q, dim_n):
        # second differences of A r^(-2a) must reproduce (B r^(-2b))**p
        pair = PowerPair(p, q)
        consts = elliptic_constants(pair, dim_n)
        h = 1e-5
        for r in (0.5, 0.8):
            u = lambda x: consts.a_sub * x ** (-2 * pair.a)
            v_val = consts.b_sub * r ** (-2 * pair.b)
            lap = (u(r - h) - 2 * u(r) + u(r + h)) / h**2
            lap += (dim_n - 1) / r * (u(r + h) - u(r - h)) / (2 * h)
            assert abs(lap - v_val**pair.p) <= 1e-5 * v_val**pair.p

    def test_resubstitution_fixes_b_amplitude(self):
        # B * 2b(2b+2-N) = A**q, the identity that distinguishes the q power
        pair = PowerPair(2, 3)
        consts = elliptic_constants(pair, 1)
        lhs = consts.b_sub * 2 * pair.b * (2 * pair.b + 2 - 1)
        assert lhs == pytest.approx(consts.a_sub**pair.q, rel=1e-10)
        corrected = (
            2 * pair.b * (2 * pair.b + 2 - 1)
            * (2 * pair.a * (2 * pair.a + 2 - 1)) ** pair.q
        )
        assert consts.b_sub ** (pair.p * pair.q - 1) == pytest.approx(corrected, rel=1e-10)

    def test_eval_elliptic_floors_the_origin(self):
        pair = PowerPair(2, 2)
        consts = elliptic_constants(pair, 1)
        u, v = eval_elliptic(pair, consts, np.array([-0.5, 0.0, 0.5]))
        assert np.isfinite(u).all() and np.isfinite(v).all()
        assert u[0] == pytest.approx(6.0 / 0.25, rel=1e-12)


class TestLargeExponentConstants:
    """b**p underflows at large p; the amplitudes come from logarithms there."""

    @pytest.mark.parametrize("p", [200.0, 300.0])
    def test_flat_amplitudes_in_log_form(self, p):
        pair = PowerPair(p, 2)
        c = flat_constants(pair)
        assert 0 < c.a_star < math.inf and 0 < c.b_star < math.inf
        # a A = B**p and b B = A**q
        log_a, log_b = math.log(c.a_star), math.log(c.b_star)
        assert math.log(pair.a) + log_a == pytest.approx(p * log_b, rel=1e-12)
        assert math.log(pair.b) + log_b == pytest.approx(2 * log_a, rel=1e-12)

    @pytest.mark.parametrize("p", [200.0, 300.0])
    def test_elliptic_amplitudes_in_log_form(self, p):
        pair = PowerPair(p, 2)
        c = elliptic_constants(pair, 1)
        assert 0 < c.a_sub < math.inf and 0 < c.b_sub < math.inf
        # A L(2a) = B**p and B L(2b) = A**q, with L(g) = g (g + 2 - N)
        lap_u = 2 * pair.a * (2 * pair.a + 1)
        lap_v = 2 * pair.b * (2 * pair.b + 1)
        log_a, log_b = math.log(c.a_sub), math.log(c.b_sub)
        assert math.log(lap_u) + log_a == pytest.approx(p * log_b, rel=1e-12)
        assert math.log(lap_v) + log_b == pytest.approx(2 * log_a, rel=1e-12)

    # (p, q): flat (A*, B*), elliptic N = 1 (A, B), as float.hex before the
    # log-space fallback; a normal product keeps the direct expression
    BITS = {
        (2, 2): ("0x1.0000000000000p+0", "0x1.0000000000000p+0",
                 "0x1.8000000000001p+2", "0x1.8000000000001p+2"),
        (2, 3): ("0x1.a6cd1b1920480p-1", "0x1.68651c15414f7p-1",
                 "0x1.12e5526ef24cbp+1", "0x1.30c87e4b7b72ap+1"),
        (1.5, 1.5): ("0x1.0000000000000p+2", "0x1.0000000000000p+2",
                     "0x1.9000000000004p+8", "0x1.9000000000004p+8"),
    }

    @pytest.mark.parametrize("p, q", BITS)
    def test_normal_products_keep_their_bits(self, p, q):
        pair = PowerPair(p, q)
        flat = flat_constants(pair)
        elliptic = elliptic_constants(pair, 1)
        got = (flat.a_star, flat.b_star, elliptic.a_sub, elliptic.b_sub)
        assert tuple(x.hex() for x in got) == self.BITS[(p, q)]


class TestClassifyRegime:
    def test_two_two_dim_one(self):
        report = classify_regime(PowerPair(2, 2), 1)
        assert report.superlinear and not report.sublinear
        assert report.measure_subcritical
        assert not report.removable_supercritical
        assert report.elliptic_singular_exists

    def test_three_three_dim_one(self):
        report = classify_regime(PowerPair(3, 3), 1)
        assert report.removable_supercritical

    def test_sublinear(self):
        report = classify_regime(PowerPair(0.5, 0.5), 2)
        assert report.sublinear and not report.superlinear

    def test_exclusivity_and_implication(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.uniform(0.3, 4.0)
            q = rng.uniform(0.3, 4.0)
            if abs(p * q - 1.0) < 0.05:
                continue
            for dim_n in (1, 2, 3):
                report = classify_regime(PowerPair(p, q), dim_n)
                assert not (report.superlinear and report.sublinear)
                if report.removable_supercritical:
                    assert not report.measure_subcritical

    def test_subcriticality_monotone_in_dimension(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = rng.uniform(0.3, 4.0)
            q = rng.uniform(0.3, 4.0)
            if abs(p * q - 1.0) < 0.05:
                continue
            pair = PowerPair(p, q)
            seen_false = False
            for dim_n in range(1, 11):
                flag = classify_regime(pair, dim_n).measure_subcritical
                if seen_false:
                    assert not flag
                seen_false = seen_false or not flag


class TestWellposedness:
    def test_integrable_data_dim_one(self):
        verdict = wellposedness(PowerPair(2, 2), 1, 1.0, 1.0)
        assert verdict.existence and verdict.uniqueness

    def test_integrable_data_dim_three(self):
        verdict = wellposedness(PowerPair(2, 2), 3, 1.0, 1.0)
        assert not verdict.existence

    def test_bounded_data_always_exists(self):
        for dim_n in (1, 2, 3, 7):
            verdict = wellposedness(PowerPair(3, 4), dim_n, math.inf, math.inf)
            assert verdict.existence

    def test_rejects_orders_below_one(self):
        with pytest.raises(ValueError):
            wellposedness(PowerPair(2, 2), 1, 0.5, 1.0)

    def test_uniqueness_requires_existence(self):
        # p/lam - 1/theta small but existence already fails
        verdict = wellposedness(PowerPair(2, 2), 3, 1.0, 1.0)
        assert not verdict.uniqueness


@pytest.mark.parametrize("call", [
    lambda: elliptic_constants(PowerPair(2, 2), 0),
    lambda: classify_regime(PowerPair(2, 2), 0),
    lambda: wellposedness(PowerPair(2, 2), 0, 1.0, 1.0),
], ids=["elliptic_constants", "classify_regime", "wellposedness"])
def test_dimension_below_one_raises(call):
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        call()
