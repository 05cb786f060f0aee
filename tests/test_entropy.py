import math

import numpy as np
import pytest

import mp_reference as R
from lne import (
    EntropyParams,
    aczel_daroczy,
    gm_subadditivity_rhs,
    kapur,
    lne,
    lne_min_entropy_limit,
    log_norm,
    norm_entropy,
    q_log,
    renyi,
    shannon,
    tsallis,
)


def random_weights(rng, n, mass=None):
    w = rng.uniform(0.02, 1.0, size=n)
    return w / w.sum() * (mass if mass is not None else rng.uniform(0.2, 1.0))


def test_value_repr_names_family_and_orders():
    assert repr(lne([0.5, 0.5], (2.0, 1.0))) == (
        "EntropyValue(0.6931471805599453, family='lne', params=(2.0, 1.0))"
    )
    assert repr(shannon([1.0])) == "EntropyValue(0.0, family='shannon', params=())"


class TestShannon:
    def test_degenerate(self):
        assert shannon([1.0, 0.0]) == 0.0

    def test_uniform(self):
        assert float(shannon([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-15)
        assert float(shannon([0.5, 0.5])) == pytest.approx(0.693, abs=5e-4)

    def test_subprobability_form(self):
        # oracle: -(1/W) sum p log p evaluated directly
        w = np.array([0.25, 0.25])
        expected = -(0.25 * math.log(0.25) + 0.25 * math.log(0.25)) / 0.5
        assert float(shannon(w)) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(math.log(4), abs=1e-14)

    def test_metadata(self):
        v = shannon([0.5, 0.5])
        assert v.family == "shannon" and v.params == ()


class TestRenyi:
    def test_uniform_any_order(self):
        for a in (0.3, 2.0, 7.0):
            assert float(renyi([0.25] * 4, a)) == pytest.approx(math.log(4), abs=1e-13)

    def test_order_two(self):
        assert float(renyi([0.75, 0.25], 2.0)) == pytest.approx(-math.log(0.625), abs=1e-13)

    def test_shannon_limit(self):
        assert float(renyi([0.5, 0.5], 1.0 + 1e-9)) == pytest.approx(math.log(2), abs=1e-6)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            renyi([0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            renyi([0.5, 0.5], -1.0)


class TestTsallis:
    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_order(self, q):
        with pytest.raises(ValueError, match=r"^q must be finite"):
            tsallis([0.5, 0.5], q)

    def test_degenerate(self):
        for q in (0.5, 2.0, 3.0):
            assert float(tsallis([1.0, 0.0], q)) == pytest.approx(0.0, abs=1e-15)

    def test_half_half_q2(self):
        assert float(tsallis([0.5, 0.5], 2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_shannon_limit(self):
        for q in (1.0 - 1e-9, 1.0 + 1e-9):
            assert float(tsallis([0.5, 0.5], q)) == pytest.approx(math.log(2), abs=1e-6)

    def test_rejects_subprobability(self):
        with pytest.raises(ValueError):
            tsallis([0.25, 0.25], 2.0)

    def test_continuous_through_q_one(self):
        # a mass inside the tolerance, 1 + 5e-10, once made the raw
        # (1 - sum p^q) / (q - 1) jump from 1.0047 at q = 1 + 2e-8 to the
        # Shannon value 1.0297 at q = 1 + 5e-9; the value normalizes by
        # sum p and is continuous through q = 1
        import mp_reference as R

        p = np.array([0.5, 0.3, 0.2]) * (1.0 + 5e-10)
        for q in (1.0 - 1e-7, 1.0 - 2e-8, 1.0 - 5e-9, 1.0, 1.0 + 5e-9, 1.0 + 2e-8, 1.0 + 1e-7):
            assert R.rel_err(tsallis(p, q), R.tsallis(p, q)) <= 1e-12, q

    @pytest.mark.parametrize(
        "p, q, expected",
        [
            ([0.5, 0.3, 0.2], 0.0, 2.0),
            ([0.5, 0.3, 0.2], -0.5, 2.9840155988156254),
            ([0.7, 0.0, 0.2, 0.07, 0.03], 0.0, 3.0),
            ([0.7, 0.0, 0.2, 0.07, 0.03], -0.5, 7.989629339215142),
            ([1e-300, 0.25, 0.75], -0.5, 6.666666666666588e149),
        ],
    )
    def test_nonpositive_orders_keep_raw_formula(self, p, q, expected):
        # orders <= 0 sum p^q as it is, as before the shifted support
        assert float(tsallis(p, q)) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_qdeform_identity(self):
        # cross-check against -sum p^q log_q(p)
        rng = np.random.default_rng(12)
        for _ in range(40):
            p = random_weights(rng, rng.integers(2, 7), mass=1.0)
            q = rng.uniform(-1.0, 3.0)
            if abs(q - 1.0) <= 1e-7:
                continue
            expected = -float(np.sum(p**q * np.asarray(q_log(p, q))))
            assert float(tsallis(p, q)) == pytest.approx(expected, abs=1e-10)


class TestKapur:
    def test_uniform(self):
        assert float(kapur([0.5, 0.5], 3.0, 0.4)) == pytest.approx(math.log(2), abs=1e-13)

    def test_reduces_to_renyi_at_beta_one(self):
        w = [0.75, 0.25]
        assert float(kapur(w, 2.0, 1.0)) == pytest.approx(float(renyi(w, 2.0)), abs=1e-10)

    def test_direct_evaluation(self):
        expected = math.log((0.81 + 0.01) / (0.729 + 0.001))
        assert float(kapur([0.9, 0.1], 3.0, 2.0)) == pytest.approx(expected, abs=1e-13)

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            kapur([0.5, 0.5], 2.0, 2.0)
        # only the exact diagonal: a pair 1e-9 off it has a value
        w = [0.7, 0.2, 0.1]
        assert R.rel_err(kapur(w, 2.0, 2.0 + 1e-9), R.kapur(w, 2.0, 2.0 + 1e-9)) <= 1e-13


class TestNormEntropy:
    def test_degenerate(self):
        assert float(norm_entropy([1.0, 0.0], 2.0, 0.5)) == pytest.approx(0.0, abs=1e-13)

    def test_direct_evaluation(self):
        expected = 2.0 * (1.0 - 2.0**-0.5)
        assert float(norm_entropy([0.5, 0.5], 2.0, 1.0)) == pytest.approx(expected, abs=1e-13)

    def test_symmetry(self):
        w = [0.6, 0.3, 0.1]
        assert float(norm_entropy(w, 2.0, 1.0)) == pytest.approx(
            float(norm_entropy(w, 1.0, 2.0)), abs=1e-14
        )

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            norm_entropy([0.5, 0.5], 1.5, 1.5)

    def test_overflowing_norm(self):
        # ||w||_b overflows float64 on the first two, the value only on the last
        for w, a, b in (
            ([1e308, 1e308], 2.0, 1.0),
            ([1e308, 5e307, 1e300], 1.2, 0.9),
            ([1e308, 1e308, 1e308], 0.5, 3.0),
        ):
            assert R.rel_err(norm_entropy(w, a, b), R.norm_entropy(w, a, b)) <= 5e-13, (w, a, b)
        assert norm_entropy([1e308, 1e308, 1e308], 0.5, 3.0) == math.inf


class TestAczelDaroczy:
    def test_uniform(self):
        for b in (0.2, 1.0, 6.0):
            assert float(aczel_daroczy([0.5, 0.5], b)) == pytest.approx(math.log(2), abs=1e-13)

    def test_degenerate(self):
        assert float(aczel_daroczy([1.0, 0.0], 2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        expected = -(0.64 * math.log(0.8) + 0.04 * math.log(0.2)) / 0.68
        assert float(aczel_daroczy([0.8, 0.2], 2.0)) == pytest.approx(expected, abs=1e-13)

    def test_shannon_at_beta_one(self):
        w = [0.3, 0.45, 0.25]
        assert float(aczel_daroczy(w, 1.0)) == pytest.approx(float(shannon(w)), abs=1e-13)


class TestLNE:
    def test_uniform_is_log_two(self):
        for prm in ((2.0, 0.5), (1.0, 1.0), (0.1, 100.0)):
            assert float(lne([0.5, 0.5], prm)) == pytest.approx(math.log(2), abs=1e-13)
            assert float(lne([0.5, 0.5], prm)) == pytest.approx(0.693, abs=5e-4)

    def test_beta_one_is_renyi(self):
        w = [0.75, 0.25]
        assert float(lne(w, (2.0, 1.0))) == pytest.approx(-math.log(0.625), abs=1e-13)
        assert float(lne(w, (2.0, 1.0))) == pytest.approx(float(renyi(w, 2.0)), abs=1e-12)

    def test_escort_oracle_value(self):
        # oracle: Renyi of order alpha/beta of the beta-escort, in exact arithmetic
        expected = -math.log((16 / 17) ** 2 + (1 / 17) ** 2)
        assert float(lne([0.8, 0.2], (4.0, 2.0))) == pytest.approx(expected, abs=1e-12)

    def test_accepts_params_object(self):
        v = lne([0.5, 0.5], EntropyParams(2.0, 1.0))
        assert v.family == "lne" and v.params == (2.0, 1.0)

    # scale invariance, the escort identity, extensivity, expandability and
    # grouping are stated in lne.checks; these read its run at seeds 0-9
    def test_scale_invariance(self, check_at_seeds):
        check_at_seeds("scale_invariance")

    def test_escort_identity(self, check_at_seeds):
        check_at_seeds("escort_identity")

    def test_expandability(self, check_at_seeds):
        check_at_seeds("composition")

    def test_extensivity(self, check_at_seeds):
        check_at_seeds("composition")

    # (alpha, beta) symmetry and the order limits are stated in lne.checks
    def test_parameter_symmetry(self, check_at_seeds):
        check_at_seeds("escort_identity")

    def test_order_limits(self, check_at_seeds):
        check_at_seeds("extremes")

    def test_min_entropy_limit_values(self):
        assert float(lne_min_entropy_limit([0.5, 0.5], 1.0)) == pytest.approx(
            math.log(2), abs=1e-14
        )
        assert float(lne_min_entropy_limit([1.0, 0.0], 3.0)) == 0.0
        assert float(lne_min_entropy_limit([0.8, 0.2], 1.0)) == pytest.approx(
            -math.log(0.8), abs=1e-14
        )

    def test_branch_continuity(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            w = random_weights(rng, rng.integers(2, 7))
            b = rng.uniform(0.2, 3.0)
            assert abs(float(lne(w, (b + 1e-6, b))) - float(lne(w, (b, b)))) <= 1e-4

    def test_transition_band_cross_validation(self):
        # power branch at separation d vs the diagonal closed form at the
        # midpoint order: symmetry in (alpha, beta) kills the O(d) term,
        # so agreement isolates the conditioning of the (alpha - beta)
        # denominator across the whole band
        rng = np.random.default_rng(21)
        for _ in range(20):
            w = random_weights(rng, rng.integers(2, 7))
            b = rng.uniform(0.3, 2.5)
            for d in (2e-8, 1e-7, 1e-6, 1e-5):
                power = float(lne(w, (b + d, b)))
                mid = b + d / 2
                limit = float(lne(w, (mid, mid)))
                assert abs(power - limit) <= 1e-6

    def test_schur_concavity_via_transfers(self, check_at_seeds):
        # Robin Hood transfers on the escort simplex, stated in lne.checks
        check_at_seeds("escort_identity")

    def test_limit_relations_to_aczel_daroczy(self):
        # kapur's diagonal limit is the Aczel-Daroczy entropy; the norm
        # entropy's is ||P||_b times the diagonal value b*(AD + log||P||_b),
        # which collapses to AD itself at b = 1 (on probabilities the two
        # printed limit claims coincide only there)
        rng = np.random.default_rng(23)
        eps = 1e-6
        for _ in range(25):
            w = random_weights(rng, rng.integers(2, 6), mass=1.0)
            b = rng.uniform(0.3, 2.5)
            ad = float(aczel_daroczy(w, b))
            assert abs(float(kapur(w, b + eps, b)) - ad) <= 1e-4
            norm_limit = math.exp(log_norm(w, b)) * float(lne(w, (b, b)))
            assert abs(float(norm_entropy(w, b + eps, b)) - norm_limit) <= 1e-4
        w = random_weights(rng, 4, mass=1.0)
        assert abs(float(norm_entropy(w, 1.0 + eps, 1.0)) - float(aczel_daroczy(w, 1.0))) <= 1e-4


class TestGeneralizedMeanBound:
    # lne(p + q) = lne([||p||_b, ||q||_b]) + rhs: the slack is the entropy
    # of the two blocks' norms (the composition check's grouping clause)
    def test_equal_uniform_halves(self):
        p = [0.25, 0.25]
        rhs = gm_subadditivity_rhs(p, p, (1.0, 2.0))
        assert rhs == pytest.approx(math.log(2), abs=1e-12)
        lhs = float(lne([0.25] * 4, (1.0, 2.0)))
        assert lhs == pytest.approx(math.log(4), abs=1e-12)
        assert lhs - rhs == pytest.approx(math.log(2), abs=1e-12)

    def test_single_state_halves(self):
        lhs = float(lne([0.5, 0.5], (2.0, 1.0)))
        rhs = gm_subadditivity_rhs([0.5], [0.5], (2.0, 1.0))
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert lhs - rhs == pytest.approx(math.log(2), abs=1e-12)

    def test_degenerate_padding(self):
        w, v = 0.4, 0.3
        lhs = float(lne([w, 0.0, v, 0.0], (2.0, 1.0)))
        rhs = gm_subadditivity_rhs([w, 0.0], [v, 0.0], (2.0, 1.0))
        assert lhs - rhs == pytest.approx(float(lne([w, v], (2.0, 1.0))), abs=1e-12)

    def test_direction_probe(self, check_at_seeds):
        check_at_seeds("composition")

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gm_subadditivity_rhs([0.5, 0.5], [0.5, 0.5], (2.0, 1.0))  # mass > 1
        with pytest.raises(ValueError):
            gm_subadditivity_rhs([0.25, 0.25], [0.25, 0.25], (2.0, 2.0))


class TestLongVectors:
    """The families `_LogSupport.slope` serves, on vectors of 4096 entries
    whose exp pass at the smaller order b has arguments below -707
    (b * lo < -707, lo = log(min w / max w)).  That pass is sum-only: its
    raised lanes move its sums by less than n (1 + |lo|) 2**-1019, so
    `log1p_sum` makes it again exactly where the sum s is below 2**-900,
    and `slope` where the escort mean's numerator is.  Values are held
    to the mpmath reference at 5e-13, as `lne` is on the long vectors of
    `tests/test_numkit.py`; the vectors tile a few distinct values, which
    keeps the reference cheap."""

    N = 4096
    TOL = 5e-13

    @classmethod
    def _tile(cls, values):
        return np.resize(np.asarray(values, dtype=float), cls.N)

    @classmethod
    def _check(cls, got, ref, b, w, *where):
        lo = math.log(w[w > 0].min() / w.max())
        assert b * lo < -707.0, (b, lo)  # the pass raises arguments
        err = R.rel_err(got, ref)
        assert err <= cls.TOL, (err, float(got), float(ref), *where)

    def test_every_family_with_raised_lanes(self):
        vectors = {
            # a bulk of order one and a tail at 1e-200: 2 * lo = -921
            "tail": self._tile([1.0, 0.3, 1e-3, 1e-200]),
            # x below -707 at b = 1, as renyi, shannon and tsallis take it
            "subnormal tail": self._tile([0.5, 0.2, 1e-3, 1e-310]),
            # tied maxima at w = 1 (m = 0) over a tail whose escort
            # weights underflow: the escort mean's numerator is below 2**-900
            "tied maxima": self._tile([1.0, 1.0, 1e-200]),
            "one maximum": np.array([1.0] + [1e-151] * 100 + [1e-200] * (self.N - 101)),
        }
        for name, w in vectors.items():
            b = 1.0 if name == "subnormal tail" else 2.0
            for a in (b, b * (1.0 + 1e-9), 2.5 * b, 20.0 * b):
                self._check(lne(w, (a, b)), R.lne(w, a, b), b, w, "lne", name, a)
                if a != b:
                    self._check(kapur(w, a, b), R.kapur(w, a, b), b, w, "kapur", name, a)
                    self._check(norm_entropy(w, a, b), R.norm_entropy(w, a, b), b, w, "norm", name, a)
            self._check(aczel_daroczy(w, b), R.aczel_daroczy(w, b), b, w, "aczel_daroczy", name)
            p = w / w.sum()
            half = p / 2.0
            self._check(gm_subadditivity_rhs(half, half[::-1], (2.5 * b, b)),
                        R.gm_subadditivity_rhs(half, half[::-1], 2.5 * b, b), b, w, "gm", name)
            if b == 1.0:
                self._check(shannon(w), R.shannon(w), b, w, "shannon", name)
                for a in (2.0, 1.0 + 1e-9):
                    self._check(renyi(w, a), R.renyi(w, a), b, w, "renyi", name, a)
                    self._check(tsallis(p, a), R.tsallis(p, a), b, p, "tsallis", name, a)

    def test_tiny_sum_is_taken_exactly(self):
        # L(2) = 100 * 1e-302 = 1e-300 and lne = 5.0e-300: the 3995 raised
        # lanes would add 3995 * exp(-707) = 3.6e-304 to the sum
        w = np.array([1.0] + [1e-151] * 100 + [1e-200] * (self.N - 101))
        got, ref = lne(w, (2.5, 2.0)), R.lne(w, 2.5, 2.0)
        assert 4.9e-300 < float(ref) < 5.1e-300
        assert R.rel_err(got, ref) <= 1e-13, (float(got), float(ref))
        # L(2) alone, from a pass that consumes x
        for got, ref in (
            (log_norm(w, 2.0), R.log_norm(w, 2.0)),
            (lne_min_entropy_limit(w, 2.0), R.lne_min_entropy_limit(w, 2.0)),
        ):
            assert R.rel_err(got, ref) <= 1e-13, (float(got), float(ref))
