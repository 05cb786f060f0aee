import math
import warnings

import numpy as np
import pytest

import mp_reference as R
from lne import (
    EntropyParams,
    SupportError,
    crossent,
    lnce,
    log_norm,
    numkit,
)

LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def test_value_repr_names_orders_and_prior_mass():
    assert repr(lnce([0.5, 0.5], [0.25, 0.75], (2.0, 1.0))) == (
        "CrossEntropyValue(0.2876820724517809, params=EntropyParams(alpha=2.0, beta=1.0), "
        "prior_mass=1.0)"
    )


def random_probability(rng, n):
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


class TestLnce:
    def test_identical_arguments(self):
        # CE(P, P) collapses to -beta*log||P||_beta, which is zero exactly
        # when sum p^beta = 1 (e.g. probabilities at beta = 1); for the
        # uniform pair this matches the uniform-prior identity value
        # (beta - 1) log 2
        assert float(lnce([0.5, 0.5], [0.5, 0.5], (2.0, 1.0))) == pytest.approx(0.0, abs=1e-12)
        for prm in ((2.0, 1.0), (0.5, 0.5), (3.0, 0.7)):
            got = float(lnce([0.5, 0.5], [0.5, 0.5], prm))
            assert got == pytest.approx((prm[1] - 1.0) * math.log(2), abs=1e-12)
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = random_probability(rng, int(rng.integers(2, 6)))
            prm = EntropyParams(*rng.uniform(0.2, 3.0, size=2))
            expected = -prm.beta * log_norm(p, prm.beta)
            assert float(lnce(p, p, prm)) == pytest.approx(expected, abs=1e-11)

    def test_worked_renyi_divergence_value(self):
        v = lnce([0.5, 0.5], [0.75, 0.25], (2.0, 1.0))
        assert float(v) == pytest.approx(math.log(4 / 3), abs=1e-12)
        assert float(v) == pytest.approx(0.287682, abs=5e-7)
        assert v.prior_mass == pytest.approx(1.0)
        assert v.params.alpha == 2.0

    # the uniform-prior identity (mass 1 and W < 1) and the escort form,
    # whose beta = 1 case is the Renyi directed divergence, are stated in
    # lne.checks; these read its run at seeds 0-9
    def test_uniform_prior_identity(self, check_at_seeds):
        check_at_seeds("cross_entropy")

    def test_uniform_prior_identity_subprobability(self, check_at_seeds):
        check_at_seeds("cross_entropy")

    def test_beta_one_reduction(self, check_at_seeds):
        check_at_seeds("cross_entropy")

    def test_first_argument_scale_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p, q = random_probability(rng, n), random_probability(rng, n)
            prm = EntropyParams(*rng.uniform(0.2, 3.0, size=2))
            base = float(lnce(p, q, prm))
            for c in (1e-3, 0.5, 1.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    scaled = float(lnce(c * p, q, prm, require_equal_mass=False))
                assert abs(scaled - base) <= 1e-9 * (1 + abs(base))

    def test_mass_mismatch_raises_or_warns(self):
        p, q = [0.3, 0.3], [0.5, 0.5]
        with pytest.raises(ValueError, match="masses differ"):
            lnce(p, q, (2.0, 1.0))
        with pytest.warns(UserWarning, match="masses differ") as caught:
            lnce(p, q, (2.0, 1.0), require_equal_mass=False)
        assert caught[0].filename == __file__  # the warning points at the caller

    def test_underflowing_escort_entry_keeps_its_term(self):
        # the beta-escort of the 1e-48 entry underflows to 0 at the large
        # orders while its (p/q)^(alpha-beta) factor dominates the sum; at
        # the tiny betas log||P||_beta = psi(beta) / beta is near or past
        # overflow, and lnce must stay finite
        large, tiny = ((0.5, 90.0), (1.0, 100.0)), ((0.09596599577714067, 1e-310), (2.0, 1e-300))
        cases = [([0.5, 0.5, 1e-48], [0.05, 0.05, 0.9], prm) for prm in large]
        cases += [([0.2, 0.5, 0.3], [0.3, 0.4, 0.3], prm) for prm in tiny]
        for p, q, prm in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = lnce(p, q, prm)
            assert R.rel_err(got, R.lnce(p, q, *prm)) <= 1e-13, prm

    def test_branch_continuity(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            p, q = random_probability(rng, n), random_probability(rng, n)
            b = rng.uniform(0.3, 2.5)
            gap = abs(float(lnce(p, q, (b + 1e-6, b))) - float(lnce(p, q, (b, b))))
            assert gap <= 1e-4

    def test_support_errors_name_the_state(self):
        p = [0.5, 0.5, 0.0]
        q = [0.8, 0.0, 0.2]
        with pytest.raises(SupportError) as exc:
            lnce(p, q, (2.0, 1.0))  # alpha > beta: negative exponent on q
        assert exc.value.index == 1
        with pytest.raises(SupportError) as exc:
            lnce(p, q, (1.5, 1.5))  # log ratio needs q > 0 on the support
        assert exc.value.index == 1
        # alpha < beta: the q = 0 state just contributes zero
        v = float(lnce(p, q, (1.0, 2.0)))
        assert math.isfinite(v)

    def test_disjoint_support_rejected(self):
        with pytest.raises(SupportError):
            lnce([0.5, 0.0], [0.0, 0.5], (1.0, 2.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            lnce([0.5, 0.5], [0.3, 0.3, 0.4], (2.0, 1.0))


class TestLongVectors:
    """`lnce` on vectors of 4096 entries, on which every exp pass takes
    the split path, against the mpmath reference at the tolerance of
    `tests/test_accuracy.py`.  The vectors tile a few distinct values,
    which keeps the reference cheap.  Each case states which side of the
    branch rule its input lies on: with y = log(p / q) over the states
    where q > 0 and k of them, the expm1 sum is taken where
    |d| range(y) + log(k) <= log(DBL_MAX) and the kept states carry at
    least half of the beta-escort, and the sum in log space elsewhere."""

    N = 4096

    @classmethod
    def _tile(cls, values):
        return np.resize(np.asarray(values, dtype=float), cls.N)

    @classmethod
    def _pair(cls, p, q):
        p = cls._tile(p)
        p /= p.sum()
        q = cls._tile(q)
        return p, q * (p.sum() / q.sum())

    @staticmethod
    def _terms(p, q, a, b):
        """(|d| range(y), k, kept escort mass, dropped escort mass), the
        masses in units of the maximum's escort weight."""
        keep = (p > 0) & (q > 0)
        y = np.log(p[keep]) - np.log(q[keep])
        e = (p / p.max()) ** b
        return abs(a - b) * (y.max() - y.min()), int(keep.sum()), e[keep].sum(), e[(p > 0) & ~keep].sum()

    @staticmethod
    def _check(p, q, a, b):
        got = float(lnce(p, q, (a, b)))
        ref = R.lnce(p, q, a, b)
        bound = 5e-13 * abs(float(ref)) + 2.0**-50 * float(R.lnce_scale(p, q, a, b))
        assert abs(got - float(ref)) <= bound, (got, float(ref), a, b)

    def test_expm1_branch(self):
        # 1e-200 at beta = 6 puts exp arguments below -707
        p, q = self._pair([1.0, 0.3, 1e-3, 1e-200], [0.2, 0.3, 0.4, 0.1])
        for a, b in ((5.5, 6.0), (6.0, 5.5), (6.0 * (1 + 1e-9), 6.0), (2.0, 2.0)):
            spread, k, _, _ = self._terms(p, q, a, b)
            assert spread + math.log(k) <= LOG_FLOAT_MAX
            self._check(p, q, a, b)

    def test_log_space_branch(self):
        p, q = self._pair([1.0, 0.3, 1e-3, 1e-200], [0.2, 0.3, 0.4, 0.1])
        for a, b in ((0.3, 6.0), (6.0, 0.3), (1.0, 40.0)):
            assert self._terms(p, q, a, b)[0] > LOG_FLOAT_MAX
            self._check(p, q, a, b)
        # a value of 0 from two tiny sums, L(40) and that of u = 40 x - 38 y,
        # whose 2803 raised lanes would each add exp(-707) = 9.8e-308
        p = np.array([1e-243] * 2804 + [1.0])
        p /= p.sum()
        q = np.array([0.0] + [1e-68] * 2803 + [1.0])
        q *= p.sum() / q.sum()
        assert self._terms(p, q, 2.0, 40.0)[0] > LOG_FLOAT_MAX
        got, ref = lnce(p, q, (2.0, 40.0)), R.lnce(p, q, 2.0, 40.0)
        assert R.rel_err(got, ref) <= 1e-13, (float(got), float(ref))

    def test_band_between_the_norm_and_the_support_size(self):
        # one maximum over a bulk of 1e-10: the escort's norm is about 1,
        # so |d| range(y) + log(norm) fits below log(DBL_MAX) while the
        # bound by log(k) = log(4096) does not
        p = np.full(self.N, 1e-10)
        p[1::2] = 3e-11
        p[0] = 1.0
        p /= p.sum()
        q = self._tile([0.5, 1.0])
        q *= p.sum() / q.sum()
        y = np.log(p) - np.log(q)
        d = (LOG_FLOAT_MAX - 4.0) / (y.max() - y.min())
        for a, b in ((1.0 + d, 1.0), (40.0 - d, 40.0)):
            spread, k, norm, _ = self._terms(p, q, a, b)
            assert spread + math.log(norm) <= LOG_FLOAT_MAX < spread + math.log(k)
            self._check(p, q, a, b)

    def test_zero_prior_kept_states_carry_the_escort(self):
        # q = 0 where p = 1e-3: the dropped states carry almost nothing
        p, q = self._pair([1.0, 0.5, 0.2, 1e-3, 1e-200], [0.3, 0.3, 0.2, 0.0, 0.2])
        for a, b, log_space in ((2.0, 2.5, False), (0.8, 2.5, True)):
            spread, k, norm, dropped = self._terms(p, q, a, b)
            assert norm >= dropped > 0.0
            assert (spread + math.log(k) > LOG_FLOAT_MAX) == log_space
            self._check(p, q, a, b)

    def test_zero_prior_dropped_states_carry_the_escort(self):
        # q = 0 where p is largest, and p = 0 on a quarter of the states:
        # the expm1 range holds, but the kept escort is below the dropped
        p, q = self._pair([1.0, 0.1, 0.0, 0.05], [0.0, 0.5, 0.5, 0.2])
        for a, b in ((0.5, 2.0), (1.9, 2.0)):
            spread, k, norm, dropped = self._terms(p, q, a, b)
            assert spread + math.log(k) <= LOG_FLOAT_MAX and norm < dropped
            self._check(p, q, a, b)

    @classmethod
    def _zero_prior_corner(cls, corner):
        """(p, q) of equal mass for one placement of the zeros of q."""
        p = cls._tile([0.3, 1e-3, 1e-200, 0.1])
        q = cls._tile([0.2, 0.3, 0.4, 0.1])
        if corner == "state 0":
            # the first kept lane, whose value the dropped lanes take, is 1
            p = cls._tile([1e-3, 1.0, 0.3, 1e-200])
            q[0] = 0.0
        elif corner in ("argmax", "one kept at the argmax"):
            p[1000] = 1e20
            if corner == "argmax":
                q[1000] = 0.0
            else:
                q = np.where(np.arange(cls.N) == 1000, 1.0, 0.0)
        elif corner == "one kept below the argmax":
            q = np.where(np.arange(cls.N) == 1, 1.0, 0.0)
        else:  # "90 % zeros", and p = 0 on a seventh of the states
            p = cls._tile([1.0, 0.0, 0.3, 1e-3, 1e-200, 0.05, 0.7])
            p[::10] *= 100.0  # the kept states carry the escort
            q = cls._tile([0.5] + [0.0] * 9)
        p /= p.sum()
        return p, q * (p.sum() / q.sum())

    @pytest.mark.parametrize(
        "corner, branches",
        [
            ("state 0", "ELEE"),
            ("argmax", "LLLL"),
            ("one kept at the argmax", "EEEE"),
            ("one kept below the argmax", "LLLL"),
            ("90 % zeros", "ELEE"),
        ],
    )
    def test_zero_prior_is_a_masked_lane(self, corner, branches):
        # a zero of q at alpha < beta is a lane of y that takes the first
        # kept lane's value and drops out of the sum: each corner at an
        # order pair on each side of the branch rule and near the diagonal
        # (E: the expm1 sum, L: the sum in log space)
        p, q = self._zero_prior_corner(corner)
        assert (q == 0).any()
        for (a, b), branch in zip(((2.0, 2.5), (0.3, 6.0), (1.9, 2.0), (2.0 - 1e-9, 2.0)), branches):
            spread, k, norm, dropped = self._terms(p, q, a, b)
            log_space = spread + math.log(k) > LOG_FLOAT_MAX or norm < dropped
            assert log_space == (branch == "L"), (a, b)
            self._check(p, q, a, b)



class TestBranchBounds:
    """With a positive prior, `_lnce` picks its branch from bounds on
    range(y), y = x - log q, where they decide it: range(y) lies within
    -lo -+ log(q_max / q_min).  Only where they do not does it scan y.
    Its pick must be the scan's, with the same bits, on both sides of the
    branch threshold |d| range(y) + log(k) = log(DBL_MAX) and next to it."""

    N = 4096

    @staticmethod
    def _lnce(monkeypatch, p, q, prm, scan=False):
        """(lnce's bits, scans of y, whether it took the expm1 branch);
        ``scan`` forces the scan by bounds that decide nothing."""
        seen = {"scan": 0, "expm1": 0}

        def counted(key, fn):
            def call(*args):
                seen[key] += 1
                return fn(*args)

            return call

        with monkeypatch.context() as m:
            # with a positive prior, _lnce takes the minimum of y only to scan
            m.setattr(crossent, "_min", counted("scan", numkit._min))
            m.setattr(crossent, "_exp_inplace", counted("expm1", numkit._exp_inplace))
            if scan:
                m.setattr(crossent, "_range_bounds", lambda *args: (0.0, math.inf))
            value = float(lnce(p, q, prm)).hex()
        return value, seen["scan"], seen["expm1"] > 0

    @pytest.mark.parametrize("uniform", [True, False])
    def test_bounds_pick_the_scans_branch(self, monkeypatch, uniform):
        p = np.resize([1.0, 0.3, 1e-3, 1e-200], self.N)
        p /= p.sum()
        q = np.full(self.N, 1.0) if uniform else np.resize([0.2, 0.3, 0.4, 0.1], self.N)
        q *= p.sum() / q.sum()
        # range(y) as the scan takes it, and the |d| at the threshold
        y = numkit._LogSupport(p).x - np.log(q)
        spread = y.max() - y.min()
        d_edge = (LOG_FLOAT_MAX - math.log(self.N)) / spread
        decided = 0
        for t in (-0.5, -1e-3, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 1e-3, 0.5):
            d = d_edge * (1.0 + t)
            for a, b in ((2.0 + d, 2.0), (8.0 - d, 8.0)):
                expm1 = abs(a - b) * spread + math.log(self.N) <= LOG_FLOAT_MAX
                got, scans, got_expm1 = self._lnce(monkeypatch, p, q, (a, b))
                want, forced, _ = self._lnce(monkeypatch, p, q, (a, b), scan=True)
                assert forced == 1 and scans <= 1
                assert got == want and got_expm1 == expm1, (t, a, b)
                if abs(t) >= (1e-6 if uniform else 0.5):
                    assert scans == 0, (t, a, b)  # the bounds decide
                decided += scans == 0
        # a uniform prior gives bounds as tight as their slack of 2**-30
        assert decided == (12 if uniform else 4)

    def test_zero_priors_scan(self, monkeypatch):
        def no_bounds(*args):
            raise AssertionError("a zero prior takes no bounds")

        monkeypatch.setattr(crossent, "_range_bounds", no_bounds)
        p = np.resize([1.0, 0.3, 1e-3, 1e-200], self.N)
        p /= p.sum()
        q = np.resize([0.2, 0.3, 0.4, 0.1], self.N)
        q_zero = np.where(np.arange(self.N) % 7 == 3, 0.0, q)  # on p's support
        p_zero = np.where(np.arange(self.N) % 5 == 2, 0.0, p)  # q = 0 only off p's support
        p_zero /= p_zero.sum()
        for p, q, pairs in (
            (p, q_zero, ((0.5, 2.0), (0.3, 6.0))),
            (p_zero, np.where(p_zero > 0, q, 0.0), ((0.5, 2.0), (2.0, 2.0), (6.0, 0.3))),
        ):
            for prm in pairs:
                assert np.isfinite(float(lnce(p, q * (p.sum() / q.sum()), prm)))
