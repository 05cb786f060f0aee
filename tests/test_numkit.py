import math
import tracemalloc

import numpy as np
import pytest

from lne import (
    EntropyParams,
    aczel_daroczy,
    as_weights,
    escort,
    is_probability,
    is_subprobability,
    kapur,
    lnce,
    lne,
    lne_min_entropy_limit,
    log_norm,
    majorizes,
    norm_entropy,
    product_compose,
    renyi,
    robin_hood_transfer,
    shannon,
    tsallis,
)
from lne.numkit import _BLOCK, _EXP_FAST_MIN, _EXP_SPLIT_MIN_SIZE, _exp_for_sum, _exp_inplace, _LogSupport

import mp_reference as R


class TestWeightValidation:
    def test_accepts_lists_and_arrays(self):
        w = as_weights([0.3, 0.4])
        assert w.dtype == np.float64 and w.shape == (2,)

    @pytest.mark.parametrize(
        "bad", [[], [0.0, 0.0], [-0.1, 0.5], [np.nan, 1.0], [np.inf, 1.0], [[0.5, 0.5]]]
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            as_weights(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([-1.0, np.nan], "non-finite"),
            ([-np.inf, 1.0], "non-finite"),
            ([-0.1, 0.5], "negative"),
            ([0.0, 0.0], "at least one positive"),
        ],
    )
    def test_message_order(self, bad, message):
        # non-finite entries are reported before negative ones
        with pytest.raises(ValueError, match=message):
            as_weights(bad)

    def test_membership_predicates(self):
        assert is_probability([0.5, 0.5])
        assert is_probability([0.5, 0.5 + 5e-10])  # inside the mass tolerance
        assert not is_probability([0.25, 0.25])
        assert is_subprobability([0.25, 0.25])
        assert not is_subprobability([0.8, 0.7])


class TestEntropyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EntropyParams(0.0, 1.0)
        with pytest.raises(ValueError):
            EntropyParams(1.0, -2.0)
        with pytest.raises(ValueError):
            EntropyParams(np.inf, 1.0)

    def test_equal_orders_window(self):
        assert EntropyParams(2.0, 2.0).equal_orders
        assert not EntropyParams(2.0, 2.0 + 5e-9).equal_orders
        assert not EntropyParams(2.0, 2.0 + 1e-7).equal_orders


class TestExpInplace:
    """`_exp_inplace` keeps np.exp's bits while keeping underflowing
    arguments away from numpy's vector exp; `_exp_for_sum` keeps the
    bits of every lane it does not raise, and of a sum >= 1."""

    @staticmethod
    def _check(x):
        expected = np.exp(x)
        got = _exp_inplace(x.copy())
        assert got.tobytes() == expected.tobytes()
        fast = x >= _EXP_FAST_MIN
        for_sum = _exp_for_sum(x.copy())
        assert for_sum[fast].tobytes() == expected[fast].tobytes()
        total, got_total = float(got.sum()), float(for_sum.sum())
        if math.isnan(total):
            assert math.isnan(got_total)
        elif total >= 1.0:
            assert got_total.hex() == total.hex()
        else:
            # each raised lane reads exp(-707) < 2**-1019 more
            assert 0.0 <= got_total - total <= x.size * 2.0**-1019, (total, got_total)

    def test_grid_with_mixed_lanes(self):
        grid = np.linspace(-800.0, 1.0, 80_101)
        special = [-708.0, -707.7032713517042, -707.0, -745.13, -745.1332191019412]
        special += [-746.0, -np.inf, np.nan, 0.0, -0.0, 1.0]
        low = np.concatenate([grid[grid < -707.0], special])
        high = grid[grid >= -707.0]
        # alternate underflowing and normal arguments, so every SIMD
        # vector holds both kinds of lane
        m = max(low.size, high.size)
        x = np.empty(2 * m)
        x[0::2] = np.resize(low, m)
        x[1::2] = np.resize(high, m)
        self._check(x)
        self._check(np.array(special))
        # sums below 1, with and without a nan lane
        self._check(x - 30.0)
        self._check(x[np.isfinite(x) | (x == -np.inf)] - 30.0)

    def test_seeded_arrays(self):
        for seed in range(10):
            rng = np.random.default_rng([seed, 17])
            x = rng.uniform(-800.0, 1.0, 100_000)
            x[rng.random(x.size) < 0.01] = -np.inf
            x[rng.random(x.size) < 0.3] *= rng.uniform(0.0, 1e-2)
            self._check(x)
            # a sum below 1, and one that every raised lane moves
            self._check(x - 30.0)
            self._check(x - 720.0)

    def test_minimum_estimate_only_picks_the_path(self):
        # an estimate on the wrong side of -707 takes the other path,
        # which gives the same bits
        rng = np.random.default_rng(18)
        low = rng.uniform(-800.0, 1.0, 10_000)
        high = rng.uniform(-700.0, 1.0, 10_000)
        for x, estimate in ((low, 0.0), (high, -1e3), (low, -np.inf), (high, np.nan)):
            assert _exp_inplace(x.copy(), estimate).tobytes() == np.exp(x).tobytes()


class TestKernelMemory:
    """A call holds at most one array of the support's size, and passes
    over longer vectors run through blocks of _BLOCK entries: the peak
    allocation of a call, in units of 8n bytes, stays near one (x, the
    escort it returns, or lnce's u) plus its blocks, and near zero for a
    power sum alone.  The expm1 branch of lnce holds x and y."""

    N = 100_000
    # past 16 blocks, where a block is 1/16 of the vector
    LONG = 2**20 + 7

    @staticmethod
    def _peak(call):
        call()  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_is_log_w_plus_one_scratch(self):
        # gamma = 2 on w >= 0.05: no exp argument underflows; lnce holds
        # y = log(p / q) beside x
        rng = np.random.default_rng(23)
        w = rng.uniform(0.05, 1.0, self.N)
        p = w / w.sum()
        q = rng.uniform(0.05, 1.0, self.N)
        q /= q.sum()
        # lnce far from the diagonal sums in log space; a zero prior
        # drops states from its sum, as masked lanes of y, and at 90 %
        # zeros the expm1 branch's dropped states carry most of the escort
        p_far = 10.0 ** rng.uniform(-200.0, 0.0, self.N)
        p_far /= p_far.sum()
        u = rng.random(self.N)
        q_zero = {share: np.where(u < share, 0.0, q) for share in (0.01, 0.3, 0.9)}
        for v in q_zero.values():
            v /= v.sum()
        calls = {
            "log_norm": lambda: log_norm(w, 2.0),
            "lne": lambda: lne(w, (2.0, 0.5)),
            "lne diagonal": lambda: lne(w, (2.0, 2.0)),
            "kapur": lambda: kapur(w, 2.0, 0.5),
            "renyi": lambda: renyi(w, 2.0),
            "escort": lambda: escort(w, 2.0),
            "aczel_daroczy": lambda: aczel_daroczy(w, 2.0),
            "lnce": lambda: lnce(p, q, (0.5, 2.0)),
            "lnce diagonal": lambda: lnce(p, q, (2.0, 2.0)),
            "lnce log space": lambda: lnce(p_far, q, (0.3, 6.0)),
        }
        for share, v in q_zero.items():
            calls[f"lnce {share:.0%} zero prior"] = lambda v=v: lnce(p, v, (0.5, 2.0))
            calls[f"lnce {share:.0%} zero prior log space"] = lambda v=v: lnce(p_far, v, (0.3, 6.0))
        for name, call in calls.items():
            peak = self._peak(call) / (8 * self.N)
            assert peak <= 2.5, (name, peak)

    def test_sum_only_exp_array_on_a_tail(self):
        # a tail down to 1e-200 puts 2 x below -707 on a quarter of the
        # entries: the slope families read their exp array by the sum-only
        # rule and hold no mask beside it; escort's exact pass holds its two
        rng = np.random.default_rng(27)
        w = rng.uniform(0.05, 1.0, self.N)
        tail = rng.random(self.N) < 0.25
        w[tail] = 10.0 ** rng.uniform(-200.0, -1.0, int(tail.sum()))
        calls = {
            "lne": lambda: lne(w, (6.0, 2.0)),
            "lne diagonal": lambda: lne(w, (2.0, 2.0)),
            "lne plain difference": lambda: lne(w, (40.0, 2.0)),
            "kapur": lambda: kapur(w, 6.0, 2.0),
            "norm_entropy": lambda: norm_entropy(w, 6.0, 2.0),
            "aczel_daroczy": lambda: aczel_daroczy(w, 2.0),
        }
        for name, call in calls.items():
            peak = self._peak(call) / (8 * self.N)
            assert peak <= 2.05, (name, peak)
        assert self._peak(lambda: escort(w, 2.0)) / (8 * self.N) <= 2.5

    def test_one_array_past_the_block_size(self):
        rng = np.random.default_rng(28)
        n = self.LONG
        w = rng.uniform(0.05, 1.0, n)
        tail = rng.random(n) < 0.25
        w[tail] = 10.0 ** rng.uniform(-200.0, -1.0, int(tail.sum()))
        w_zero = np.where(rng.random(n) < 0.1, 0.0, w)
        p, p_zero = w / w.sum(), w_zero / w_zero.sum()
        q = rng.uniform(0.05, 1.0, n)
        q /= q.sum()
        q_zero = np.where(rng.random(n) < 0.3, 0.0, q)
        q_zero /= q_zero.sum()
        one_array = {
            "lne": lambda: lne(w, (6.0, 2.0)),
            "lne diagonal": lambda: lne(w, (2.0, 2.0)),
            "lne plain difference": lambda: lne(w, (40.0, 2.0)),
            "lne with zeros": lambda: lne(w_zero, (6.0, 2.0)),
            "kapur": lambda: kapur(w, 6.0, 2.0),
            "renyi": lambda: renyi(p, 2.0),
            "norm_entropy": lambda: norm_entropy(w, 6.0, 2.0),
            "aczel_daroczy": lambda: aczel_daroczy(w, 2.0),
            "shannon": lambda: shannon(p),
            "escort": lambda: escort(w, 2.0),
            "escort with zeros": lambda: escort(w_zero, 2.0),
            "lnce log space": lambda: lnce(p, q, (0.3, 6.0)),
            "lnce zero prior log space": lambda: lnce(p, q_zero, (0.3, 6.0)),
            "lnce log space with zeros": lambda: lnce(p_zero, q, (0.3, 6.0)),
        }
        no_array = {
            "log_norm": lambda: log_norm(w, 0.3),
            "log_norm with zeros": lambda: log_norm(w_zero, 0.3),
            "lne_min_entropy_limit": lambda: lne_min_entropy_limit(w, 2.0),
        }
        # the expm1 branch of lnce holds x and y, as it did
        two_arrays = {
            "lnce": lambda: lnce(p, q, (1.9, 2.0)),
            "lnce zero prior": lambda: lnce(p, q_zero, (1.9, 2.0)),
        }
        for calls, bound in ((one_array, 1.25), (no_array, 0.25), (two_arrays, 2.5)):
            for name, call in calls.items():
                peak = self._peak(call) / (8 * n)
                assert peak <= bound, (name, peak)

    def test_shannon_peak(self):
        rng = np.random.default_rng(24)
        p = rng.uniform(0.05, 1.0, self.N)
        p /= p.sum()
        calls = {
            "shannon": lambda: shannon(p),
            "renyi order one": lambda: renyi(p, 1.0),
            "tsallis order one": lambda: tsallis(p, 1.0),
        }
        for name, call in calls.items():
            peak = self._peak(call) / (8 * self.N)
            assert peak <= 2.5, (name, peak)


class TestSupportSummary:
    """Each call takes one summary of its support: the largest log weight
    m, its index and an estimate of the smallest.  Every power sum of the
    call is then log1p of a sum over log w - m with one maximum left out,
    and needs no per-order search for ties.  Values are held against an
    mpmath reference at 110 digits, written in the same shifted log1p
    form, on the inputs that once set ties and the search apart."""

    ORDERS = (1e-310, 0.3, 2.0, 6.0, 100.0)

    @staticmethod
    def _check(got, ref, tol, *where):
        err = R.rel_err(got, ref)
        assert err <= tol, (err, float(got), *where)

    @classmethod
    def _check_escort(cls, w, gamma):
        e = escort(w, gamma)
        ref = R.escort(w, gamma)
        assert not e[w == 0].any()
        top = math.log(w.max())
        for v, r in ref.items():
            # rounding gamma * log(v / max w) alone moves the exp by
            # 2**-53 times that exponent
            tol = 1e-13 + 2.0**-52 * gamma * (top - math.log(v))
            got = e[w == v]
            cls._check(got.min(), r, tol, "escort", gamma, v)
            cls._check(got.max(), r, tol, "escort", gamma, v)

    @staticmethod
    def _tiled(small):
        return [small, np.tile(small, -(-4096 // small.size))]

    @classmethod
    def _vectors(cls, gamma):
        rng = np.random.default_rng([25, int(math.log2(gamma)) + 2000])
        top = 0.75
        for small in (
            np.array([0.5, 0.5, 0.25]),  # tied maxima
            np.array([top, np.nextafter(top, 0.0), 0.1, np.nextafter(top, 0.0)]),
            np.array([1.0, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 0.3]),  # log w near 0
            np.array([0.0, 1e-320, 3e-300, 0.0, 1e-310]),  # zeros and subnormals
            np.array([1e-320]),
        ):
            yield from cls._tiled(small)
        for n in (7, 64, 1000, 100_000):
            # per 8-lane vector: normal, subnormal-result and zero-result
            # exp lanes at this order (where gamma reaches them), ties and
            # zeros; drawn from a few dozen distinct values, so that the
            # reference costs the same at every length
            w = rng.choice(rng.uniform(0.05, 1.0, 61), n)
            with np.errstate(over="ignore"):
                sub = np.exp(rng.uniform(-745.0, -708.0, 13) / gamma)
                zero = np.maximum(np.exp(rng.uniform(-2000.0, -750.0, 13) / gamma), 1e-320)
            w[1::8] = rng.choice(np.clip(sub, 1e-320, 0.04), w[1::8].size)
            w[3::8] = rng.choice(np.clip(zero, 1e-320, 0.04), w[3::8].size)
            w[rng.integers(n, size=3)] = 1.0
            if n > 64:
                w[5::8] = 0.0
            yield w

    @pytest.mark.parametrize("gamma", ORDERS)
    def test_matches_mpmath(self, gamma):
        for w in self._vectors(gamma):
            where = (gamma, w.size)
            self._check(log_norm(w, gamma), R.log_norm(w, gamma), 1e-13, "log_norm", *where)
            self._check_escort(w, gamma)
            for beta in (1.7, gamma, gamma * (1.0 + 1e-7)):
                self._check(lne(w, (gamma, beta)), R.lne(w, gamma, beta), 5e-13, "lne", beta, *where)
            self._check(renyi(w, gamma), R.renyi(w, gamma), 1e-13, "renyi", *where)

    def test_from_log_weights(self):
        # the support of log weights given as such, as the solver and the
        # log-space sum of lnce build it: a zero weight stays in x as -inf,
        # and slope, which builds x from w, fails
        w = np.array([0.3] * 9 + [0.3 * math.exp(-100.0), 0.0])
        with np.errstate(divide="ignore"):
            sup = _LogSupport.from_log(np.log(w))
        assert sup.x.size == w.size and sup.x[-1] == -np.inf and sup.lo == -np.inf
        for gamma in (0.01, 1.01):
            got = sup.m + sup.log1p_sum(gamma) / gamma
            self._check(got, R.log_norm(w, gamma), 1e-13, "log_norm", gamma)
        with pytest.raises(AttributeError, match="no attribute 'w'"):
            _LogSupport.from_log(np.log(w[:-1])).slope(1.01, 0.01)
        # lo picks an exp path only from _EXP_SPLIT_MIN_SIZE entries on, and
        # below that from_log does not scan for it
        for n in (_EXP_SPLIT_MIN_SIZE - 1, _EXP_SPLIT_MIN_SIZE):
            lo = _LogSupport.from_log(np.linspace(-900.0, 3.0, n)).lo
            assert lo == (-903.0 if n >= _EXP_SPLIT_MIN_SIZE else -np.inf), n

    @pytest.mark.parametrize("n", [2, 9, 20, 130, 5000, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_power_sum_has_the_bits_of_ndarray_sum(self, n):
        # log1p_sum adds with np.add.reduce, the reduction ndarray.sum
        # calls, block by block along its pairwise split: the bits of one
        # np.add.reduce over a whole-array exp pass, with and without zeros
        w = np.random.default_rng(n).uniform(1e-3, 1.0, n)
        for v in (w, np.where(np.arange(n) % 7 == 3, 0.0, w)):
            x = _LogSupport(v).x
            for gamma in (0.3, 2.0, 100.0):
                sup = _LogSupport(v)
                a = _exp_for_sum(x * gamma, gamma * sup.lo)
                a[int(x.argmax())] = 0.0
                assert sup.log1p_sum(gamma) == math.log1p(np.add.reduce(a)), gamma
                assert sup.s == float(np.add.reduce(a)), gamma

    def test_ties_from_rounding(self):
        # log weights one ulp apart, whose products with gamma round to
        # the same value at some orders
        top = np.nextafter(np.nextafter(-4.6, 0.0), 0.0)
        w = np.exp(np.array([-4.6, np.nextafter(-4.6, 0.0), -7.0, top] * 3))
        for gamma in np.linspace(0.3, 7.0, 41):
            self._check(log_norm(w, gamma), R.log_norm(w, gamma), 1e-13, "log_norm", gamma)
            self._check(
                lne_min_entropy_limit(w, gamma), R.lne_min_entropy_limit(w, gamma), 5e-13, gamma
            )

    def test_subnormal_products_tie(self):
        # gamma * log(1 - 1e-14) rounds to -0.0 at gamma = 1e-310, and
        # gamma * log(1 - 1e-12) at gamma = 1e-312: every term of the sum
        # is then exp(-0.0) or exp(subnormal) = 1, with k maxima among n
        w = np.array([1.0, 1.0 - 2.0**-53, 0.5, 1.0 - 2.0**-52] + [1.0 - 1e-14] * 4)
        v = np.array([0.6, 0.6 * (1.0 - 2e-14), 0.6 * (1.0 - 1e-14), 0.1] * 2)
        vectors = self._tiled(w) + self._tiled(v)
        for n in range(2, 10):
            for k in range(2, n + 1):
                for eps in (1e-14, 1e-12):
                    vectors.append(np.array([1.0] + [1.0 - eps] * (k - 1) + [0.5] * (n - k)))
        for gamma in (1e-310, 1e-312, 2.0**-961, 2.0**-959):
            for x in vectors:
                # log_norm = m + L / gamma overflows here, as the reference does
                self._check(kapur(x, gamma, 2.0), R.kapur(x, gamma, 2.0), 1e-13, gamma, x)
                self._check(log_norm(x, gamma), R.log_norm(x, gamma), 1e-13, gamma, x)

    def test_maximum_index_is_taken_from_w(self):
        # without zeros the support takes i from w's argmax, not from a
        # second pass over x: log is monotone, so x[i] = 0 = max x, also
        # where the largest entries are a few ulps apart and log w * 2**k
        # is near log 2, one ulp of w to one ulp of its log
        for top in (2.0 - 2.0**-52, 1.0, 1.5, 3e-300, 7e200):
            near = top - np.spacing(top) * np.arange(6.0)
            w = np.concatenate([near[::-1], near, [top * 1e-3]])
            sup = _LogSupport(w)
            assert sup.i == int(np.argmax(w)) and sup.x[sup.i] == 0.0 == sup.x.max(), top

    def test_tied_maxima_at_any_order(self):
        # one maximum is left out of each sum and the others add 1 each,
        # wherever they sit and however many there are
        rng = np.random.default_rng(26)
        w = rng.choice(rng.uniform(0.05, 0.9, 37), 10_000)
        for k in (1, 2, 3, 1000):
            w[rng.choice(w.size, k, replace=False)] = 0.9
            for gamma in (1e-310, 0.3, 6.0, 1e4):
                self._check(
                    lne_min_entropy_limit(w, gamma), R.lne_min_entropy_limit(w, gamma), 5e-13, k, gamma
                )
                self._check(aczel_daroczy(w, gamma), R.aczel_daroczy(w, gamma), 1e-13, k, gamma)


class TestBlocks:
    """Past _BLOCK entries every pass runs block by block, and the block
    sums are joined along np.add.reduce's own pairwise split: a sum has
    the bits of one whole-array pass, which each test here makes itself
    from the support's whole x.  Only the dot products of the slope are
    taken block by block; the slope families are held to the mpmath
    reference instead, on vectors of a few distinct values."""

    N = 3 * _BLOCK + 7

    @classmethod
    def _vectors(cls):
        rng = np.random.default_rng(29)
        w = rng.uniform(0.05, 1.0, cls.N)
        tail = rng.random(cls.N) < 0.25
        w[tail] = 10.0 ** rng.uniform(-200.0, -1.0, int(tail.sum()))
        # zeros in runs and alone, so that blocks of w and of the support differ
        zeros = w.copy()
        zeros[rng.random(cls.N) < 0.1] = 0.0
        zeros[_BLOCK - 100 : _BLOCK + 3000] = 0.0
        return {"no zeros": w, "zeros": zeros}

    @staticmethod
    def _whole(v, gamma, exp):
        """(support, the exp array of gamma x over the whole x with the
        maximum's lane zeroed, its np.add.reduce)"""
        sup = _LogSupport(v)
        x = sup.x
        a = exp(x * gamma, gamma * sup.lo)
        a[sup.i] = 0.0
        return sup, a, float(np.add.reduce(a))

    def test_power_sums_and_escort_have_the_whole_array_bits(self):
        for name, v in self._vectors().items():
            for gamma in (0.3, 2.0, 6.0):
                sup, _, s = self._whole(v, gamma, _exp_for_sum)
                assert log_norm(v, gamma) == sup.m + math.log1p(s) / gamma, (name, gamma)
                assert lne_min_entropy_limit(v, gamma) == math.log1p(s), (name, gamma)
                sup, a, s = self._whole(v, gamma, _exp_inplace)
                a[sup.i] = 1.0
                e = np.zeros(v.size)
                e[v > 0] = a / (1.0 + s)
                assert escort(v, gamma).tobytes() == e.tobytes(), (name, gamma)

    def test_log_space_lnce_has_the_whole_array_bits(self):
        q = np.random.default_rng(30).uniform(0.05, 1.0, self.N)
        q /= q.sum()
        q_zero = np.where(np.arange(self.N) % 5 == 1, 0.0, q)
        q_zero /= q_zero.sum()
        for name, v in self._vectors().items():
            p = v / v.sum()
            for prior in (q, q_zero):
                qs = prior[v > 0]  # the prior on p's support
                for alpha, beta in ((0.3, 6.0), (0.3, 2.0), (6.0, 0.3)):
                    if alpha > beta and not qs.all():
                        continue
                    d = alpha - beta
                    sup, _, s = self._whole(p, beta, _exp_for_sum)
                    l_beta = math.log1p(s)
                    with np.errstate(divide="ignore"):
                        y = sup.x - np.log(qs)
                    u = y * d + sup.x * beta
                    u[qs == 0.0] = -np.inf
                    top = int(u.argmax())
                    m = float(u[top])
                    xu = u - m
                    au = _exp_for_sum(xu, float(xu.min()))
                    au[top] = 0.0
                    want = beta * (m + math.log1p(np.add.reduce(au)) - l_beta) / d - l_beta
                    # far from the diagonal: the log-space branch
                    assert abs(d) * (y[qs > 0].max() - y[qs > 0].min()) > 709.8
                    assert float(lnce(p, prior, (alpha, beta))) == want, (name, alpha, beta, qs.all())

    def test_slope_families_match_mpmath(self):
        # a few distinct values keep the reference cheap at any length
        for small in ([1.0, 0.3, 1e-3, 1e-200, 0.7], [0.5, 0.0, 1e-150, 0.2, 0.0, 1e-300, 0.5]):
            w = np.resize(np.array(small), self.N)
            p = w / w.sum()
            for b in (0.3, 2.0):
                for a in (b, b * (1.0 + 1e-9), 2.5 * b, 20.0 * b):
                    err = R.rel_err(lne(w, (a, b)), R.lne(w, a, b))
                    assert err <= 5e-13, ("lne", small, a, b, err)
                    if a != b:
                        assert R.rel_err(kapur(w, a, b), R.kapur(w, a, b)) <= 1e-13, ("kapur", small, a, b)
                        err = R.rel_err(norm_entropy(w, a, b), R.norm_entropy(w, a, b))
                        assert err <= 5e-13, ("norm_entropy", small, a, b, err)
                assert R.rel_err(aczel_daroczy(w, b), R.aczel_daroczy(w, b)) <= 1e-13, ("aczel_daroczy", small, b)
                assert R.rel_err(renyi(w, b), R.renyi(w, b)) <= 1e-13, ("renyi", small, b)
                assert R.rel_err(tsallis(p, b), R.tsallis(p, b)) <= 1e-13, ("tsallis", small, b)
            assert R.rel_err(shannon(w), R.shannon(w)) <= 1e-13, ("shannon", small)


class TestLogNorm:
    def test_mass_at_order_one(self):
        assert log_norm([0.3, 0.4], 1.0) == pytest.approx(math.log(0.7), abs=1e-15)

    def test_three_four_five(self):
        # (0.6, 0.8) has unit 2-norm
        assert log_norm([0.6, 0.8], 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        # oracle: (sum p^2)^(1/2) evaluated directly
        expected = 0.5 * math.log(0.75**2 + 0.25**2)
        assert log_norm([0.75, 0.25], 2.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.23500, abs=5e-6)

    def test_rejects_bad_order(self):
        for gamma in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                log_norm([0.5, 0.5], gamma)

    def test_zero_entries_do_not_contribute(self):
        assert log_norm([0.3, 0.0, 0.4], 1.0) == log_norm([0.3, 0.4], 1.0)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.uniform(0.01, 1.0, size=rng.integers(2, 8))
            values = [log_norm(w, g) for g in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)]
            assert np.all(np.diff(values) <= 1e-12)

    def test_scaling_shift(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rng.uniform(0.01, 1.0, size=5)
            c = 10.0 ** rng.uniform(-8, 8)
            g = rng.uniform(0.1, 50.0)
            lhs = log_norm(c * w, g)
            rhs = math.log(c) + log_norm(w, g)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_extreme_orders_stay_finite(self):
        w = [1e-12, 0.5, 1e-300]
        assert np.isfinite(log_norm(w, 100.0))
        assert log_norm(w, 1e4) == pytest.approx(math.log(0.5), abs=1e-3)


class TestEscort:
    def test_uniform_fixed_point(self):
        np.testing.assert_allclose(escort([0.25, 0.25], 3.0), [0.5, 0.5], atol=1e-15)

    def test_order_one_is_normalization(self):
        np.testing.assert_allclose(escort([0.3, 0.4], 1.0), [3 / 7, 4 / 7], atol=1e-15)

    def test_direct_arithmetic(self):
        np.testing.assert_allclose(escort([0.8, 0.2], 2.0), [16 / 17, 1 / 17], atol=1e-15)

    def test_sums_to_one_and_keeps_zeros(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.uniform(0.0, 1.0, size=6)
            w[rng.integers(0, 6)] = 0.0
            if not w.any():
                continue
            beta = rng.uniform(0.05, 20.0)
            e = escort(w, beta)
            assert abs(e.sum() - 1.0) <= 1e-12
            np.testing.assert_array_equal(e == 0.0, w == 0.0)

    def test_idempotent_under_renormalization(self):
        e = escort([0.5, 0.3, 0.1], 2.5)
        np.testing.assert_allclose(escort(e, 1.0), e, atol=1e-12)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            escort([0.5, 0.5], 0.0)


class TestProductCompose:
    def test_identity_factor(self):
        np.testing.assert_allclose(product_compose([1.0], [0.5, 0.5]), [0.5, 0.5])

    def test_product_of_uniforms(self):
        np.testing.assert_allclose(product_compose([0.5, 0.5], [0.5, 0.5]), [0.25] * 4)

    def test_outer_product(self):
        np.testing.assert_allclose(
            product_compose([0.6, 0.4], [0.9, 0.1]), [0.54, 0.06, 0.36, 0.04]
        )

    def test_norm_product_rule(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            p = rng.uniform(0.01, 1.0, size=rng.integers(1, 5))
            q = rng.uniform(0.01, 1.0, size=rng.integers(1, 5))
            g = rng.uniform(0.1, 30.0)
            lhs = log_norm(product_compose(p, q), g)
            rhs = log_norm(p, g) + log_norm(q, g)
            assert abs(lhs - rhs) <= 1e-10


class TestMajorizes:
    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="majorization requires equal lengths"):
            majorizes([0.6, 0.4], [0.5, 0.3, 0.2])

    def test_unequal_totals_do_not_majorize(self):
        # the prefixes dominate, but the totals differ
        assert not majorizes([0.6, 0.4], [0.5, 0.4])
        assert majorizes([0.6, 0.4], [0.5, 0.5])


class TestRobinHood:
    def test_full_equalization(self):
        np.testing.assert_allclose(robin_hood_transfer([0.8, 0.2], 0, 1, 0.3), [0.5, 0.5])

    def test_no_strict_gap_errors(self):
        with pytest.raises(ValueError):
            robin_hood_transfer([0.5, 0.5], 0, 1, 0.1)

    def test_three_state_transfer(self):
        out = robin_hood_transfer([0.6, 0.3, 0.1], 0, 2, 0.1)
        np.testing.assert_allclose(out, [0.5, 0.3, 0.2], atol=1e-15)
        assert majorizes([0.6, 0.3, 0.1], out)
        assert not majorizes(out, [0.6, 0.3, 0.1])

    def test_rejects_overshoot_and_bad_indices(self):
        with pytest.raises(ValueError):
            robin_hood_transfer([0.8, 0.2], 0, 1, 0.31)
        with pytest.raises(ValueError):
            robin_hood_transfer([0.8, 0.2], 0, 1, 0.0)
        with pytest.raises(ValueError):
            robin_hood_transfer([0.8, 0.2], 0, 0, 0.1)
        with pytest.raises(ValueError):
            robin_hood_transfer([0.8, 0.2], 1, 0, 0.1)

    def test_mass_preserved_and_majorized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.uniform(0.01, 1.0, size=rng.integers(2, 7))
            i, j = np.argmax(w), np.argmin(w)
            if w[i] <= w[j]:
                continue
            amt = rng.uniform(0.0, 1.0) * (w[i] - w[j]) / 2
            if amt == 0.0:
                continue
            out = robin_hood_transfer(w, i, j, amt)
            assert abs(out.sum() - w.sum()) <= 1e-15
            assert majorizes(w, out)
