import math

import numpy as np
import pytest

from lne import q_exp, q_log
from lne.qdeform import _log_q_exp


def test_qlog_fixed_points():
    assert q_log(1.0, -3.7) == 0.0
    assert q_log(1.0, 2.2) == 0.0
    assert q_log(math.e, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert q_log(4.0, 0.0) == pytest.approx(3.0, abs=1e-15)


def test_qexp_fixed_points():
    assert q_exp(0.0, 5.0) == 1.0
    assert q_exp(-2.0, 0.0) == 0.0  # cutoff branch: bracket = -1
    assert q_exp(3.0, 0.0) == pytest.approx(4.0, abs=1e-15)


def test_qlog_domain():
    with pytest.raises(ValueError):
        q_log(0.0, 0.5)
    with pytest.raises(ValueError):
        q_log(-1.0, 0.5)
    with pytest.raises(ValueError):
        q_log([1.0, 0.0], 0.5)


def test_qexp_cutoff_boundary():
    # bracket exactly 0: q < 1 takes the cutoff value 0, q > 1 is a pole
    assert q_exp(-2.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        q_exp(0.8, 2.25)  # 1 + (1 - 2.25) * 0.8 == 0 exactly
    # strictly negative bracket with q > 1 is still the cutoff
    assert q_exp(1.0, 2.25) == 0.0


# the inverse and product identities are stated in lne.checks; these
# read its run at seeds 0-9
def test_inverse_identity_grid(check_at_seeds):
    check_at_seeds("qdeform_identities")


def test_product_identities(check_at_seeds):
    check_at_seeds("qdeform_identities")


def test_derivative_identities():
    h = 1e-6
    for q in (-1.5, -0.5, 0.0, 0.5, 1.3, 2.0):
        for x in np.linspace(0.3, 4.0, 12):
            num = (q_log(x + h, q) - q_log(x - h, q)) / (2 * h)
            assert abs(num - x**-q) <= 1e-5 * max(1.0, abs(x**-q))
        for u in np.linspace(-0.2, 1.5, 12):
            if 1 + (1 - q) * (u - h) <= 1e-3:
                continue  # stay inside the support
            num = (q_exp(u + h, q) - q_exp(u - h, q)) / (2 * h)
            val = q_exp(u, q) ** q
            assert abs(num - val) <= 1e-5 * max(1.0, abs(val))


def test_classical_limit_window():
    xs = np.linspace(0.05, 10.0, 50)
    for q in (1.0 - 1e-10, 1.0 + 1e-10):
        assert np.max(np.abs(q_log(xs, q) - np.log(xs))) <= 1e-8
        assert np.max(np.abs(q_exp(np.log(xs), q) - xs)) <= 1e-8


@pytest.mark.parametrize("dq", [1e-15, 1e-12, 1e-9, 5e-9, 1e-8])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_near_one_matches_mpmath(dq, sign):
    # next to q = 1 the deformed forms keep full precision: switching to
    # the classical log/exp there would cost about |1 - q| * |log x|
    import mpmath

    q = 1.0 + sign * dq
    rng = np.random.default_rng(5)
    xs = 10.0 ** rng.uniform(-30.0, 30.0, 60)
    us = rng.uniform(-50.0, 50.0, 60)
    got_log, got_exp = q_log(xs, q), q_exp(us, q)
    with mpmath.workdps(60):
        c = 1 - mpmath.mpf(q)
        for x, got in zip(xs, got_log):
            ref = mpmath.expm1(c * mpmath.log(x)) / c
            assert abs(got - ref) <= 1e-15 * abs(ref), (q, x, got)
        for u, got in zip(us, got_exp):
            ref = mpmath.exp(mpmath.log1p(c * u) / c)
            assert abs(got - ref) <= 2.0**-50 * (1.0 + abs(u)) * ref, (q, u, got)


def test_array_and_scalar_round_trip():
    out = q_exp(np.array([-5.0, 0.0, 1.0]), 0.5)
    assert isinstance(out, np.ndarray) and out[0] == 0.0
    assert isinstance(q_exp(1.0, 0.5), float)
    assert isinstance(q_log(2.0, 0.5), float)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_qlog_message(bad):
    for x in (bad, [2.0, bad, 1.0], np.array([[1.0, bad]])):
        with pytest.raises(ValueError, match=r"^q_log requires finite x > 0$"):
            q_log(x, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qexp_message(bad):
    for q in (0.5, 1.0, 2.0):
        for x in (bad, [2.0, bad, -1.0]):
            with pytest.raises(ValueError, match=r"^q_exp requires finite x$"):
                q_exp(x, q)


def test_qexp_pole_message_and_cutoff_mix():
    # a zero bracket among positive and negative ones
    with pytest.raises(ValueError, match=r"^q_exp pole: bracket is exactly 0 with q > 1$"):
        q_exp([0.1, 0.8, -3.0], 2.25)
    # q < 1: the zero bracket and the negative one both give 0
    out = q_exp([0.1, -2.0, -3.0], 0.5)
    assert out[1] == 0.0 and out[2] == 0.0 and out[0] > 0.0


def test_qexp_matches_masked_form_bit_for_bit():
    rng = np.random.default_rng(4)
    for q in (-1.5, 0.25, 0.5, 1.7, 3.0):
        c = 1.0 - q
        x = rng.uniform(-3.0, 3.0, 999)
        bracket = 1.0 + c * x
        expected = np.zeros_like(x)
        pos = bracket > 0
        expected[pos] = np.exp(np.log1p(c * x[pos]) / c)
        assert q_exp(x, q).tobytes() == expected.tobytes()
        x = x[pos]  # every bracket positive
        assert q_exp(x, q).tobytes() == np.exp(np.log1p(c * x) / c).tobytes()


def test_shapes_and_empty_input():
    assert q_log(np.array(2.0), 0.5).shape == ()
    assert q_exp(np.array([[0.5, -3.0]]), 0.5).shape == (1, 2)
    for f in (q_log, q_exp):
        for q in (0.5, 1.0, 2.0):
            out = f(np.array([]), q)
            assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
def test_nonfinite_q_message(q):
    for f in (q_log, q_exp):
        with pytest.raises(ValueError, match=r"^q must be finite"):
            f([0.5, 2.0], q)


def test_log_kernel_cuts_once_and_keeps_nan():
    # the cutoff of exp_q: -inf and a mask where 1 + cx <= 0; nan is not cut
    cx = np.array([0.5, -1.0, -2.0, np.nan])
    cut = _log_q_exp(cx, 2.0)
    assert cut.tolist() == [False, True, True, False]
    assert cx[0] == np.log1p(0.5) / 2.0 and cx[1] == cx[2] == -np.inf and np.isnan(cx[3])
    cx = np.array([0.5, np.nan])
    assert _log_q_exp(cx, -0.5) is None and np.isnan(cx[1])
    assert _log_q_exp(np.array([]), 0.5) is None
