"""The entropy families under hypothesis, on weights with extreme
dynamic range, against the mpmath reference.

A vector is drawn as 1-4 blocks (10^e, count), e in [-300, 0] and count
in [1, 3000], plus one entry 1: the (distinct value, count) form that
`mp_reference` reads, so a vector of thousands of entries costs the
reference what one of a few entries does, while the exp-lane rules of
`lne.numkit`, which start at 2048 entries, are reached.  For `log_norm`
and `lne` a count may also reach 3 * 65,536, so that their passes run
through several of `numkit`'s blocks.  Orders, and
both orders of a pair, are drawn from a fixed set over [0.05, 1e4].
Each family is held to the bounds of `tests/test_accuracy.py`, relative
with a floor of 1e-300.

Two parts wait for a mend of the library.  `lnce`: its expm1 branch
drops a state whose escort weight underflows though its term does not,
which these draws reach.  Pairs next to the diagonal: there `lne` and
`kapur` lose digits on values below about 1e-290, where the escort sum
of the slope has subnormal terms.

Examples are derandomized and counted, and no database is kept, so a
run is the same on every machine.  Shrinking stops at hypothesis's own
cap of 500 shrinks, and an example costs milliseconds.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import mp_reference as R
from lne import aczel_daroczy, kapur, lne, lne_min_entropy_limit, log_norm, renyi
from lne.numkit import _BLOCK

TOL = 1e-13
TOL_WIDE = 5e-13

ORDERS = (0.05, 0.5, 1.0, 2.0, 2.5, 7.0, 40.0, 200.0, 1e4)

SETTINGS = settings(
    max_examples=500,
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)

blocks = st.lists(st.tuples(st.integers(-300, 0), st.integers(1, 3000)), min_size=1, max_size=4)
# counts past the block size of the passes, as well as the short ones
long_blocks = st.lists(
    st.tuples(st.integers(-300, 0), st.one_of(st.integers(1, 3000), st.integers(1, 3 * _BLOCK))),
    min_size=1,
    max_size=4,
)
orders = st.sampled_from(ORDERS)
pairs = st.tuples(orders, orders)


def _vector(drawn):
    values = [10.0**e for e, _ in drawn]
    counts = [count for _, count in drawn]
    return np.append(np.repeat(values, counts), 1.0)


def _check(got, ref, tol, *where):
    err = R.rel_err(got, ref)
    assert err <= tol, (err, float(got), float(ref), *where)


@SETTINGS
@given(long_blocks, orders)
def test_log_norm(drawn, g):
    w = _vector(drawn)
    _check(log_norm(w, g), R.log_norm(w, g), TOL, drawn, g)


@SETTINGS
@given(blocks, orders)
def test_lne_min_entropy_limit(drawn, b):
    w = _vector(drawn)
    _check(lne_min_entropy_limit(w, b), R.lne_min_entropy_limit(w, b), TOL_WIDE, drawn, b)


@SETTINGS
@given(long_blocks, pairs)
def test_lne(drawn, pair):
    w, (a, b) = _vector(drawn), pair
    _check(lne(w, (a, b)), R.lne(w, a, b), TOL_WIDE, drawn, a, b)


@SETTINGS
@given(blocks, pairs)
def test_kapur(drawn, pair):
    w, (a, b) = _vector(drawn), pair
    if a != b:
        _check(kapur(w, a, b), R.kapur(w, a, b), TOL, drawn, a, b)


@SETTINGS
@given(blocks, pairs)
def test_renyi(drawn, pair):
    w, a = _vector(drawn), pair[0]
    _check(renyi(w, a), R.renyi(w, a), TOL, drawn, a)


@SETTINGS
@given(blocks, orders)
def test_aczel_daroczy(drawn, b):
    w = _vector(drawn)
    _check(aczel_daroczy(w, b), R.aczel_daroczy(w, b), TOL, drawn, b)
