"""Seeded bit-for-bit sweep over the public lne API and the CLI.

Prints one line per call: the call's index and name, a hash of its
inputs, and its outcome -- the value as hex (arrays as a hash of their
bytes), or the exception type and message -- followed by the type and
message of every warning it raised.  Two checkouts compute the same
bits exactly when their outputs for the same seed are identical:

    python3 tools/bitsweep.py --seed 101 > new.txt
    python3 tools/bitsweep.py --seed 101 --src ../parent/src > old.txt
    diff old.txt new.txt

``--src`` picks the ``src/`` directory the library is imported from
(default: the one next to this file).  With ``--ref``, every scalar
entropy or cross-entropy value on vectors of at most 64 entries also
gets its relative error against the high-precision reference of the
test suite (``tests/mp_reference.py`` next to this file, whatever
``--src`` is), so that a diff of two checkouts lists each changed value
with the error of both:

    python3 tools/bitsweep.py --ref > new.txt
    python3 tools/bitsweep.py --ref --src ../parent/src > old.txt

Only functions and arguments that long-standing checkouts have are
called.  The retired ``lse`` and ``relative_entropy_bridge`` keep their
draws and their line numbers but print no line, so that sweeps of
checkouts before and after their removal line up.  Inputs include
zero entries, tied maxima, maxima one ulp apart, entries down to
1e-320, orders from 1e-310 to 1e4, diagonal and near-diagonal order
pairs, invalid vectors and orders, and a few vectors long enough (up to
1e5) that every SIMD vector of an exp pass mixes normal,
subnormal-result and zero-result lanes.  The CLI runs in process, on
problem files written to a temporary directory.  Then come 40 solves
with |alpha - beta| / beta log-uniform in [1e-12, 1e-8], and last the
calls on vectors of 3 * 65,536 + 7 entries, which `lne.numkit` passes
over block by block; each of those two parts is drawn from a generator
of its own, so that every line before it keeps its inputs whatever it
holds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(obj) -> str:
    """A short, exact description of a value: floats as hex, arrays by hash."""
    if isinstance(obj, np.ndarray):
        h = hashlib.sha256(obj.tobytes()).hexdigest()[:16]
        return f"array{obj.shape}:{obj.dtype}:{h}"
    if isinstance(obj, (bool, np.bool_)):
        return repr(bool(obj))
    if isinstance(obj, (float, np.floating)):
        tags = [type(obj).__name__, float(obj).hex()]
        for attr in ("family", "params", "prior_mass"):
            if hasattr(obj, attr):
                tags.append(f"{attr}={getattr(obj, attr)!r}")
        return " ".join(tags)
    if isinstance(obj, (int, np.integer)):
        return f"int {int(obj)}"
    if isinstance(obj, (tuple, list)):
        return "(" + ", ".join(_digest(x) for x in obj) + ")"
    if hasattr(obj, "__dataclass_fields__"):
        fields = ", ".join(f"{k}={_digest(getattr(obj, k))}" for k in obj.__dataclass_fields__)
        return f"{type(obj).__name__}({fields})"
    return repr(obj)


def _input_hash(args) -> str:
    h = hashlib.sha256()

    def feed(a):
        if isinstance(a, np.ndarray):
            h.update(a.tobytes())
            h.update(str(a.shape).encode())
        elif hasattr(a, "__dataclass_fields__"):
            # by the fields that are set, so that checkouts whose classes
            # differ only by an unset optional field hash alike
            for k in a.__dataclass_fields__:
                if getattr(a, k) is not None:
                    feed(getattr(a, k))
        else:
            h.update(repr(a).encode())

    for a in args:
        feed(a)
    return h.hexdigest()[:12]


def _outcome(fn, args):
    """(description, value): the value is None when the call raised."""
    value = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args)
            out = _digest(value)
        except Exception as e:  # the exception is part of the outcome
            out = f"raise {type(e).__name__}: {e}"
            best = getattr(e, "best", None)
            if best is not None:
                out += f" best={_digest(best)}"
    for w in caught:
        out += f" | warn {w.category.__name__}: {w.message}"
    return out, value


# ---------------------------------------------------------------------------
# Inputs


def _vector(rng):
    """A weight vector of one of several kinds; some are invalid."""
    r = rng.random()
    n = int(rng.integers(500, 6000)) if r < 0.03 else int(rng.integers(1, 65))
    kind = int(rng.integers(0, 10))
    if kind == 0:  # uniform
        w = rng.uniform(0.0, 1.0, n)
    elif kind == 1:  # log-uniform down to 1e-320
        w = 10.0 ** rng.uniform(-320.0, 0.0, n)
    elif kind == 2:  # zeros
        w = rng.uniform(0.0, 1.0, n)
        w[rng.random(n) < 0.4] = 0.0
        w[rng.integers(n)] = rng.uniform(0.1, 1.0)
    elif kind == 3:  # tied maxima
        w = rng.uniform(0.0, 1.0, n)
        w[rng.random(n) < 0.3] = 1.0
    elif kind == 4:  # maxima one ulp apart
        w = rng.uniform(0.0, 0.5, n)
        top = rng.uniform(0.5, 1.0)
        w[rng.integers(n)] = top
        w[rng.integers(n)] = np.nextafter(top, 0.0)
        w[rng.integers(n)] = np.nextafter(top, 2.0)
    elif kind == 5:  # small integers, many ties
        w = rng.integers(0, 4, n).astype(float)
        w[0] = 1.0
    elif kind == 6:  # order-one bulk with a tail down to 1e-200, at a random scale
        w = rng.uniform(0.05, 1.0, n)
        tail = rng.random(n) < 0.25
        w[tail] = 10.0 ** rng.uniform(-200.0, -1.0, int(tail.sum()))
        w *= 10.0 ** rng.uniform(-3.0, 3.0)
    elif kind == 7:  # probability vector
        w = rng.uniform(0.0, 1.0, n)
        w /= w.sum()
    elif kind == 8:  # near one, where log w is tiny
        w = 1.0 - rng.integers(0, 4, n) * 2.0**-53
    else:  # invalid
        bad = int(rng.integers(0, 6))
        w = [
            np.array([]),
            np.zeros(max(n, 1)),
            np.array([-0.1, 0.5]),
            np.array([np.nan, 1.0]),
            np.array([np.inf, 1.0]),
            np.array([-np.inf, 1.0]),
        ][bad]
    return w


def _order(rng):
    r = rng.random()
    if r < 0.05:
        return float(rng.choice([1e-310, 2.0**-961, 2.0**-959, 1.0, 1.0 + 1e-9, 1e4, 300.0]))
    if r < 0.07:
        return float(rng.choice([0.0, -1.0, np.nan, np.inf]))
    return float(10.0 ** rng.uniform(math.log10(0.05), 2.0))


def _pair(rng):
    a = _order(rng)
    r = rng.random()
    if r < 0.15:
        return a, a
    if r < 0.35:
        return a, a * (1.0 + float(10.0 ** rng.uniform(-12.0, -6.0)) * rng.choice([-1, 1]))
    return a, _order(rng)


def _lse_input(rng):
    r = rng.random()
    if r < 0.1:
        return [
            np.array([np.inf, 1.0]),
            np.array([-np.inf, -np.inf]),
            np.array([np.nan, 1.0]),
            np.array([]),
            np.array([1e308, 1e308]),
        ][int(rng.integers(0, 5))]
    a = rng.normal(size=int(rng.integers(1, 200))) * 10.0 ** rng.uniform(-3, 3)
    if rng.random() < 0.3:
        a[rng.random(a.size) < 0.3] = -np.inf
    if rng.random() < 0.3:
        a = np.round(a)
    return a


def _long_vector(rng, n):
    """Every 8-lane block holds normal, subnormal-result and zero-result
    lanes at the orders of the sweep."""
    w = rng.uniform(0.05, 1.0, n)
    w[1::8] = 10.0 ** rng.uniform(-200.0, -150.0, w[1::8].size)
    w[3::8] = 10.0 ** rng.uniform(-320.0, -300.0, w[3::8].size)
    w[5::8] = 0.0
    return w


def calls(seed, count):
    """Yield (name, fn, args) for ``count`` seeded API calls and the CLI runs."""
    from lne import crossent, entropy, numkit, optimize, qdeform

    rng = np.random.default_rng(seed)
    one_vec = [
        ("as_weights", numkit.as_weights),
        ("total_mass", numkit.total_mass),
        ("is_probability", numkit.is_probability),
        ("is_subprobability", numkit.is_subprobability),
        ("shannon", entropy.shannon),
    ]
    vec_order = [
        ("log_norm", numkit.log_norm),
        ("escort", numkit.escort),
        ("renyi", entropy.renyi),
        ("tsallis", entropy.tsallis),
        ("aczel_daroczy", entropy.aczel_daroczy),
        ("lne_min_entropy_limit", entropy.lne_min_entropy_limit),
    ]
    vec_pair = [
        ("lne", lambda w, a, b: entropy.lne(w, (a, b))),
        ("kapur", entropy.kapur),
        ("norm_entropy", entropy.norm_entropy),
    ]
    for _ in range(count):
        r = rng.random()
        if r < 0.10:
            name, fn = one_vec[int(rng.integers(len(one_vec)))]
            yield name, fn, (_vector(rng),)
        elif r < 0.40:
            name, fn = vec_order[int(rng.integers(len(vec_order)))]
            w = _vector(rng)
            if name == "tsallis" and rng.random() < 0.5 and np.size(w):
                with np.errstate(all="ignore"):
                    w = w / w.sum()
            q = _order(rng) if name != "tsallis" or rng.random() < 0.8 else -_order(rng)
            yield name, fn, (w, q)
        elif r < 0.70:
            name, fn = vec_pair[int(rng.integers(len(vec_pair)))]
            yield name, fn, (_vector(rng), *_pair(rng))
        elif r < 0.78:
            w = _vector(rng)
            n = max(np.size(w), 1)
            p = w if rng.random() < 0.8 else rng.uniform(0.0, 1.0, n)
            q = rng.uniform(0.0, 1.0, n)
            if rng.random() < 0.3:
                q[rng.random(n) < 0.3] = 0.0
            if np.size(p) and np.all(np.isfinite(p)) and p.sum() > 0 and q.sum() > 0:
                q = q * (p.sum() / q.sum())
            retired = rng.random() >= 0.7  # the slot of the retired relative_entropy_bridge
            args = (p, q, *_pair(rng), bool(rng.random() < 0.8))
            if retired:
                yield "relative_entropy_bridge", None, ()
            else:
                yield "lnce", lambda p, q, a, b, eq: crossent.lnce(p, q, (a, b), eq), args
        elif r < 0.82:
            half = rng.uniform(0.0, 0.5)
            p = rng.uniform(0.0, 1.0, int(rng.integers(1, 20)))
            q = rng.uniform(0.0, 1.0, int(rng.integers(1, 20)))
            p *= half / p.sum()
            q *= (1.0 - half) * rng.uniform(0.5, 1.01) / q.sum()
            fn = lambda p, q, a, b: entropy.gm_subadditivity_rhs(p, q, (a, b))  # noqa: E731
            yield "gm_subadditivity_rhs", fn, (p, q, *_pair(rng))
        elif r < 0.86:
            w = _vector(rng)
            g = rng.normal(size=np.size(w))
            yield "normalized_q_expectation", optimize.normalized_q_expectation, (w, g, _order(rng))
        elif r < 0.90:
            # the slot of the retired lse: still drawn and numbered, so
            # that every later line keeps its inputs and its number
            _lse_input(rng)
            yield "lse", None, ()
        elif r < 0.95:
            x = rng.normal(size=int(rng.integers(1, 20))) * 10.0 ** rng.uniform(-2, 2)
            q = float(rng.choice([rng.uniform(-3, 3), 1.0, 1.0 + 1e-9, 2.0, 0.5]))
            if rng.random() < 0.5:
                x = np.abs(x)
            if rng.random() < 0.1:
                x[0] = float(rng.choice([0.0, np.nan, np.inf, -1.0]))
            if rng.random() < 0.1:
                x = float(x[0])
            elif rng.random() < 0.1 and q != 1.0:
                x = x.copy()
                x[0] = -1.0 / (1.0 - q)  # a bracket of exactly zero: the pole when q > 1
            fn = qdeform.q_log if rng.random() < 0.5 else qdeform.q_exp
            yield fn.__name__, fn, (x, q)
        else:
            n = int(rng.integers(2, 12))
            m = min(int(rng.integers(1, 4)), n - 1)
            a = float(rng.uniform(0.2, 5.0))
            b = a if rng.random() < 0.15 else float(rng.uniform(0.2, 5.0))
            yield _solve_call(rng, n, m, a, b)

    long = _long_vector(rng, 100_000)
    for gamma in (1e-310, 0.3, 2.0, 6.0, 100.0):
        yield "log_norm", numkit.log_norm, (long, gamma)
        yield "escort", numkit.escort, (long, gamma)
        yield "renyi", entropy.renyi, (long, gamma)
        yield "lne", lambda w, a, b: entropy.lne(w, (a, b)), (long, gamma, 1.7)
        yield "lne", lambda w, a, b: entropy.lne(w, (a, b)), (long, gamma, gamma)
        yield "lne", lambda w, a, b: entropy.lne(w, (a, b)), (long, gamma, gamma * (1 + 1e-7))
        yield "tsallis", entropy.tsallis, (long / long.sum(), gamma)
        p, q = long / long.sum(), rng.uniform(0.05, 1.0, long.size)
        yield "lnce", lambda p, q, a, b: crossent.lnce(p, q / q.sum(), (a, b)), (p, q, gamma, 1.3)

    yield from _cli_calls(rng)

    # near-diagonal solves, from a generator of their own so that every
    # line above keeps its inputs
    near = np.random.default_rng([seed, 1])
    for _ in range(40):
        n = int(near.integers(2, 12))
        m = min(int(near.integers(1, 4)), n - 1)
        b = float(near.uniform(0.2, 5.0))
        a = b * (1.0 + float(10.0 ** near.uniform(-12.0, -8.0)) * near.choice([-1, 1]))
        yield _solve_call(near, n, m, a, b)

    # vectors past three of numkit's 65,536-entry blocks, from a generator
    # of their own, so that every line above keeps its inputs
    yield from _block_calls(np.random.default_rng([seed, 2]))


def _block_calls(rng):
    """The long-vector calls on vectors of 3 * 65,536 + 7 entries, with
    and without zeros, at orders whose exp passes raise lanes."""
    from lne import crossent, entropy, numkit

    n = 3 * 65_536 + 7
    for w in (_long_vector(rng, n), rng.uniform(0.05, 1.0, n) ** 40.0):
        p, q = w / w.sum(), rng.uniform(0.05, 1.0, n)
        for gamma in (0.3, 2.0, 6.0):
            yield "log_norm", numkit.log_norm, (w, gamma)
            yield "escort", numkit.escort, (w, gamma)
            yield "lne_min_entropy_limit", entropy.lne_min_entropy_limit, (w, gamma)
            yield "renyi", entropy.renyi, (w, gamma)
            yield "lne", lambda w, a, b: entropy.lne(w, (a, b)), (w, gamma, 1.7)
            yield "lne", lambda w, a, b: entropy.lne(w, (a, b)), (w, gamma, gamma * (1 + 1e-7))
            yield "tsallis", entropy.tsallis, (p, gamma)
            yield "lnce", lambda p, q, a, b: crossent.lnce(p, q / q.sum(), (a, b)), (p, q, gamma, 1.3)
            yield "lnce", lambda p, q, a, b: crossent.lnce(p, q / q.sum(), (a, b)), (p, q, gamma, 40.0)


def _solve_call(rng, n, m, a, b):
    """A solve_maxent or solve_minxent call on m feasible constraints over n states."""
    from lne import optimize

    g = rng.standard_normal((m, n))
    t = rng.uniform(0.05, 1.0, n)
    t /= t.sum()
    tb = t**b
    G = g @ tb / tb.sum()
    cset = optimize.ConstraintSet(g, G)
    if rng.random() < 0.5:
        return "solve_maxent", optimize.solve_maxent, (n, cset, (a, b))
    prior = rng.uniform(0.0, 1.0, n)
    if a > b and rng.random() < 0.2:
        prior[0] = 0.0
    return "solve_minxent", optimize.solve_minxent, (prior / prior.sum(), cset, (a, b))


def _cli_calls(rng):
    from lne import cli

    with tempfile.TemporaryDirectory(prefix="bitsweep-") as tmp:

        def run(*argv):
            argv = [os.path.join(tmp, a) if a.endswith(".json") else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def problem(name, data):
            # argv names the file alone, so the input hash does not depend on tmp
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(data, fh)
            return name

        for i in range(30):
            n = int(rng.integers(2, 12))
            w = rng.uniform(0.0, 1.0, n)
            w[rng.random(n) < 0.2] = 0.0
            w[0] = 0.5
            path = problem(f"e{i}.json", {"weights": w.tolist()})
            fam = str(rng.choice(["shannon", "renyi", "tsallis", "kapur", "norm", "aczel_daroczy",
                                  "lne", "min_entropy_scaled"]))
            a, b = _pair(rng)
            yield "cli entropy", run, ("entropy", "--input", path, "--family", fam,
                                       "--alpha", repr(a), "--beta", repr(b))
        for b in ("0.5,1,2", "1e-3,3,20"):
            yield "cli curve", run, ("curve", "--alpha", "2.5", "--beta", b, "--step", "0.02")
        for n, p in ((10, 0.3), (60, 0.05), (200, 0.5)):
            yield "cli surface", run, ("surface", "--n", str(n), "--p", str(p),
                                       "--alpha", "0.3,1,4", "--beta", "0.5,1,1.00000001,7")
        for seed in (0, 3):
            yield "cli check", run, ("check", "--seed", str(seed))
        for i in range(16):
            n = int(rng.integers(3, 8))
            g = rng.standard_normal(n)
            t = rng.uniform(0.05, 1.0, n)
            t /= t.sum()
            a = float(rng.uniform(0.3, 4.0))
            b = a if i % 4 == 0 else float(rng.uniform(0.3, 4.0))
            G = float(g @ t**b / (t**b).sum())
            prior = rng.uniform(0.1, 1.0, n)
            data = {"weights": [1.0] * n, "params": {"alpha": a, "beta": b},
                    "constraints": [{"g": g.tolist(), "G": G}],
                    "prior": (prior / prior.sum()).tolist()}
            if i % 5 == 4:
                data["solver"] = {"max_iter": 1}
            path = problem(f"s{i}.json", data)
            yield "cli maxent", run, ("maxent", "--input", path)
            yield "cli minxent", run, ("minxent", "--input", path)


# the families with a reference; each takes the call's first four
# arguments at most (lnce's fifth is the mass check)
_REFERENCED = (
    "shannon", "renyi", "tsallis", "aczel_daroczy", "lne_min_entropy_limit", "log_norm",
    "lne", "kapur", "norm_entropy", "gm_subadditivity_rhs", "lnce",
)


def _ref_error(name, value, fargs) -> str:
    """" | ref <relative error>" for a scalar value of a referenced family
    on vectors of at most 64 entries, else ""."""
    import mp_reference as R

    if name not in _REFERENCED or not isinstance(value, float):
        return ""
    if any(isinstance(a, np.ndarray) and a.size > 64 for a in fargs):
        return ""
    return f" | ref {R.rel_err(value, getattr(R, name)(*fargs[:4])):.2e}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--calls", type=int, default=50_000, help="seeded API calls before the fixed ones")
    ap.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    ap.add_argument("--ref", action="store_true", help="append errors against the mpmath reference")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.ref:
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))
    for i, (name, fn, fargs) in enumerate(calls(args.seed, args.calls)):
        if fn is None:  # a retired call
            continue
        out, value = _outcome(fn, fargs)
        line = f"{i} {name} {_input_hash(fargs)} {out}"
        print(line + (_ref_error(name, value, fargs) if args.ref else ""))


if __name__ == "__main__":
    main()
