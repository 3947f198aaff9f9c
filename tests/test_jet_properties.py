"""Property tests for the jet layer, structural zeros included.

Random jets (1-3 variables, orders 0-4) mix the structural-zero placeholder
0.0, Python floats and small arrays. Products, sums, differences, Taylor
composition and derivatives are checked against a reference written here: a
plain double loop over {multi-index: coefficient} dicts that shares no code
with the jet tables. Coefficients are small integers, so every sum is exact
in any order and results compare with np.array_equal, which also counts
-0.0 equal to 0.0.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from srlab.calculus.jets import (  # noqa: E402
    Composer, Jet, _reciprocal, jatan2, jcos, jcosh, jexp, jlog, jpow, jsin, jsinh,
    jsqrt, jtan, jtanh,
)

WIDTH = 3   # nodes per array coefficient


def layout(nvars, order):
    """Multi-indices in the jet's coefficient order: by degree, then lexicographic."""
    idx = [a for a in itertools.product(range(order + 1), repeat=nvars) if sum(a) <= order]
    return sorted(idx, key=lambda a: (sum(a), a))


def structural(c):
    return type(c) is float and c == 0.0


def as_dict(jet, order=None):
    order = jet.order if order is None else order
    return {a: c for a, c in zip(layout(jet.nvars, jet.order), jet.coef) if sum(a) <= order}


def ref_mul(a, b, order):
    out = {}
    for alpha, x in a.items():
        for beta, y in b.items():
            g = tuple(p + q for p, q in zip(alpha, beta))
            if sum(g) <= order:
                out[g] = out.get(g, 0.0) + x * y
    return out


def ref_compose(outer, disps, order):
    zero = (0,) * disps[0].nvars
    acc = {}
    for beta, c in as_dict(outer, order).items():
        term = {zero: 1.0}
        for k, e in enumerate(beta):
            for _ in range(e):
                term = ref_mul(term, as_dict(disps[k], order), order)
        for g, v in term.items():
            acc[g] = acc.get(g, 0.0) + c * v
    return acc


def same(actual, expected):
    shape = np.broadcast_shapes(np.shape(actual), np.shape(expected))
    return np.array_equal(np.broadcast_to(actual, shape), np.broadcast_to(expected, shape))


def assert_matches(jet, ref, nvars, order):
    assert (jet.nvars, jet.order) == (nvars, order)
    idx = layout(nvars, order)
    assert len(jet.coef) == len(idx)
    for alpha, c in zip(idx, jet.coef):
        assert same(c, ref.get(alpha, 0.0)), (alpha, c, ref.get(alpha, 0.0))


small = st.integers(-4, 4)
array = st.lists(small, min_size=WIDTH, max_size=WIDTH).map(lambda v: np.array(v, dtype=float))
coefficient = st.one_of(st.just(0.0), small.map(float), array)


@st.composite
def jets(draw, nvars, order, coefs=coefficient):
    n = len(layout(nvars, order))
    return Jet(nvars, order, draw(st.lists(coefs, min_size=n, max_size=n)))


@st.composite
def jet_pairs(draw, coefs=coefficient):
    nvars = draw(st.integers(1, 3))
    a = draw(jets(nvars, draw(st.integers(0, 4)), coefs))
    b = draw(jets(nvars, draw(st.integers(0, 4)), coefs))
    return a, b


@st.composite
def compositions(draw):
    inner, outer_vars = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    order = draw(st.integers(0, 4))
    disps = [draw(jets(inner, order)).centered() for _ in range(outer_vars)]
    return draw(jets(outer_vars, draw(st.integers(0, 4)))), disps


@given(jet_pairs())
def test_product(pair):
    a, b = pair
    order = min(a.order, b.order)
    ra, rb = as_dict(a, order), as_dict(b, order)
    for prod in (a * b, b * a):
        assert_matches(prod, ref_mul(ra, rb, order), a.nvars, order)
    # a slot no pair of live factors lands on is a structural zero; one that an
    # array factor reaches is not (Python floats alone may cancel to 0.0)
    live = {}
    for alpha, x in ra.items():
        for beta, y in rb.items():
            g = tuple(p + q for p, q in zip(alpha, beta))
            if sum(g) <= order and not structural(x) and not structural(y):
                live[g] = live.get(g, False) or bool(np.ndim(x) or np.ndim(y))
    for alpha, c in zip(layout(a.nvars, order), (a * b).coef):
        if alpha not in live:
            assert structural(c)
        elif live[alpha]:
            assert not structural(c)


@given(jet_pairs())
def test_sum_and_difference(pair):
    a, b = pair
    order = min(a.order, b.order)
    ra, rb = as_dict(a, order), as_dict(b, order)
    idx = layout(a.nvars, order)
    total = {k: ra[k] + rb[k] for k in idx}
    assert_matches(a + b, total, a.nvars, order)
    assert_matches(b + a, total, a.nvars, order)
    assert_matches(a - b, {k: ra[k] - rb[k] for k in idx}, a.nvars, order)
    assert_matches(b - a, {k: rb[k] - ra[k] for k in idx}, a.nvars, order)
    for k, x, y in zip(idx, (a + b).coef, (a - b).coef):
        if structural(ra[k]) and structural(rb[k]):
            assert structural(x) and structural(y)
        elif np.ndim(ra[k]) or np.ndim(rb[k]):
            assert not structural(x) and not structural(y)


@given(jet_pairs(), st.one_of(small.map(float), array))
def test_scalar_operations(pair, s):
    a = pair[0]
    ra = as_dict(a)
    zero = (0,) * a.nvars
    shifted = dict(ra)
    assert_matches(-a, {k: -c for k, c in ra.items()}, a.nvars, a.order)
    for prod in (a * s, s * a):
        assert_matches(prod, {k: c * s for k, c in ra.items()}, a.nvars, a.order)
        assert all(structural(p) for c, p in zip(a.coef, prod.coef) if structural(c))
    shifted[zero] = ra[zero] + s
    assert_matches(a + s, shifted, a.nvars, a.order)
    assert_matches(s + a, shifted, a.nvars, a.order)
    shifted[zero] = ra[zero] - s
    assert_matches(a - s, shifted, a.nvars, a.order)
    assert_matches(s - a, {k: -c for k, c in shifted.items()}, a.nvars, a.order)


@given(jet_pairs())
def test_centered(pair):
    a = pair[0]
    centered = a.centered()
    assert structural(centered.value)
    expected = dict(as_dict(a))
    expected[(0,) * a.nvars] = 0.0
    assert_matches(centered, expected, a.nvars, a.order)


@given(jet_pairs(), st.integers(0, 2))
def test_derivative(pair, k):
    a = pair[0]
    assume(a.order >= 1)
    k %= a.nvars
    expected = {}
    for alpha, c in as_dict(a).items():
        if alpha[k]:
            lower = tuple(e - (i == k) for i, e in enumerate(alpha))
            expected[lower] = c * alpha[k]
    assert_matches(a.deriv(k), expected, a.nvars, a.order - 1)


@given(compositions())
def test_composition(case):
    outer, disps = case
    order = min(outer.order, disps[0].order)
    expected = ref_compose(outer, disps, order)
    inner = disps[0].nvars
    assert_matches(Composer(disps).pull(outer), expected, inner, order)
    # displacements whose zero constant term is an array, not a structural zero
    dense = [Jet(d.nvars, d.order, [np.zeros(WIDTH)] + d.coef[1:]) for d in disps]
    assert_matches(Composer(dense).pull(outer), expected, inner, order)


def poisoned(c, bad):
    out = np.zeros(WIDTH) + c
    out[0] = bad
    return out


def non_finite(c):
    return not np.isfinite(np.broadcast_to(c, (WIDTH,))[0])


@given(jet_pairs(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_non_finite_coefficients_still_propagate(pair, bad, data):
    """Skipping structural zeros never hides a NaN or inf in a live coefficient."""
    a, b = pair
    order = min(a.order, b.order)
    a, b = a.truncate(order), b.truncate(order)
    i = data.draw(st.integers(0, len(a.coef) - 1))
    coef = list(a.coef)
    coef[i] = poisoned(coef[i], bad)
    a = Jet(a.nvars, order, coef)
    # a live value in b makes a_i * b_0 one of the pairs summed into slot i
    b = Jet(b.nvars, order, [1.0 if structural(b.value) else b.value] + b.coef[1:])
    with np.errstate(invalid="ignore"):
        results = (a * b, b * a, a + b, b + a, a - b, b - a, -a, a * 3.0, a + 1.0, 2.0 - a)
    for result in results:
        assert non_finite(result.coef[i])
    alpha = layout(a.nvars, order)[i]
    for k in range(a.nvars):
        if alpha[k]:
            lower = tuple(e - (j == k) for j, e in enumerate(alpha))
            assert non_finite(a.deriv(k).coef[layout(a.nvars, order - 1).index(lower)])


@given(compositions(), st.sampled_from([np.nan, np.inf]))
def test_non_finite_outer_value_reaches_the_composition(case, bad):
    outer, disps = case
    outer = Jet(outer.nvars, outer.order, [poisoned(outer.value, bad)] + outer.coef[1:])
    assert non_finite(Composer(disps).pull(outer).value)


def test_product_matches_sympy():
    """Scalar-coefficient products against sympy's polynomial expansion."""
    sympy = pytest.importorskip("sympy")

    def poly(jet, xs):
        return sum(sympy.Integer(int(c)) * sympy.prod([x**e for x, e in zip(xs, alpha)])
                   for alpha, c in as_dict(jet).items())

    @settings(max_examples=30)
    @given(jet_pairs(coefs=st.one_of(st.just(0.0), small.map(float))))
    def check(pair):
        a, b = pair
        order = min(a.order, b.order)
        xs = sympy.symbols(f"x0:{a.nvars}")
        terms = sympy.Poly(sympy.expand(poly(a, xs) * poly(b, xs)), *xs).terms()
        expected = {m: float(c) for m, c in terms if sum(m) <= order}
        assert_matches(a * b, expected, a.nvars, order)

    check()


# -- truncation ----------------------------------------------------------------
#
# A degree-k coefficient depends only on inputs of degree <= k, and the jet
# code forms it from the same pairs in the same order at every order, so
# truncating before an operation gives the same bits as truncating after.
# The geometry layer relies on this to build each geometry at the order its
# integrands read. Coefficients here are arbitrary reals, so a change in
# summation order would show in the last bits.

real = st.floats(-4, 4)
real_coefficient = st.one_of(
    st.just(0.0), real, st.lists(real, min_size=WIDTH, max_size=WIDTH).map(np.array))
# values kept where every series function below is defined
base_value = st.floats(0.25, 1.25)
base_coefficient = st.one_of(
    base_value, st.lists(base_value, min_size=WIDTH, max_size=WIDTH).map(np.array))


@st.composite
def real_jets(draw, nvars, order):
    n = len(layout(nvars, order))
    rest = draw(st.lists(real_coefficient, min_size=n - 1, max_size=n - 1))
    return Jet(nvars, order, [draw(base_coefficient)] + rest)


@st.composite
def truncation_cases(draw):
    """Two jets on one variable set and an order k no higher than either's."""
    nvars = draw(st.integers(1, 3))
    a = draw(real_jets(nvars, draw(st.integers(0, 4))))
    b = draw(real_jets(nvars, draw(st.integers(0, 4))))
    return a, b, draw(st.integers(0, min(a.order, b.order)))


def assert_bitwise(x, y):
    assert (x.nvars, x.order) == (y.nvars, y.order)
    assert len(x.coef) == len(y.coef)
    for c, d in zip(x.coef, y.coef):
        assert structural(c) == structural(d)
        assert np.shape(c) == np.shape(d)
        assert np.asarray(c).tobytes() == np.asarray(d).tobytes(), (c, d)


SERIES = {
    "sin": jsin, "cos": jcos, "tan": jtan, "sinh": jsinh, "cosh": jcosh,
    "tanh": jtanh, "exp": jexp, "log": jlog, "sqrt": jsqrt,
    "pow 2.5": lambda u: jpow(u, 2.5), "pow 3": lambda u: jpow(u, 3),
    "pow -2": lambda u: jpow(u, -2),
}


@given(truncation_cases())
def test_truncation_commutes_with_arithmetic(case):
    a, b, k = case
    ak, bk = a.truncate(k), b.truncate(k)
    for op in ("__mul__", "__add__", "__sub__", "__truediv__"):
        assert_bitwise(getattr(a, op)(b).truncate(k), getattr(ak, op)(bk))
    assert_bitwise(jatan2(a, b).truncate(k), jatan2(ak, bk))


@given(truncation_cases(), st.sampled_from(sorted(SERIES)))
def test_truncation_commutes_with_series(case, name):
    a, _, k = case
    fn = SERIES[name]
    assert_bitwise(fn(a).truncate(k), fn(a.truncate(k)))


@given(st.data(), st.integers(0, 2))
def test_truncation_commutes_with_deriv(data, i):
    nvars, order = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    a, k = data.draw(real_jets(nvars, order)), data.draw(st.integers(1, order))
    i %= nvars
    assert_bitwise(a.deriv(i).truncate(k - 1), a.truncate(k).deriv(i))


@st.composite
def truncated_compositions(draw):
    inner, outer_vars = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    order = draw(st.integers(0, 4))
    disps = [draw(real_jets(inner, order)).centered() for _ in range(outer_vars)]
    outer = draw(real_jets(outer_vars, draw(st.integers(0, 4))))
    return outer, disps, draw(st.integers(0, min(order, outer.order)))


@given(truncated_compositions())
def test_truncation_commutes_with_pull(case):
    outer, disps, k = case
    full = Composer(disps).pull(outer).truncate(k)
    # truncating the outer jet alone (the geometry layer's case), or both
    assert_bitwise(full, Composer(disps).pull(outer.truncate(k)))
    assert_bitwise(full, Composer([d.truncate(k) for d in disps]).pull(outer.truncate(k)))


# -- bitwise arithmetic over every coefficient type ------------------------------
#
# The arithmetic writes the structural-zero test inline and skips the
# truncation when both operands share their order. These references state
# the documented rules on {multi-index: coefficient} dicts, down to the
# order of every sum: a product adds the live pairs in increasing (alpha,
# beta) order starting from the first product itself, a structural zero
# passes the other operand through, and a slot with no live pair stays the
# placeholder 0.0. Results must match them bit for bit, type included.

mixed_coefficient = st.one_of(
    st.sampled_from([0.0, -0.0]),           # both are structural zeros
    real,
    real.map(np.float64),
    real.map(np.array),                     # 0-d arrays
    st.lists(real, min_size=WIDTH, max_size=WIDTH).map(np.array),
)
mixed_scalar = st.one_of(real, real.map(np.float64),
                         st.lists(real, min_size=WIDTH, max_size=WIDTH).map(np.array))
mixed_base = st.one_of(base_value, base_value.map(np.float64), base_value.map(np.array),
                       st.lists(base_value, min_size=WIDTH, max_size=WIDTH).map(np.array))


def exact_mul(a, b, nvars, order):
    out = {}
    for alpha, x in a.items():
        if structural(x):
            continue
        for beta, y in b.items():
            g = tuple(p + q for p, q in zip(alpha, beta))
            if structural(y) or sum(g) > order:
                continue
            out[g] = x * y if g not in out else out[g] + x * y
    return {g: out.get(g, 0.0) for g in layout(nvars, order)}


def exact_add(a, b):
    return {k: a[k] if structural(b[k]) else b[k] if structural(a[k]) else a[k] + b[k]
            for k in a}


def exact_sub(a, b):
    return {k: a[k] if structural(b[k]) else a[k] - b[k] for k in a}


def exact_scale(a, s):
    return {k: c if structural(c) else c * s for k, c in a.items()}


def assert_exact(jet, ref, nvars, order):
    assert (jet.nvars, jet.order) == (nvars, order)
    idx = layout(nvars, order)
    assert len(jet.coef) == len(idx)
    for alpha, c in zip(idx, jet.coef):
        d = ref[alpha]
        assert type(c) is type(d) and np.shape(c) == np.shape(d), (alpha, c, d)
        assert np.asarray(c).tobytes() == np.asarray(d).tobytes(), (alpha, c, d)


@st.composite
def mixed_pairs(draw):
    """Two jets on one variable set, at equal or different orders."""
    nvars = draw(st.integers(1, 3))
    a = draw(jets(nvars, draw(st.integers(0, 4)), mixed_coefficient))
    order_b = draw(st.one_of(st.just(a.order), st.integers(0, 4)))
    return a, draw(jets(nvars, order_b, mixed_coefficient))


@given(mixed_pairs())
def test_arithmetic_is_bitwise_on_mixed_coefficients(pair):
    a, b = pair
    n, order = a.nvars, min(a.order, b.order)
    ra, rb = as_dict(a, order), as_dict(b, order)
    assert_exact(a * b, exact_mul(ra, rb, n, order), n, order)
    assert_exact(b * a, exact_mul(rb, ra, n, order), n, order)
    assert_exact(a + b, exact_add(ra, rb), n, order)
    assert_exact(b + a, exact_add(rb, ra), n, order)
    assert_exact(a - b, exact_sub(ra, rb), n, order)
    assert_exact(b - a, exact_sub(rb, ra), n, order)


@given(mixed_pairs(), mixed_scalar)
def test_scalar_arithmetic_is_bitwise_on_mixed_coefficients(pair, s):
    a = pair[0]
    ra = as_dict(a)
    assert_exact(a * s, exact_scale(ra, s), a.nvars, a.order)
    assert_exact(s * a, exact_scale(ra, s), a.nvars, a.order)
    if np.all(np.asarray(s) != 0):
        with np.errstate(over="ignore"):     # a subnormal divisor may overflow
            assert_exact(a / s, {k: c / s for k, c in ra.items()}, a.nvars, a.order)


@given(mixed_pairs(), mixed_base)
def test_division_is_the_product_with_the_reciprocal(pair, value):
    a, b = pair
    b = Jet(b.nvars, b.order, [value] + b.coef[1:])
    recip = as_dict(_reciprocal(b))
    order = min(a.order, b.order)
    expected = exact_mul(as_dict(a, order), {k: recip[k] for k in layout(a.nvars, order)},
                         a.nvars, order)
    assert_exact(a / b, expected, a.nvars, order)
    assert_exact(1.0 / b, exact_scale(recip, 1.0), b.nvars, b.order)


def exact_pull(outer, disps):
    """Composer.pull as documented: powers by repeated products, summed in layout order."""
    nvars = disps[0].nvars
    order = min(d.order for d in disps)
    ds = [as_dict(d, order) for d in disps]
    powers = {}
    for a in layout(outer.nvars, order)[1:]:
        k = next(i for i, e in enumerate(a) if e)
        b = tuple(e - (i == k) for i, e in enumerate(a))
        powers[a] = ds[k] if b not in powers else exact_mul(powers[b], ds[k], nvars, order)
    order = min(order, outer.order)
    coef = as_dict(outer, order)
    acc = {g: 0.0 for g in layout(nvars, order)}
    acc[(0,) * nvars] = outer.value
    for a in layout(outer.nvars, order)[1:]:
        if not structural(coef[a]):
            term = {g: c for g, c in powers[a].items() if sum(g) <= order}
            acc = exact_add(acc, exact_scale(term, coef[a]))
    return acc, order


@given(st.data())
def test_pull_is_bitwise_on_mixed_coefficients(data):
    inner, outer_vars = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    order = data.draw(st.integers(0, 4))
    disps = [data.draw(jets(inner, order, mixed_coefficient)).centered()
             for _ in range(outer_vars)]
    outer = data.draw(jets(outer_vars, data.draw(st.integers(0, 4)), mixed_coefficient))
    expected, k = exact_pull(outer, disps)
    assert_exact(Composer(disps).pull(outer), expected, inner, k)
