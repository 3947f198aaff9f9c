"""Truncated multivariate Taylor arithmetic (jets).

A Jet is (nvars, order, coef): the Taylor coefficients c_alpha =
(d^alpha f)(p) / alpha! of a smooth function at a base point p, for all
multi-indices alpha of total order up to `order` in up to three independent
variables. The base point itself is not stored: a caller that needs p
keeps it. Arithmetic, the fixed function set, derivative extraction, and
truncated composition are all exact to the stored order, so no
finite-difference noise enters downstream geometry. Coefficients may be
floats or numpy arrays of equal shape, which evaluates a whole batch of base
points in one pass.

A coefficient that is the Python float 0.0 (`type(c) is float and c == 0.0`,
the placeholder `Jet.constant` and `Jet.variable` write) is a structural
zero. Products sum only the coefficient pairs where neither factor is one,
and sums, differences and scalar products pass it through without touching
the other operand (negation gives -0.0, still a structural zero), so the
zeros of constant fields, polynomial frames and centred displacements
(`Jet.centered`) cost nothing. Arrays are never scanned for zeros. A
consequence for callers: any coefficient of a batch jet, its value
included, may be a scalar rather than an array, so the shape of a node
batch must come from the node set, not from a coefficient.

Orders are tracked structurally: an operation between jets of different
orders truncates to the lower one, and derivative extraction lowers the
order by one, so a jet of order k always carries exact coefficients through
total degree k, and truncating before an operation gives the same bits as
truncating after it. A surface geometry of order k seeds its chart frame
at order K = k + 1, because contact normalization costs one extra
derivative for general inline frames. Callers build at the order they
read: order 3 (chart order 4, the hard cap) where second derivatives of
the frame angle (x, y) enter, as in the curl of the finite-L connection form,
and order 2 (chart order 3) for the limit curvature, the Stokes check and
curves. The chart frame and the surface geometry cut each operand to the
order its readers take before using it, so none of their operations meets
two orders: in the chart frame the fields carry K, tau and the contact
form K - 1, the Reeb field and the coframe K - 2, the structure functions
K - 3; the surface pulls the coframe back at k - 1, the order of its
tangents, builds x and y at k - 1 and A and the frame vectors at
min(k - 1, 1), the most any reader takes, and the L-adapted angles and
connection forms carry k - 2.

`1.0 / J` is bitwise `_reciprocal(J)`, and `c / J` is `c * _reciprocal(J)`,
so a divisor shared by several numerators is inverted once and its
reciprocal multiplies each. On plain values a division stays a division:
`x / d` and `x * (1 / d)` may differ in the last bit.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..errors import EvaluationError

__all__ = [
    "MAX_ORDER",
    "Jet",
    "jsin",
    "jcos",
    "jtan",
    "jsinh",
    "jcosh",
    "jtanh",
    "jexp",
    "jlog",
    "jsqrt",
    "jatan2",
    "jpow",
    "JET_FUNCTIONS",
]

MAX_ORDER = 4
MAX_VARS = 3


class _Tables:
    __slots__ = ("nvars", "order", "indices", "pos", "ncoef", "mul_rows", "deriv_maps")

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        idx = [
            a
            for a in itertools.product(range(order + 1), repeat=nvars)
            if sum(a) <= order
        ]
        # degree-major ordering, so truncation to a lower order is a prefix slice
        idx.sort(key=lambda a: (sum(a), a))
        self.indices = tuple(idx)
        self.pos = {a: i for i, a in enumerate(idx)}
        self.ncoef = len(idx)
        # mul_rows[i][j] = position of idx[i] + idx[j]; row i stops where the
        # degree of idx[j] passes order - |idx[i]|, a prefix in degree-major order
        self.mul_rows = tuple(
            tuple(self.pos[tuple(x + y for x, y in zip(a, b))]
                  for b in idx if sum(a) + sum(b) <= order)
            for a in idx
        )
        # deriv_maps[k][out_position] = (source_position, integer_factor)
        maps = []
        for k in range(nvars):
            lower = [a for a in idx if sum(a) <= order - 1]
            entries = []
            for b in lower:
                src = list(b)
                src[k] += 1
                entries.append((self.pos[tuple(src)], b[k] + 1))
            maps.append(tuple(entries))
        self.deriv_maps = tuple(maps)


@lru_cache(maxsize=None)
def _tables(nvars: int, order: int) -> _Tables:
    if not 1 <= nvars <= MAX_VARS:
        raise ValueError(f"jets support 1..{MAX_VARS} variables, got {nvars}")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"jets support orders 0..{MAX_ORDER}, got {order}")
    return _Tables(nvars, order)


def _any(cond) -> bool:
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


def _zero(c) -> bool:
    """True for a structural zero: the Python float 0.0 placeholder, never an array.

    The jet arithmetic and `Composer.pull` write this same test inline, so
    an operation makes no function call per coefficient.
    """
    return type(c) is float and c == 0.0


class Jet:
    """Taylor expansion of a scalar quantity at a base point, exact to `order`."""

    __slots__ = ("nvars", "order", "coef")

    # keep numpy from broadcasting ndarray <op> Jet elementwise
    __array_ufunc__ = None

    def __init__(self, nvars: int, order: int, coef: list):
        self.nvars = nvars
        self.order = order
        self.coef = coef

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, nvars: int, order: int) -> "Jet":
        t = _tables(nvars, order)
        coef = [0.0] * t.ncoef
        coef[0] = value
        return Jet(nvars, order, coef)

    @staticmethod
    def variable(value, index: int, nvars: int, order: int) -> "Jet":
        t = _tables(nvars, order)
        coef = [0.0] * t.ncoef
        coef[0] = value
        if order >= 1:
            unit = tuple(1 if k == index else 0 for k in range(nvars))
            coef[t.pos[unit]] = 1.0
        return Jet(nvars, order, coef)

    @staticmethod
    def seeds(values: Sequence, order: int) -> list["Jet"]:
        """Independent-variable seeds at a common base point."""
        nvars = len(values)
        return [Jet.variable(v, i, nvars, order) for i, v in enumerate(values)]

    # -- accessors ----------------------------------------------------------

    @property
    def value(self):
        return self.coef[0]

    def derivative(self, alpha: Sequence[int]):
        """Mixed partial d^alpha f at the base point (Taylor coef times alpha!)."""
        t = _tables(self.nvars, self.order)
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        return self.coef[t.pos[tuple(alpha)]] * fact

    def deriv(self, k: int) -> "Jet":
        """Jet of the partial derivative with respect to variable k (order drops by 1)."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        t = _tables(self.nvars, self.order)
        coef = [self.coef[src] * fac if fac != 1 else self.coef[src]
                for src, fac in t.deriv_maps[k]]
        return Jet(self.nvars, self.order - 1, coef)

    def centered(self) -> "Jet":
        """self - self.value, with a structural-zero constant term (a displacement)."""
        return Jet(self.nvars, self.order, [0.0] + self.coef[1:])

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        n = _tables(self.nvars, order).ncoef
        return Jet(self.nvars, order, self.coef[:n])

    # -- arithmetic ---------------------------------------------------------

    def _meta(self, other):
        if type(other) is Jet and other.order == self.order and other.nvars == self.nvars:
            return self, other
        if isinstance(other, Jet):
            if other.nvars != self.nvars:
                raise ValueError("jets combine only over a shared variable set")
            order = min(self.order, other.order)
            return self.truncate(order), other.truncate(order)
        return None

    def __add__(self, other):
        pair = self._meta(other)
        if pair is None:
            coef = list(self.coef)
            c = coef[0]
            if not (type(other) is float and other == 0.0):
                coef[0] = other if type(c) is float and c == 0.0 else c + other
            return Jet(self.nvars, self.order, coef)
        a, b = pair
        # a structural zero passes the other operand through untouched
        coef = [x if type(y) is float and y == 0.0 else
                y if type(x) is float and x == 0.0 else x + y
                for x, y in zip(a.coef, b.coef)]
        return Jet(a.nvars, a.order, coef)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._meta(other)
        if pair is None:
            coef = list(self.coef)
            if not (type(other) is float and other == 0.0):
                coef[0] = coef[0] - other
            return Jet(self.nvars, self.order, coef)
        a, b = pair
        # 0.0 - y is computed: it costs what -y would and keeps IEEE signed zeros
        coef = [x if type(y) is float and y == 0.0 else x - y
                for x, y in zip(a.coef, b.coef)]
        return Jet(a.nvars, a.order, coef)

    def __rsub__(self, other):
        coef = [-c for c in self.coef]
        c = self.coef[0]
        coef[0] = other if type(c) is float and c == 0.0 else other - c
        return Jet(self.nvars, self.order, coef)

    def __neg__(self):
        return Jet(self.nvars, self.order, [-c for c in self.coef])

    def __mul__(self, other):
        pair = self._meta(other)
        if pair is None:
            coef = [c if type(c) is float and c == 0.0 else c * other for c in self.coef]
            return Jet(self.nvars, self.order, coef)
        a, b = pair
        ac, bc = a.coef, b.coef
        live_b = [j for j, c in enumerate(bc) if not (type(c) is float and c == 0.0)]
        # out[g] sums ac[i] * bc[j] over the pairs landing on g, in increasing
        # i, skipping structural zeros; a slot no pair reaches stays 0.0
        out = [None] * len(ac)
        for x, row in zip(ac, _tables(a.nvars, a.order).mul_rows):
            if type(x) is float and x == 0.0:
                continue
            n = len(row)
            for j in live_b:
                if j >= n:
                    break
                g = row[j]
                s = out[g]
                out[g] = x * bc[j] if s is None else s + x * bc[j]
        coef = [0.0 if s is None else s for s in out]
        return Jet(a.nvars, a.order, coef)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _reciprocal(other)
        return Jet(self.nvars, self.order, [c / other for c in self.coef])

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, value={self.value!r})"


# -- series composition -----------------------------------------------------


def _compose_series(u: Jet, derivs: list) -> Jet:
    """Evaluate f(u) where derivs[k] = f^(k)(u.value), k = 0..u.order."""
    du = u.centered()
    acc = Jet.constant(derivs[0], u.nvars, u.order)
    power = None
    fact = 1.0
    for k in range(1, u.order + 1):
        power = du if power is None else power * du
        fact *= k
        acc = acc + power * (derivs[k] / fact)
    return acc


def _reciprocal(u: Jet) -> Jet:
    v = u.value
    if _any(v == 0):
        raise EvaluationError("division by zero")
    derivs = [1.0 / v]
    for k in range(1, u.order + 1):
        derivs.append(derivs[-1] * (-k) / v)
    return _compose_series(u, derivs)


def _unary(np_func):
    """Wrap a value-level function for transparent use on plain numbers."""

    def decorate(jet_impl):
        def wrapper(u):
            if isinstance(u, Jet):
                return jet_impl(u)
            return np_func(u)

        wrapper.__name__ = jet_impl.__name__
        return wrapper

    return decorate


@_unary(np.sin)
def jsin(u: Jet) -> Jet:
    s, c = np.sin(u.value), np.cos(u.value)
    cycle = [s, c, -s, -c]
    return _compose_series(u, [cycle[k % 4] for k in range(u.order + 1)])


@_unary(np.cos)
def jcos(u: Jet) -> Jet:
    s, c = np.sin(u.value), np.cos(u.value)
    cycle = [c, -s, -c, s]
    return _compose_series(u, [cycle[k % 4] for k in range(u.order + 1)])


@_unary(np.tan)
def jtan(u: Jet) -> Jet:
    return jsin(u) / jcos(u)


@_unary(np.sinh)
def jsinh(u: Jet) -> Jet:
    sh, ch = np.sinh(u.value), np.cosh(u.value)
    return _compose_series(u, [sh if k % 2 == 0 else ch for k in range(u.order + 1)])


@_unary(np.cosh)
def jcosh(u: Jet) -> Jet:
    sh, ch = np.sinh(u.value), np.cosh(u.value)
    return _compose_series(u, [ch if k % 2 == 0 else sh for k in range(u.order + 1)])


@_unary(np.tanh)
def jtanh(u: Jet) -> Jet:
    return jsinh(u) / jcosh(u)


@_unary(np.exp)
def jexp(u: Jet) -> Jet:
    e = np.exp(u.value)
    return _compose_series(u, [e] * (u.order + 1))


@_unary(np.log)
def jlog(u: Jet) -> Jet:
    v = u.value
    if _any(v <= 0):
        raise EvaluationError("log of a non-positive value")
    derivs = [np.log(v)]
    for k in range(1, u.order + 1):
        # d^k log = (-1)^(k-1) (k-1)! v^-k
        derivs.append(derivs[-1] * (-(k - 1)) / v if k > 1 else 1.0 / v)
    return _compose_series(u, derivs)


@_unary(np.sqrt)
def jsqrt(u: Jet) -> Jet:
    v = u.value
    if u.order == 0:
        if _any(v < 0):
            raise EvaluationError("sqrt of a negative value")
        return Jet(u.nvars, 0, [np.sqrt(v)])
    if _any(v <= 0):
        raise EvaluationError("sqrt of a non-positive value (derivative undefined)")
    s = np.sqrt(v)
    derivs = [s]
    for k in range(1, u.order + 1):
        # d^k sqrt / d^(k-1) sqrt = (1/2 - (k-1)) / v
        derivs.append(derivs[-1] * (1.5 - k) / v)
    return _compose_series(u, derivs)


def _atan_jet(u: Jet) -> Jet:
    v = u.value
    w = 1.0 + v * v
    derivs = [np.arctan(v), 1.0 / w]
    if u.order >= 2:
        derivs.append(-2.0 * v / (w * w))
    if u.order >= 3:
        derivs.append((6.0 * v * v - 2.0) / (w * w * w))
    if u.order >= 4:
        derivs.append(24.0 * v * (1.0 - v * v) / (w * w * w * w))
    return _compose_series(u, derivs)


def jatan2(y, x):
    """Two-argument arctangent; defined away from the origin, errors at (0, 0)."""
    if not isinstance(y, Jet) and not isinstance(x, Jet):
        return np.arctan2(y, x)
    if not isinstance(y, Jet):
        y = Jet.constant(y, x.nvars, x.order)
    if not isinstance(x, Jet):
        x = Jet.constant(x, y.nvars, y.order)
    x0, y0 = x.value, y.value
    r2 = x0 * x0 + y0 * y0
    if _any(r2 == 0):
        raise EvaluationError("atan2 undefined at the origin")
    base = np.arctan2(y0, x0)
    # atan2(y, x) - atan2(y0, x0) = atan((y x0 - x y0) / (x x0 + y y0)) as a germ;
    # the denominator equals r2 > 0 at the base point
    num = y * x0 - x * y0
    den = x * x0 + y * y0
    return _atan_jet(num / den) + base


def _constant_exponent(expo: Jet):
    """Exponent value if the jet has no derivative content, else None."""
    for c in expo.coef[1:]:
        if not _zero(c) and _any(np.asarray(c) != 0):
            return None
    return expo.value


def _int_pow(base: Jet, n: int) -> Jet:
    if n == 0:
        return Jet.constant(base.value * 0.0 + 1.0, base.nvars, base.order)
    if n < 0:
        return _int_pow(_reciprocal(base), -n)
    acc = None
    sq = base
    while n:
        if n & 1:
            acc = sq if acc is None else acc * sq
        n >>= 1
        if n:
            sq = sq * sq
    return acc


def jpow(base, expo):
    """base ** expo; integer constant exponents work for any base value."""
    if not isinstance(base, Jet) and not isinstance(expo, Jet):
        return np.power(base, expo)
    if not isinstance(expo, Jet):
        e = expo
    else:
        e = _constant_exponent(expo)
        if e is None:
            # genuinely variable exponent: base must stay positive
            if not isinstance(base, Jet):
                base = Jet.constant(base, expo.nvars, expo.order)
            if _any(base.value <= 0):
                raise EvaluationError("power with variable exponent needs a positive base")
            return jexp(expo * jlog(base))
    if not isinstance(base, Jet):
        return np.power(base, e)
    ev = np.asarray(e, dtype=float)
    if np.all(ev == np.floor(ev)) and ev.size >= 1 and np.all(ev == ev.flat[0]) and abs(ev.flat[0]) <= 1024:
        return _int_pow(base, int(ev.flat[0]))
    if _any(base.value <= 0):
        raise EvaluationError("non-integer power of a non-positive value")
    v = base.value
    # d^k (v^e) = e (e-1) ... (e-k+1) v^(e-k)
    derivs = [np.power(v, e)]
    coeff = 1.0
    for k in range(1, base.order + 1):
        coeff = coeff * (e - (k - 1))
        derivs.append(coeff * np.power(v, e - k))
    return _compose_series(base, derivs)


class Composer:
    """Reusable truncated Taylor composition against fixed displacements.

    Monomial powers of the displacement jets are built once; each pull of an
    outer jet is then a coefficient-weighted sum. Displacements must have an
    exactly zero constant term: pass `jet.centered()`, whose structural-zero
    constant term makes a degree-k power start at degree k, so the powers
    skip every lower coefficient.
    """

    def __init__(self, displacements: Sequence[Jet]):
        self.outer_nvars = len(displacements)
        self.order = min(d.order for d in displacements)
        self.inner_nvars = displacements[0].nvars
        ds = [d.truncate(self.order) for d in displacements]
        for d in ds:
            if d.nvars != self.inner_nvars:
                raise ValueError("displacements must share a variable set")
        self.powers: dict[tuple, Jet] = {}
        for a in _tables(self.outer_nvars, self.order).indices:
            if sum(a) == 0:
                continue
            k = next(i for i, ai in enumerate(a) if ai > 0)
            b = list(a)
            b[k] -= 1
            prev = self.powers.get(tuple(b))
            self.powers[a] = ds[k] if prev is None else prev * ds[k]

    def pull(self, outer: Jet) -> Jet:
        """Compose: result is exact to min(outer.order, displacement order)."""
        if not isinstance(outer, Jet):
            return Jet.constant(outer, self.inner_nvars, self.order)
        if outer.nvars != self.outer_nvars:
            raise ValueError("need one displacement per outer variable")
        order = min(outer.order, self.order)
        coef = outer.coef
        acc = Jet.constant(coef[0], self.inner_nvars, order)
        # degree-major layout: the order-`order` indices are a prefix of the
        # outer jet's, and index 0 is the constant term
        for a, c in zip(_tables(outer.nvars, order).indices[1:], coef[1:]):
            if type(c) is float and c == 0.0:
                continue
            acc = acc + self.powers[a].truncate(order) * c
        return acc


def value_of(x) -> np.ndarray:
    """Value of a jet, or the number or array itself, as an array."""
    return np.asarray(x.value if isinstance(x, Jet) else x)


def stack_values(comps, shape=()) -> np.ndarray:
    """Values of jets or numbers, broadcast to one shape (at least `shape`) and stacked."""
    vals = [value_of(c) for c in comps]
    shape = np.broadcast_shapes(shape, *(v.shape for v in vals))
    return np.stack([np.broadcast_to(v, shape) for v in vals])


JET_FUNCTIONS = {
    "sin": jsin,
    "cos": jcos,
    "tan": jtan,
    "sinh": jsinh,
    "cosh": jcosh,
    "tanh": jtanh,
    "exp": jexp,
    "log": jlog,
    "sqrt": jsqrt,
    "atan2": jatan2,
}
