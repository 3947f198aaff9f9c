"""Parametrized surface patches and the frames adapted to them.

A patch is an immersion Phi(u, v) into the chart. At a regular (that is,
non-characteristic) point the tangent plane meets the horizontal distribution
in a line; the unit horizontal direction of that line is f2, the horizontal
normal is f1, and f3 = e3 + A f1 completes a tangent basis, where the
function A is read off the horizontal conormal f^1. The tangent frames of
the metric family are built from these where the connection forms read
them (`curvature.LFormAssembly`).

All quantities are carried as jets in (u, v) so the curvature layer can take
exact derivatives. Parameter inputs may be numpy arrays for batch work.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import Jet, ScalarField, pair_oneform
from .calculus.jets import Composer, jsqrt, stack_values, value_of
from .errors import CharacteristicPointError, ImmersionError, TransversalityError
from .frame import FrameData, SubRiemannianModel, _cross, _cut

SURFACE_VARS = ("u", "v")
EPS_CHAR = 1e-8
IMMERSION_RTOL = 1e-10
SURFACE_ORDER = 3


@dataclass(frozen=True)
class SurfacePatch:
    """Immersed surface given by three chart-coordinate expressions of u, v."""

    phi: tuple
    domain: Mapping | None = None

    @staticmethod
    def parse(texts, domain=None) -> "SurfacePatch":
        if len(texts) != 3:
            raise ValueError("a surface patch needs 3 coordinate expressions")
        comps = tuple(ScalarField.parse(t, SURFACE_VARS) for t in texts)
        return SurfacePatch(comps, domain)

    def jets(self, u, v, order: int = SURFACE_ORDER) -> list:
        su, sv = Jet.seeds([np.asarray(u, dtype=float), np.asarray(v, dtype=float)], order)
        bindings = {"u": su, "v": sv}
        return [c.jet(bindings) for c in self.phi]

    def point(self, u, v) -> np.ndarray:
        return stack_values(self.jets(u, v, order=0))


def basis_components(p, q, w) -> tuple:
    """Components (a, b) with w = a p + b q, per point, for jets or values.

    Euclidean normal equations in chart components; exact for vectors in
    the span of p and q, which is the only supported input. A jet
    determinant is inverted once; on values both stay divisions, since
    `x / d` and `x * (1 / d)` may differ in the last bit.
    """
    e = sum(a * a for a in p)
    f = sum(a * b for a, b in zip(p, q))
    g = sum(b * b for b in q)
    r1 = sum(a * c for a, c in zip(p, w))
    r2 = sum(b * c for b, c in zip(q, w))
    det = e * g - f * f
    if isinstance(det, Jet):
        inv_det = 1.0 / det
        return (r1 * g - r2 * f) * inv_det, (e * r2 - f * r1) * inv_det
    return (r1 * g - r2 * f) / det, (e * r2 - f * r1) / det


def tangents(phi_jets):
    tu = [c.deriv(0) for c in phi_jets]
    tv = [c.deriv(1) for c in phi_jets]
    return tu, tv


def immersion_ratio(tu, tv) -> np.ndarray:
    """Relative smallest singular value of the 3x2 matrix (Tu, Tv), per point.

    In closed form, sigma_min / sigma_max = |Tu x Tv| / sigma_max^2, where
    sigma_max^2 = (E + G)/2 + sqrt(((E - G)/2)^2 + F^2) is the larger
    eigenvalue of the Gram matrix. Neither term cancels when the ratio is
    thin, unlike E G - F^2. Scalar components broadcast against array ones,
    as graphs z = f(u, v) need.
    """
    cols = stack_values([*tu, *tv])                          # (6, ...)
    a, b = cols[:3], cols[3:]
    area = np.sqrt(sum(np.square(c) for c in _cross(a, b)))
    e, f, g = np.sum(a * a, axis=0), np.sum(a * b, axis=0), np.sum(b * b, axis=0)
    smax2 = 0.5 * (e + g) + np.hypot(0.5 * (e - g), f)
    return area / np.maximum(smax2, 1e-300)


def characteristic_margin(omega, tu, tv):
    """max(|omega(Tu)|, |omega(Tv)|) / (|Tu| + |Tv|) on values: 0 where the plane is horizontal."""
    w = [value_of(c) for c in omega]
    tu = [value_of(c) for c in tu]
    tv = [value_of(c) for c in tv]
    pu = pair_oneform(w, tu)
    pv = pair_oneform(w, tv)
    size = np.sqrt(sum(np.square(t) for t in tu)) + np.sqrt(sum(np.square(t) for t in tv))
    margin = np.maximum(np.abs(pu), np.abs(pv)) / size
    return float(margin) if margin.ndim == 0 else margin


def characteristic_report(model: SubRiemannianModel, patch: SurfacePatch, u, v):
    """Characteristic margin at parameter points, without building the adapted frame.

    A point is characteristic where the margin is below EPS_CHAR.
    """
    phi = patch.jets(u, v, order=1)
    p0 = [np.asarray(j.value) for j in phi]
    return characteristic_margin(model.contact_form(p0), *tangents(phi))


def _kept(fr: FrameData, low: int) -> FrameData:
    """The cut of a geometry's chart frame that its later readers take (see
    `FrameData`), omega at `low`, the pullback's order. Truncation shares the
    low-order arrays, so nothing is copied and the rest is freed."""
    omega = tuple(_cut(fr.omega, low))
    cof1, cof2 = (tuple(_cut(row, 0)) for row in fr.coframe[:2])
    return FrameData(fr.point, _cut(fr.e1, 1), _cut(fr.e2, 1), _cut(fr.e3, 1), omega,
                     (cof1, cof2, omega), fr.tau.truncate(0), fr.sf)


class SurfaceGeometry:
    """Adapted frame data at parameter points, all stored as (u, v) jets.

    At surface order k the patch jets carry order k, the tangents and the
    adapted frame (x, y, A, f1, f2, f3, the wedge) order k - 1, on a chart
    frame of order k + 1. Order 2 gives A, x and y with first derivatives
    (K, the limit form and every boundary integrand); order 3 adds the
    second derivatives that the curl of W23_L reads. Each coefficient is
    bitwise the same at every order that carries it.

    Of the chart frame, the geometry keeps only the cut its later readers
    take (`frame`, see `FrameData`); the higher orders, read only by the
    pullbacks, are freed once those are built.

    The constructor builds what every reader needs. The rest is built on
    first use and then kept: the f2 and f3 jets, which only a curve's pullback
    reads (`CurveGeometry`); their values and f2's parameter components,
    taken from order-0 truncations, which are bitwise the values of the full
    jets; and `form_terms`, shared by every L-adapted assembly
    (`curvature.LFormAssembly`) on the geometry, so an L sweep builds them once.

    The constructor refuses characteristic points (margin below EPS_CHAR)
    and immersion failures. Batch construction with array-valued u, v is the
    intended mode for quadrature.
    """

    def __init__(self, model: SubRiemannianModel, patch: SurfacePatch, u, v,
                 order: int = SURFACE_ORDER):
        phi = patch.jets(u, v, order)
        self.phi = phi
        p0 = [np.asarray(j.value) for j in phi]
        self.Tu, self.Tv = tangents(phi)

        self._immersion_check()

        self.order = order
        self.frame: FrameData = model.frame(p0, order=order + 1)
        # the chart jets only ever meet Tu and Tv, which carry order - 1, so
        # the pullback is built to that order: its degree-order powers would
        # be dropped unread
        self.pullback = Composer([j.centered().truncate(order - 1) for j in phi])

        def pull(jets):
            return [self.pullback.pull(c) for c in jets]

        self.omega_s = tuple(pull(self.frame.omega))
        self.cof1_s = tuple(pull(self.frame.coframe[0]))
        self.cof2_s = tuple(pull(self.frame.coframe[1]))
        self.e1_s = pull(self.frame.e1)
        self.e2_s = pull(self.frame.e2)
        self.e3_s = pull(self.frame.e3)
        self.frame = _kept(self.frame, order - 1)
        self._characteristic_check()

        # e^k(Tu) and e^k(Tv) for k = 1..3, which the finite-L forms and the
        # induced metric read as well
        rows = (self.cof1_s, self.cof2_s, self.omega_s)
        self.coframe_Tu = tuple(pair_oneform(r, self.Tu) for r in rows)
        self.coframe_Tv = tuple(pair_oneform(r, self.Tv) for r in rows)
        cof1_Tu, cof2_Tu, omega_Tu = self.coframe_Tu
        cof1_Tv, cof2_Tv, omega_Tv = self.coframe_Tv

        # horizontal tangent direction: t = -omega(Tv) Tu + omega(Tu) Tv
        t = [omega_Tu * b - omega_Tv * a for a, b in zip(self.Tu, self.Tv)]
        x_raw = pair_oneform(self.cof1_s, t)
        y_raw = pair_oneform(self.cof2_s, t)
        norm_h = jsqrt(x_raw * x_raw + y_raw * y_raw)

        # orientation: require (f^2 ^ f^3)(Tu, Tv) > 0, flipping f2 if needed
        f2_Tu = x_raw * cof1_Tu + y_raw * cof2_Tu
        f2_Tv = x_raw * cof1_Tv + y_raw * cof2_Tv
        wedge_raw = f2_Tu * omega_Tv - f2_Tv * omega_Tu
        sign = np.where(np.asarray(wedge_raw.value) >= 0.0, 1.0, -1.0)

        inv_h = 1.0 / norm_h
        self.x = sign * x_raw * inv_h
        self.y = sign * y_raw * inv_h
        self.wedge = sign * wedge_raw * inv_h   # (f^2 ^ f^3)(Tu, Tv) > 0

        self.f1 = [self.y * a - self.x * b for a, b in zip(self.e1_s, self.e2_s)]

        normal = _cross(self.Tu, self.Tv)
        pairing = pair_oneform(normal, self.f1)
        pv = np.asarray(pairing.value)
        if np.any(np.abs(pv) < 1e-14):
            raise TransversalityError(
                "horizontal normal is tangent to the surface "
                f"(min pairing {float(np.min(np.abs(pv))):.3e})"
            )
        inv_pairing = 1.0 / pairing
        self.f1cov = tuple(c * inv_pairing for c in normal)

        self.A = -pair_oneform(self.f1cov, self.e3_s)

    # -- built on first use ---------------------------------------------------

    @cached_property
    def f2(self) -> list:
        """f2 = x e1 + y e2."""
        return [self.x * a + self.y * b for a, b in zip(self.e1_s, self.e2_s)]

    @cached_property
    def f3(self) -> list:
        """f3 = e3 + A f1."""
        return [a + self.A * b for a, b in zip(self.e3_s, self.f1)]

    @cached_property
    def f2_values(self) -> list:
        x, y = self.x.truncate(0), self.y.truncate(0)
        return [value_of(x * a.truncate(0) + y * b.truncate(0))
                for a, b in zip(self.e1_s, self.e2_s)]

    @cached_property
    def f3_values(self) -> list:
        A = self.A.truncate(0)
        return [value_of(a.truncate(0) + A * b.truncate(0)) for a, b in zip(self.e3_s, self.f1)]

    def tangent_components(self, vec) -> tuple:
        """Values (a, b) with vec = a Tu + b Tv, solved per point; vec holds jets or values."""
        return basis_components([value_of(c) for c in self.Tu], [value_of(c) for c in self.Tv],
                                [value_of(c) for c in vec])

    @cached_property
    def f2_components(self) -> tuple:
        """Values (a, b) with f2 = a Tu + b Tv."""
        return self.tangent_components(self.f2_values)

    @cached_property
    def form_terms(self) -> tuple:
        """(A, A^2, sin(alpha), cos(alpha), d(alpha)) one order below x, the
        order of the L-adapted connection forms, which read them.

        alpha is the angle of f2 from e1: sin(alpha) = -x, cos(alpha) = y;
        d(alpha) is the pair of its u and v derivatives.
        """
        order = self.x.order - 1
        A = self.A.truncate(order)
        sin_a, cos_a = -self.x, self.y
        # the factors of every product are read to `order` too
        s_a, c_a = sin_a.truncate(order), cos_a.truncate(order)
        # d(alpha) through the angle's sine and cosine, never the branch
        dalpha = tuple(c_a * sin_a.deriv(k) - s_a * cos_a.deriv(k) for k in (0, 1))
        return A, A * A, s_a, c_a, dalpha

    # -- construction checks ------------------------------------------------

    def _immersion_check(self):
        worst = float(np.min(immersion_ratio(self.Tu, self.Tv)))
        if worst < IMMERSION_RTOL:
            raise ImmersionError(
                f"parametrization fails the immersion check: relative smallest "
                f"singular value {worst:.3e}"
            )

    def _characteristic_check(self):
        self.margin = characteristic_margin(self.frame.omega, self.Tu, self.Tv)
        if np.any(self.margin < EPS_CHAR):
            raise CharacteristicPointError(
                "surface patch touches a characteristic point: min margin "
                f"{float(np.min(self.margin)):.3e} (threshold {EPS_CHAR:.0e})"
            )
