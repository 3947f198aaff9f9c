"""Parametrized surface patches and the frames adapted to them.

A patch is an immersion Phi(u, v) into the chart. At a regular (that is,
non-characteristic) point the tangent plane meets the horizontal distribution
in a line; the unit horizontal direction of that line is f2, the horizontal
normal is f1, and f3 = e3 + A f1 completes a tangent basis, where the
function A is read off the horizontal conormal f^1. A one-parameter family
of orthonormal tangent frames (X2, X3) with normal X1 tracks the metric
family; the angle beta between the normal and f1 closes to zero as L grows.

All quantities are carried as jets in (u, v) so the curvature layer can take
exact derivatives. Parameter inputs may be numpy arrays for batch work.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import Jet, ScalarField, jatan2, pair_oneform
from .calculus.jets import Composer, jsqrt, stack_values, value_of
from .errors import CharacteristicPointError, ImmersionError, TransversalityError
from .frame import FrameData, SubRiemannianModel, _cross

SURFACE_VARS = ("u", "v")
EPS_CHAR = 1e-8
IMMERSION_RTOL = 1e-10
SURFACE_ORDER = 3


@dataclass(frozen=True)
class SurfacePatch:
    """Immersed surface given by three chart-coordinate expressions of u, v."""

    phi: tuple
    domain: dict | None = None

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


@dataclass(frozen=True)
class CharacteristicReport:
    """Relative size of the contact form on the tangent plane."""

    margin: object

    @property
    def characteristic(self):
        return np.asarray(self.margin) < EPS_CHAR

    @property
    def classification(self) -> str:
        flag = self.characteristic
        if np.asarray(flag).ndim:
            raise ValueError("classification string is for scalar reports; use labels()")
        return "characteristic" if flag else "regular"

    def labels(self) -> np.ndarray:
        return np.where(self.characteristic, "characteristic", "regular")


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


def characteristic_report(model: SubRiemannianModel, patch: SurfacePatch, u, v) -> CharacteristicReport:
    """Classify parameter points without building the adapted frame."""
    phi = patch.jets(u, v, order=1)
    p0 = [np.asarray(j.value) for j in phi]
    return CharacteristicReport(characteristic_margin(model.contact_form(p0), *tangents(phi)))


class SurfaceGeometry:
    """Adapted frame data at parameter points, all stored as (u, v) jets.

    At surface order k the patch jets carry order k, the tangents and the
    adapted frame (x, y, A, f1, f2, f3, the wedge) order k - 1, on a chart
    frame of order k + 1. Order 2 gives A, x and y with first derivatives
    (K, the limit form and every boundary integrand); order 3 adds the
    second derivatives that the curl of W23_L reads. Each coefficient is
    bitwise the same at every order that carries it.

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
        e1_s = pull(self.frame.e1)
        e2_s = pull(self.frame.e2)
        self.e3_s = pull(self.frame.e3)
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

        self.f1 = [self.y * a - self.x * b for a, b in zip(e1_s, e2_s)]
        self.f2 = [self.x * a + self.y * b for a, b in zip(e1_s, e2_s)]

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
        self.f3 = [a + self.A * b for a, b in zip(self.e3_s, self.f1)]
        self.f2cov = tuple(self.x * a + self.y * b for a, b in zip(self.cof1_s, self.cof2_s))
        self.f3cov = self.omega_s

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

    # -- reporting helpers ----------------------------------------------------

    @property
    def alpha(self):
        """Frame angle in (-pi, pi]: f1 = cos(alpha) e1 + sin(alpha) e2."""
        return jatan2(-np.asarray(self.x.value), np.asarray(self.y.value))

    def l_frame(self, L: float) -> "LAdaptedFrame":
        return LAdaptedFrame(self, L)


class LAdaptedFrame:
    """Orthonormal frame of the metric family adapted to the surface.

    X1 is normal to the surface, (X2, X3) = (f2, f3 / sqrt(L + A^2)) frame
    the tangent plane, and cos(beta) = sqrt(L / (L + A^2)) measures the tilt
    of the normal away from the horizontal conormal direction. The angle
    jets are built at construction; the frame vectors and covectors on first
    use, since the curvature layer reads only the angles and X3's values.
    The angle jets carry one order less than A: the connection forms that
    read them carry d(alpha), one order below the adapted frame.
    """

    def __init__(self, geom: SurfaceGeometry, L: float):
        if L <= 0:
            raise ValueError("the metric parameter L must be positive")
        self.geom = geom
        self.L = float(L)
        A = geom.A.truncate(geom.A.order - 1)
        self.denom2 = A * A + self.L            # L + A^2
        self.denom = jsqrt(self.denom2)
        self.inv_denom = 1.0 / self.denom
        self.cosb = math.sqrt(self.L) * self.inv_denom
        self.sinb = A * self.inv_denom
        self.X2 = geom.f2
        self.X2cov = geom.f2cov

    @cached_property
    def X1(self):
        e3_scaled = [c / math.sqrt(self.L) for c in self.geom.e3_s]
        return [self.cosb * a - self.sinb * b for a, b in zip(self.geom.f1, e3_scaled)]

    @cached_property
    def X3(self):
        return [c * self.inv_denom for c in self.geom.f3]

    def X3_values(self):
        """Values of X3: each f3 value times 1 / denom, as the jets `X3` form them."""
        scale = value_of(self.inv_denom)
        return [value_of(c) * scale for c in self.geom.f3]

    @cached_property
    def X1cov(self):
        return tuple(self.cosb * c for c in self.geom.f1cov)

    @cached_property
    def X3cov(self):
        return tuple(self.denom * a + self.sinb * b
                     for a, b in zip(self.geom.f3cov, self.geom.f1cov))

    @property
    def beta(self):
        return jatan2(np.asarray(self.sinb.value), np.asarray(self.cosb.value))


def continuity_ok(f2_values: np.ndarray) -> bool:
    """Check that consecutive f2 samples never reverse direction.

    `f2_values` has shape (3, n) with columns ordered along a path of nearby
    regular points. Returns False if any adjacent pair has a non-positive
    dot product, which would indicate the orientation rule flipped between
    neighbors.
    """
    dots = np.einsum("ck,ck->k", f2_values[:, 1:], f2_values[:, :-1])
    return bool(np.all(dots > 0.0))
