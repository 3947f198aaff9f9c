"""Curvature of surfaces under the metric family, finite L and in the limit.

The projected connection form of the tangent frame (X2, X3) is assembled
from the ambient connection forms and the frame angles,

    W23_L = -sin(b) (d(alpha) + w12_L) + cos(b) (-sin(a) w13_L + cos(a) w23_L),

pulled back to the parameter plane as P du + Q dv. The finite-L Gaussian
curvature is K_L = -d(W23_L)(X2, X3); its limit is K = -dA(f2) - A^2, and
the rescaled form W23_L / sqrt(L) converges to A f^3. The Gauss-equation
split K_L = Kbar_L + II_L uses the companion forms

    W12_L = cos(b) (d(alpha) + w12_L) - sin(b) (sin(a) w13_L - cos(a) w23_L),
    W13_L = -d(beta) + cos(a) w13_L + sin(a) w23_L,

whose wedge gives the extrinsic term II_L that diverges linearly in L.

Independent oracles: the Gaussian curvature of the induced two-dimensional
metric by the Brioschi second-derivative formula, and the signed geodesic
curvature of boundary curves in that same metric via Christoffel symbols.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import Jet, ScalarField, pair_oneform
from .calculus.jets import Composer, jsqrt, value_of
from .errors import NumericalError, TransversalityError
from .frame import ConnectionFormsL
from .surface import SurfaceGeometry, basis_components

EPS_TRANS = 1e-6


@dataclass
class SurfaceOneForm:
    """One-form on the parameter plane, P du + Q dv, with jet components."""

    P: Jet
    Q: Jet

    def curl(self):
        """Coefficient of d(P du + Q dv) on du ^ dv."""
        return value_of(self.Q.deriv(0)) - value_of(self.P.deriv(1))

    def values(self):
        return value_of(self.P), value_of(self.Q)


def _require_second_derivatives(geom: SurfaceGeometry, quantity: str):
    """Raise ValueError unless `geom` is built to the order `quantity` reads."""
    if geom.order < 3:
        raise ValueError(
            f"{quantity} needs a surface geometry of order 3 or more (it reads "
            f"second derivatives), got order {geom.order}"
        )


def _mix(c1, f1, c2, f2):
    """c1 f1 + c2 f2 for surface one-forms f1, f2 and jet or number weights."""
    return SurfaceOneForm(c1 * f1.P + c2 * f2.P, c1 * f1.Q + c2 * f2.Q)


class LFormAssembly:
    """Connection forms of the L-adapted frame pulled to the parameter plane.

    The L-adapted frame is orthonormal for g_L: X1 = cos(b) f1 - sin(b) e3 /
    sqrt(L) is normal to the surface and (X2, X3) = (f2, f3 / sqrt(L + A^2))
    frame the tangent plane. cos(b) = sqrt(L / (L + A^2)) measures the tilt
    of the normal away from the horizontal conormal direction; the angle
    b = beta closes to zero as L grows. The curvatures read only the angle
    jets and the values of X3, so only those are formed. The angle jets
    carry one order less than A: the connection forms that read them carry
    d(alpha), one order below the adapted frame.

    Builds, as jets in (u, v): the three ambient connection forms restricted
    to the surface and the assembled form W23_L, which is all the curvature
    K_L reads. The companion forms W12_L and W13_L and d(beta), which only
    the Gauss-equation split reads, are built on first use. What does not
    depend on L comes from the geometry, built once however many
    assemblies read it (an L sweep): the pullback composer, A and A^2 and
    the angle alpha with d(alpha) (`SurfaceGeometry.form_terms`), and the
    values of f2 and f3 with f2's parameter components. So only the L-scaled
    connection coefficients and the terms of the angle beta are built per L.
    """

    def __init__(self, geom: SurfaceGeometry, L: float):
        forms = ConnectionFormsL(geom.frame, L)     # refuses L <= 0
        self.geom = geom
        self.L = forms.L
        s = math.sqrt(self.L)

        A, A2, s_a, c_a, dalpha = geom.form_terms
        self.denom2 = A2 + self.L   # L + A^2
        self.inv_denom = 1.0 / jsqrt(self.denom2)
        self.cosb = s * self.inv_denom
        self.sinb = A * self.inv_denom

        pull = geom.pullback.pull
        # W23_L carries d(alpha), one order below x, so the connection
        # coefficients and tangent pairings are read to that order only
        order = geom.x.order - 1
        on_tu, on_tv = ([p.truncate(order) for p in side]
                        for side in (geom.coframe_Tu, geom.coframe_Tv))
        # scaled dual pairings e_L^k(T.): the third dual picks up sqrt(L)
        pu = (on_tu[0], on_tu[1], s * on_tu[2])
        pv = (on_tv[0], on_tv[1], s * on_tv[2])

        def restrict(i, j):
            coef = [forms.coefficient(i, j, k) for k in (1, 2, 3)]
            # a float coefficient (a structural zero) becomes a constant jet
            # at the pairing order, not at the composer's
            coef = [pull(c.truncate(order)) if isinstance(c, Jet) else Jet.constant(c, 2, order)
                    for c in coef]
            return SurfaceOneForm(pair_oneform(coef, pu), pair_oneform(coef, pv))

        self.w12 = restrict(1, 2)
        self.w13 = restrict(1, 3)
        self.w23 = restrict(2, 3)

        self._sin_a, self._cos_a = s_a, c_a
        self.dalpha = SurfaceOneForm(*dalpha)

        horiz = _mix(-s_a, self.w13, c_a, self.w23)         # -sin(a) w13 + cos(a) w23
        self._dplus = _mix(1.0, self.dalpha, 1.0, self.w12)  # d(alpha) + w12
        self.omega23 = _mix(-self.sinb, self._dplus, self.cosb, horiz)

    @cached_property
    def dbeta(self) -> SurfaceOneForm:
        A = self.geom.A
        scale = math.sqrt(self.L) / self.denom2
        return SurfaceOneForm(scale * A.deriv(0), scale * A.deriv(1))

    @cached_property
    def omega12(self) -> SurfaceOneForm:
        anti = _mix(self._sin_a, self.w13, -self._cos_a, self.w23)  # sin(a) w13 - cos(a) w23
        return _mix(self.cosb, self._dplus, -self.sinb, anti)

    @cached_property
    def omega13(self) -> SurfaceOneForm:
        sin_a, cos_a = self._sin_a, self._cos_a
        return SurfaceOneForm(
            -self.dbeta.P + (cos_a * self.w13.P + sin_a * self.w23.P),
            -self.dbeta.Q + (cos_a * self.w13.Q + sin_a * self.w23.Q),
        )

    def X3_values(self):
        """Values of X3: each f3 value times 1 / sqrt(L + A^2)."""
        scale = value_of(self.inv_denom)
        return [c * scale for c in self.geom.f3_values]

    def frame_components(self):
        """(a, b) parameter components of X2 and X3 (values)."""
        return self.geom.f2_components, self.geom.tangent_components(self.X3_values())

    def gauss_curvature(self):
        """K_L = d(W32_L)(X2, X3) = -d(W23_L)(X2, X3)."""
        _require_second_derivatives(self.geom, "K_L")
        (a2, b2), (a3, b3) = self.frame_components()
        return -self.omega23.curl() * (a2 * b3 - b2 * a3)

    def second_fundamental(self):
        """II_L = (W12_L ^ W13_L)(X2, X3)."""
        (a2, b2), (a3, b3) = self.frame_components()
        p12, q12 = self.omega12.values()
        p13, q13 = self.omega13.values()
        return (p12 * q13 - q12 * p13) * (a2 * b3 - b2 * a3)


def projected_connection_form(geom: SurfaceGeometry, L: float) -> SurfaceOneForm:
    """W23_L pulled back to the parameter plane."""
    return LFormAssembly(geom, L).omega23


def gauss_curvature_L(geom: SurfaceGeometry, L: float):
    return LFormAssembly(geom, L).gauss_curvature()


def omega23_koszul_values(geom: SurfaceGeometry, L: float):
    """W23_L on (Tu, Tv) assembled from the Koszul connection oracle.

    Expands X2 and X3 in the orthonormal frame (e1, e2, e3 / sqrt(L)) and
    differentiates the component functions directly:

        <D_V X2, X3> = sum_m V(c2_m) c3_m + sum_ijk v_k c2_i c3_j Koszul[ijk].

    Shares no code with the structure-function connection coefficients, so
    it cross-checks the assembled form end to end.
    """
    from .frame import koszul_connection_oracle

    gam = koszul_connection_oracle(geom.frame, L)
    s = math.sqrt(L)
    x, y, A = geom.x, geom.y, geom.A
    inv_denom = 1.0 / jsqrt(A * A + L)
    c2 = (x, y, Jet.constant(0.0, 2, x.order))
    c3 = (A * y * inv_denom, -(A * x) * inv_denom, s * inv_denom)
    base = geom.frame.shape

    def along(vec_index, pairings):
        vk = [value_of(pairings[0]), value_of(pairings[1]), s * value_of(pairings[2])]
        total = sum(value_of(c.deriv(vec_index)) * value_of(d) for c, d in zip(c2, c3))
        total = np.broadcast_to(np.asarray(total, dtype=float), base).copy()
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    total += value_of(c2[i]) * value_of(c3[j]) * vk[k] * gam[i, j, k]
        return total

    return along(0, geom.coframe_Tu), along(1, geom.coframe_Tv)


def gauss_curvature_limit(geom: SurfaceGeometry):
    """K = -dA(f2) - A^2."""
    a2, b2 = geom.f2_components
    dA = (value_of(geom.A.deriv(0)), value_of(geom.A.deriv(1)))
    A = value_of(geom.A)
    return -(a2 * dA[0] + b2 * dA[1]) - A * A


def limit_connection_form(geom: SurfaceGeometry) -> SurfaceOneForm:
    """The limit of W23_L / sqrt(L): the pullback of A e^3."""
    return SurfaceOneForm(geom.A * geom.coframe_Tu[2], geom.A * geom.coframe_Tv[2])


def gauss_curvature_limit_via_form(geom: SurfaceGeometry):
    """Second route to K: -d(pullback of A e^3) evaluated on (f2, f3)."""
    form = limit_connection_form(geom)
    a2, b2 = geom.tangent_components(geom.f2)
    a3, b3 = geom.tangent_components(geom.f3)
    return -form.curl() * (a2 * b3 - b2 * a3)


@dataclass(frozen=True)
class CurvatureSample:
    """Finite-L curvature with its Gauss-equation split and the limit."""

    L: float
    K_L: object
    K_limit: object
    Kbar_L: object
    II_L: object


def gauss_equation_decomposition(geom: SurfaceGeometry, L: float) -> CurvatureSample:
    asm = LFormAssembly(geom, L)
    k = asm.gauss_curvature()
    ii = asm.second_fundamental()
    return CurvatureSample(L=float(L), K_L=k, K_limit=gauss_curvature_limit(geom),
                           Kbar_L=k - ii, II_L=ii)


# -- independent curvature oracle (induced metric) ---------------------------


def metric_gauss_curvature(E: Jet, F: Jet, G: Jet):
    """Gaussian curvature of a 2D metric from its component jets.

    Brioschi's formula: second derivatives of E, F, G only, no connection
    machinery. Component jets must carry (u, v) order at least 2.
    """
    e, f, g = value_of(E), value_of(F), value_of(G)
    eu, ev = value_of(E.deriv(0)), value_of(E.deriv(1))
    gu, gv = value_of(G.deriv(0)), value_of(G.deriv(1))
    fu, fv = value_of(F.deriv(0)), value_of(F.deriv(1))
    evv = value_of(E.deriv(1).deriv(1))
    guu = value_of(G.deriv(0).deriv(0))
    fuv = value_of(F.deriv(0).deriv(1))

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    m1 = [
        [-0.5 * evv + fuv - 0.5 * guu, 0.5 * eu, fu - 0.5 * ev],
        [fv - 0.5 * gu, e, f],
        [0.5 * gv, f, g],
    ]
    m2 = [
        [np.zeros_like(e), 0.5 * ev, 0.5 * gu],
        [0.5 * ev, e, f],
        [0.5 * gu, f, g],
    ]
    det_g = e * g - f * f
    return (det3(m1) - det3(m2)) / (det_g * det_g)


def induced_metric_components(geom: SurfaceGeometry, L: float):
    """E, F, G jets of the induced metric g_L(T_i, T_j) on the patch."""
    on_tu, on_tv = geom.coframe_Tu, geom.coframe_Tv
    weights = (1.0, 1.0, float(L))
    E = sum(w * p * p for w, p in zip(weights, on_tu))
    G = sum(w * p * p for w, p in zip(weights, on_tv))
    F = sum(w * p * q for w, p, q in zip(weights, on_tu, on_tv))
    return E, F, G


def induced_metric_gauss_oracle(geom: SurfaceGeometry, L: float):
    """Gaussian curvature via the induced metric; independent of the forms."""
    _require_second_derivatives(geom, "the induced-metric curvature oracle")
    return metric_gauss_curvature(*induced_metric_components(geom, L))


# -- curves on the surface ----------------------------------------------------


@dataclass(frozen=True)
class CurveOnSurface:
    """Parameter-plane curve t -> (u(t), v(t)) with its parameter interval."""

    u: ScalarField
    v: ScalarField
    t0: float
    t1: float

    @staticmethod
    def parse(texts, interval) -> "CurveOnSurface":
        if len(texts) != 2:
            raise ValueError("a curve needs expressions for u(t) and v(t)")
        cu = ScalarField.parse(texts[0], ("t",))
        cv = ScalarField.parse(texts[1], ("t",))
        t0, t1 = float(interval[0]), float(interval[1])
        if not t1 > t0:
            raise ValueError("curve interval must have positive length")
        return CurveOnSurface(cu, cv, t0, t1)

    def jets(self, t, order: int = 2):
        tj = Jet.seeds([np.asarray(t, dtype=float)], order)[0]
        return self.u.jet({"t": tj}), self.v.jet({"t": tj})


class CurveGeometry:
    """Adapted-frame data along a curve, as jets in the curve parameter.

    Solves gamma' = x f2 + y f3 by normal equations in chart components and
    cross-checks y against the contact-form shortcut e^3(gamma'). The curve
    jets and the surface geometry under them share `order`; x, y and A
    carry order - 1 in t, so the default order 2 gives the x_L' that k_n^L
    reads, and everything the limit, the speed and the geodesic-curvature
    oracle read, on a chart frame of order 3.
    """

    def __init__(self, model, patch, curve: CurveOnSurface, t, order: int = 2):
        if order < 2:
            raise ValueError(
                f"kn_L needs a curve geometry of order 2 or more (it reads x_L'), "
                f"got order {order}"
            )
        cu, cv = curve.jets(t, order)
        self.udot = cu.deriv(0)
        self.vdot = cv.deriv(0)
        u0, v0 = np.asarray(cu.value), np.asarray(cv.value)
        self.geom = SurfaceGeometry(model, patch, u0, v0, order)
        self.pull = Composer([cu.centered(), cv.centered()]).pull

        phi_t = [self.pull(p) for p in self.geom.phi]
        self.gamma_dot = [p.deriv(0) for p in phi_t]
        speed2 = sum(c * c for c in self.gamma_dot)
        sp = value_of(speed2)
        if np.any(sp <= 0):
            raise NumericalError("curve has a stationary point in the sampled range")
        self.chart_speed = np.sqrt(sp)

        f2_t = [self.pull(c) for c in self.geom.f2]
        f3_t = [self.pull(c) for c in self.geom.f3]
        self.x, self.y = basis_components(f2_t, f3_t, self.gamma_dot)

        omega_t = [self.pull(c) for c in self.geom.omega_s]
        shortcut = pair_oneform(omega_t, self.gamma_dot)
        gap = np.max(np.abs(value_of(self.y) - value_of(shortcut)))
        scale = 1.0 + float(np.max(self.chart_speed))
        if gap > 1e-10 * scale:
            raise NumericalError(
                f"tangent decomposition disagrees with the contact pairing by {gap:.3e}"
            )

        self.A = self.pull(self.geom.A)

    def speed_L(self, L: float) -> Jet:
        """|gamma'|_L = sqrt(x^2 + y^2 (A^2 + L)): induced arclength per unit of t."""
        x, y, A = self.x, self.y, self.A
        return jsqrt(x * x + y * y * (A * A + L))

    def transversality(self):
        """min |y| / |gamma'| over the sampled parameters."""
        return float(np.min(np.abs(value_of(self.y)) / self.chart_speed))

    def require_transverse(self):
        worst = self.transversality()
        if worst < EPS_TRANS:
            raise TransversalityError(
                f"curve is tangent to the horizontal line field: min |y|/|gamma'| "
                f"= {worst:.3e} (threshold {EPS_TRANS:.0e})"
            )


def normal_curvature_limit(cg: CurveGeometry):
    """Limit normal curvature sign(y) A along a transverse curve."""
    cg.require_transverse()
    return np.sign(value_of(cg.y)) * value_of(cg.A)


def normal_curvature_L_jets(cg: CurveGeometry, L: float):
    """Jets of k_n^L |gamma'|_L and of |gamma'|_L in the curve parameter.

    The first is -y_L (x_L)' + x_L (y_L)' + W23_L(gamma'): the signed
    curvature under the L metric times induced arclength per unit of t. It
    needs no transversality.
    """
    x, y, A = cg.x, cg.y, cg.A
    norm = cg.speed_L(L)
    inv_norm = 1.0 / norm
    xl = x * inv_norm
    yl = y * jsqrt(A * A + L) * inv_norm

    # every term carries the order of (x_L)' and of the pulled form, one
    # below x, so the factors are cut to it first
    order = x.order - 1
    form = projected_connection_form(cg.geom, L)
    along = (cg.pull(form.P) * cg.udot.truncate(order)
             + cg.pull(form.Q) * cg.vdot.truncate(order))
    return (-yl.truncate(order) * xl.deriv(0) + xl.truncate(order) * yl.deriv(0) + along,
            norm)


def normal_curvature_L(cg: CurveGeometry, L: float):
    """Signed curvature of the curve in the surface under the L metric.

    The numerator of `normal_curvature_L_jets` per unit of induced arclength,
    so any parametrization may be used.
    """
    cg.require_transverse()
    num, norm = normal_curvature_L_jets(cg, L)
    return value_of(num) / value_of(norm)


def metric_geodesic_curvature(comps, dcomps, cdot, cddot):
    """Signed geodesic curvature of a curve in a 2D metric, via Christoffels.

    comps = (E, F, G) values along the curve, dcomps = ((Eu, Ev), (Fu, Fv),
    (Gu, Gv)) their parameter derivatives, cdot and cddot the curve's
    velocity and acceleration. The sign convention takes the normal as the
    +90 degree rotation of the tangent in the (du, dv) orientation.
    """
    e, f, g = comps
    det = e * g - f * f
    inv = ((g / det, -f / det), (-f / det, e / det))
    # d_k g_ij indexed [i][j][k]
    dg = ((dcomps[0], dcomps[1]), (dcomps[1], dcomps[2]))

    acc = []
    for i in range(2):
        term = cddot[i]
        for j in range(2):
            for k in range(2):
                chris = sum(
                    0.5 * inv[i][m] * (dg[m][j][k] + dg[m][k][j] - dg[j][k][m])
                    for m in range(2)
                )
                term = term + chris * cdot[j] * cdot[k]
        acc.append(term)

    v2 = e * cdot[0] ** 2 + 2 * f * cdot[0] * cdot[1] + g * cdot[1] ** 2
    # n = J(cdot) / |cdot| with J the +90 degree rotation
    root = np.sqrt(det)
    jn = ((-f * cdot[0] - g * cdot[1]) / root, (e * cdot[0] + f * cdot[1]) / root)
    pairing = e * acc[0] * jn[0] + f * (acc[0] * jn[1] + acc[1] * jn[0]) + g * acc[1] * jn[1]
    return pairing / (v2 * np.sqrt(v2))  # g(a, J cdot) / v^3 = g(a, n) / v^2


def geodesic_curvature_oracle(cg: CurveGeometry, L: float):
    """Geodesic curvature of the curve in the induced 2D metric.

    Independent of the connection-form pipeline: only the induced metric
    components, their parameter derivatives, and the curve's first two
    derivatives enter. The orientation matches N_L = -y_L X2 + x_L X3.
    """
    cg.require_transverse()
    E, F, G = induced_metric_components(cg.geom, L)

    comps = tuple(value_of(cg.pull(c)) for c in (E, F, G))
    dcomps = tuple(
        (value_of(cg.pull(c.deriv(0))), value_of(cg.pull(c.deriv(1)))) for c in (E, F, G)
    )
    cdot = (value_of(cg.udot), value_of(cg.vdot))
    cddot = (value_of(cg.udot.deriv(0)), value_of(cg.vdot.deriv(0)))
    return metric_geodesic_curvature(comps, dcomps, cdot, cddot)
