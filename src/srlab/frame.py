"""Contact frames, Reeb fields, and the metric family they generate.

A model is a pair of chart vector fields e1, e2 spanning a plane distribution.
From the pair we build the normalized annihilating one-form omega (scaled so
that d(omega)(e1, e2) = -1), the Reeb field e3, the dual coframe, and the
frame structure functions. Declaring (e1, e2, e3/sqrt(L)) orthonormal gives a
one-parameter family of metrics; the Levi-Civita connection forms of that
family have a closed-form expression in the structure functions, checked
independently against the Koszul formula.

Everything is computed through truncated jets so curvature-level quantities
downstream get exact derivatives, and points may be numpy arrays for batch
evaluation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calculus import (
    Jet,
    VectorFieldC,
    bracket_jets,
    chart_seeds,
    d_oneform_jets,
    eval_twoform,
    pair_oneform,
)
from .calculus.jets import MAX_ORDER, stack_values, value_of
from .errors import (
    DegenerateFrameError,
    ModelConsistencyError,
    NonContactError,
)

SF_KEYS = (
    "a12_1", "a12_2", "a12_3",
    "a13_1", "a13_2", "a13_3",
    "a23_1", "a23_2", "a23_3",
)


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _cut(jets, order: int) -> list:
    return [c.truncate(order) for c in jets]


@dataclass(frozen=True)
class SubRiemannianModel:
    """A contact 3-manifold model given by two spanning chart fields."""

    name: str
    e1: VectorFieldC
    e2: VectorFieldC

    @staticmethod
    def from_components(name, e1_texts, e2_texts) -> "SubRiemannianModel":
        return SubRiemannianModel(
            name, VectorFieldC.parse(e1_texts), VectorFieldC.parse(e2_texts)
        )

    def frame(self, point, order: int = MAX_ORDER) -> "FrameData":
        """Full frame data at a chart point (components may be arrays).

        Each quantity is built from operands cut to the order it carries
        (see `FrameData`), so no jet operation meets two orders, and each
        jet divisor is inverted once. Truncation commutes with the jet
        arithmetic, so every coefficient is bitwise the one a full-order
        build would give.
        """
        if order < 3:
            raise ValueError(
                "the chart frame needs order 3 or more (its structure functions "
                f"take three derivatives of the fields), got order {order}"
            )
        seeds = chart_seeds(point, order)
        e1 = self.e1.jets(seeds)
        e2 = self.e2.jets(seeds)
        omega, tau = _contact_form(e1, e2)

        w = bracket_jets(_cut(e1, order - 1), _cut(e2, order - 1))   # order - 2
        d_omega = d_oneform_jets(omega)
        e1m, e2m = _cut(e1, order - 2), _cut(e2, order - 2)
        p_coef = -eval_twoform(d_omega, w, e2m)
        q_coef = eval_twoform(d_omega, w, e1m)
        e3 = [w[i] - p_coef * e1m[i] - q_coef * e2m[i] for i in range(3)]

        c23 = _cross(e2m, e3)
        inv_det = 1.0 / pair_oneform(c23, e1m)
        cof1 = tuple(c * inv_det for c in c23)
        cof2 = tuple(c * inv_det for c in _cross(e3, e1m))
        coframe = (cof1, cof2, omega)

        # the structure functions carry order - 3, the order of the
        # brackets with e3, so the rows and w are cut to it first
        rows = [_cut(r, order - 3) for r in coframe]
        sf = {}
        for tag, vec in (("a12", _cut(w, order - 3)),
                         ("a13", bracket_jets(e1m, e3)),
                         ("a23", bracket_jets(e2m, e3))):
            for k in range(3):
                sf[f"{tag}_{k + 1}"] = pair_oneform(rows[k], vec)

        return FrameData(tuple(point), e1, e2, e3, omega, coframe, tau, sf)

    def contact_form(self, point) -> tuple:
        """Order-0 jets of the normalized contact form omega at a chart point.

        Built from order-1 chart jets, the least that d(e1 x e2) needs; the
        values are those of `frame(point).omega`, bit for bit.
        """
        seeds = chart_seeds(point, 1)
        return _contact_form(self.e1.jets(seeds), self.e2.jets(seeds))[0]


@dataclass
class FrameData:
    """Frame, coframe, and structure functions at a point, as chart jets.

    At chart order K each field carries the order its readers take:

    - e1, e2: K, the seeded fields;
    - tau, omega: K - 1 (one derivative of e1 x e2);
    - e3 and the coframe rows e^1, e^2: K - 2 (one more, through d(omega)
      and [e1, e2]);
    - sf, all nine structure functions: K - 3 (brackets with e3).

    A surface geometry of order k pulls the coframe and e3 at k - 1 = K - 2
    and its connection forms read the structure functions at k - 2 = K - 3,
    so order 4 at the chart level serves the curvature work on a surface.
    Every coefficient is bitwise the truncation of the full-order formula.
    """

    point: tuple
    e1: list
    e2: list
    e3: list
    omega: tuple
    coframe: tuple
    tau: Jet
    sf: dict

    def frames(self):
        return (self.e1, self.e2, self.e3)

    @property
    def shape(self) -> tuple:
        """Shape of the node batch, from the chart point (a coefficient may be a scalar)."""
        return np.broadcast_shapes(*(np.shape(p) for p in self.point))

    def sf_values(self) -> dict:
        return {k: value_of(j) for k, j in self.sf.items()}


def _contact_form(e1, e2):
    """(omega, tau): omega = -(e1 x e2) / tau with tau = d(e1 x e2)(e1, e2).

    The scaling makes d(omega)(e1, e2) = -1; omega and tau carry one order
    less than the fields, so everything that meets d(e1 x e2) is cut to
    that order first. Raises NonContactError where tau vanishes.
    """
    raw = _cross(e1, e2)                      # annihilates e1, e2
    low = raw[0].order - 1
    tau = eval_twoform(d_oneform_jets(raw), _cut(e1, low), _cut(e2, low))
    tv = np.asarray(tau.value)
    if np.any(np.abs(tv) < 1e-12):
        raise NonContactError(
            "distribution fails the contact condition: |d(raw form)(e1,e2)| "
            f"has minimum {float(np.min(np.abs(tv))):.3e}"
        )
    scale = -1.0 / tau
    return tuple(scale * c for c in _cut(raw, low)), tau


# -- validation ---------------------------------------------------------------

INDEPENDENCE_FLOOR = 1e-12
CONTACT_FLOOR = 1e-12
REEB_TOL = 1e-10
DUALITY_TOL = 1e-10
STRUCTURE_TOL = 1e-8


def validate_model(model: SubRiemannianModel, points) -> dict:
    """Run the frame consistency checks at the given points.

    `points` is a (3,) or (3, n) array. Returns a dict of check name to
    {value, tolerance, passed, kind} where kind says whether the value is a
    minimum that must stay above tolerance or a maximum residual that must
    stay below it. Degeneracy and contact failures raise immediately since
    nothing downstream is meaningful; the remaining checks are collected.
    """
    return checked_frame(model, points)[1]


def checked_frame(model: SubRiemannianModel, points):
    """The order-3 chart frame at `points` and its `validate_model` report.

    Frame independence is checked first, so dependent fields raise
    DegenerateFrameError instead of failing inside the frame build.
    """
    pts = np.asarray(points, dtype=float)
    base = np.atleast_1d(pts[0]).shape
    seeds = chart_seeds(points, 1)
    e1v = stack_values(model.e1.jets(seeds), base)
    e2v = stack_values(model.e2.jets(seeds), base)
    cross = np.stack(_cross(e1v, e2v))
    indep = float(np.min(np.linalg.norm(cross, axis=0)))
    if indep < INDEPENDENCE_FLOOR:
        raise DegenerateFrameError(
            f"e1 and e2 are linearly dependent somewhere: min |e1 x e2| = {indep:.3e}"
        )

    fr = model.frame(points, order=3)   # order 3 suffices for the residuals
    report = {
        "frame_independence": _entry(indep, INDEPENDENCE_FLOOR, "min"),
        "contact_nondegeneracy": _entry(
            float(np.min(np.abs(np.asarray(fr.tau.value)))), CONTACT_FLOOR, "min"
        ),
    }

    def mx(x):
        return float(np.max(np.abs(value_of(x))))

    d_omega = d_oneform_jets(fr.omega)
    reeb_pair = pair_oneform(fr.omega, fr.e3) - 1.0
    contraction = max(
        mx(eval_twoform(d_omega, fr.e3, fr.e1)),
        mx(eval_twoform(d_omega, fr.e3, fr.e2)),
    )
    contact_norm = value_of(eval_twoform(d_omega, fr.e1, fr.e2)) + 1.0

    duality = 0.0
    for i in range(3):
        for j, vec in enumerate(fr.frames()):
            delta = 1.0 if i == j else 0.0
            duality = max(duality, mx(value_of(pair_oneform(fr.coframe[i], vec)) - delta))

    sfv = fr.sf_values()
    report.update(
        reeb_pairing=_entry(mx(reeb_pair), REEB_TOL, "max"),
        reeb_contraction=_entry(contraction, REEB_TOL, "max"),
        contact_normalization=_entry(mx(contact_norm), REEB_TOL, "max"),
        coframe_duality=_entry(duality, DUALITY_TOL, "max"),
        bracket_pairing=_entry(mx(sfv["a12_3"] - 1.0), STRUCTURE_TOL, "max"),
        structure_trace=_entry(mx(sfv["a13_1"] + sfv["a23_2"]), STRUCTURE_TOL, "max"),
    )
    return fr, report


def _entry(value, tolerance, kind):
    passed = value >= tolerance if kind == "min" else value <= tolerance
    return {"value": value, "tolerance": tolerance, "passed": bool(passed), "kind": kind}


def ensure_valid(model: SubRiemannianModel, points) -> dict:
    return require_passed(validate_model(model, points))


def require_passed(report: dict) -> dict:
    """Raise ModelConsistencyError naming every failed check in a report."""
    bad = [k for k, v in report.items() if not v["passed"]]
    if bad:
        raise ModelConsistencyError(
            "model failed frame checks: " + ", ".join(
                f"{k} ({report[k]['value']:.3e} vs {report[k]['tolerance']:.1e})"
                for k in bad
            )
        )
    return report


# -- connection forms of the metric family ------------------------------------


class ConnectionFormsL:
    """Levi-Civita connection forms of g_L on the orthonormal frame.

    The orthonormal frame is (e1, e2, e3/sqrt(L)) and forms are expanded in
    its dual basis (e^1, e^2, sqrt(L) e^3). `coefficient(i, j, k)` returns
    the k-th component of omega_i^j with 1-based frame indices, as a jet.
    """

    def __init__(self, frame: FrameData, L: float):
        if L <= 0:
            raise ValueError("the metric parameter L must be positive")
        self.frame = frame
        self.L = float(L)
        s = math.sqrt(self.L)
        a = frame.sf
        self._forms = {
            (1, 2): (
                -a["a12_1"],
                -a["a12_2"],
                (a["a23_1"] - a["a13_2"] - self.L) / (2.0 * s),
            ),
            (1, 3): (
                -a["a13_1"] / s,
                -(a["a13_2"] + a["a23_1"] + self.L) / (2.0 * s),
                0.0,
            ),
            (2, 3): (
                (-a["a13_2"] - a["a23_1"] + self.L) / (2.0 * s),
                -a["a23_2"] / s,
                0.0,
            ),
        }

    def coefficient(self, i: int, j: int, k: int):
        if i == j:
            return 0.0
        if (i, j) in self._forms:
            return self._forms[(i, j)][k - 1]
        return -self._forms[(j, i)][k - 1]

    def values(self) -> np.ndarray:
        """Coefficients as an array of shape (3, 3, 3) or (3, 3, 3, n)."""
        out = np.zeros((3, 3, 3) + self.frame.shape)
        for i in range(1, 4):
            for j in range(1, 4):
                for k in range(1, 4):
                    out[i - 1, j - 1, k - 1] = value_of(self.coefficient(i, j, k))
        return out

    def form_on_unscaled_basis(self, i: int, j: int):
        """Components of omega_i^j on (e^1, e^2, e^3) rather than the scaled duals."""
        s = math.sqrt(self.L)
        c = [self.coefficient(i, j, k) for k in (1, 2, 3)]
        return (c[0], c[1], c[2] * s)


LIMIT_FORMS = {
    (1, 2): np.array([0.0, 0.0, -0.5]),
    (1, 3): np.array([0.0, -0.5, 0.0]),
    (2, 3): np.array([0.5, 0.0, 0.0]),
}


def scaled_form_deviation(frame: FrameData, L: float) -> dict:
    """Max-abs deviation of the rescaled connection forms from their limits.

    omega_1^{L2} is divided by L, the other two by sqrt(L); components are
    taken on the unscaled coframe (e^1, e^2, e^3) and compared with the
    constant limit forms -e^3/2, -e^2/2, e^1/2.
    """
    forms = ConnectionFormsL(frame, L)
    scale = {(1, 2): 1.0 / L, (1, 3): L ** -0.5, (2, 3): L ** -0.5}
    out = {}
    for (i, j), limit in LIMIT_FORMS.items():
        comps = forms.form_on_unscaled_basis(i, j)
        dev = 0.0
        for c, lim in zip(comps, limit):
            dev = max(dev, float(np.max(np.abs(value_of(c) * scale[(i, j)] - lim))))
        out[f"w{i}{j}"] = dev
    return out


def koszul_connection_oracle(frame: FrameData, L: float) -> np.ndarray:
    """Connection coefficients from the Koszul formula, for cross-checking.

    Computes <nabla_{U_k} U_i, U_j> for the orthonormal frame U = (e1, e2,
    e3/sqrt(L)) directly from numerically evaluated Lie brackets,
    2 <nabla_X Y, Z> = <[X, Y], Z> - <[Y, Z], X> + <[Z, X], Y>
    (the inner-product derivative terms vanish on an orthonormal frame).
    Returns shape (3, 3, 3) or (3, 3, 3, n): index order [i, j, k] matching
    ConnectionFormsL.coefficient(i+1, j+1, k+1).
    """
    s = math.sqrt(L)
    # only values are read: brackets need the fields to order 1, pairings
    # the duals to order 0
    e1, e2, e3 = (_cut(f, 1) for f in frame.frames())
    u = [e1, e2, [c / s for c in e3]]
    cof1, cof2, omega = (_cut(r, 0) for r in frame.coframe)
    duals = [cof1, cof2, tuple(c * s for c in omega)]

    br = {}
    for a in range(3):
        for b in range(3):
            if a < b:
                br[(a, b)] = bracket_jets(u[a], u[b])

    def ip(pair, m):
        a, b = pair
        if a == b:
            return 0.0
        sign = 1.0
        if a > b:
            a, b, sign = b, a, -1.0
        return sign * value_of(pair_oneform(duals[m], br[(a, b)]))

    out = np.zeros((3, 3, 3) + frame.shape)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                # 2 <nabla_{u_k} u_i, u_j>
                out[i, j, k] = 0.5 * (ip((k, i), j) - ip((i, j), k) + ip((j, k), i))
    return out


def metric_matrix(frame: FrameData, L: float) -> np.ndarray:
    """g_L in chart coordinates: sum of squares of the scaled coframe."""
    shape = frame.shape
    rows = [stack_values(r, shape) for r in (frame.coframe[0], frame.coframe[1], frame.omega)]
    g = np.zeros((3, 3) + shape)
    for w, r in zip((1.0, 1.0, float(L)), rows):
        g += w * np.einsum("a...,b...->ab...", r, r)
    return g
