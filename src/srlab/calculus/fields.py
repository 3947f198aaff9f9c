"""Expression-backed fields on the chart and jet-level exterior calculus.

Scalar fields and coordinate vector fields wrap parsed expressions over
fixed context variables. The jet-level helpers at the bottom (bracket,
exterior derivative, pairings) operate on plain sequences of jets and are
shared by the frame/surface/curvature pipeline.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import EvaluationError
from . import expr as E
from .jets import JET_FUNCTIONS, Jet, jpow

__all__ = [
    "CHART_VARS",
    "eval_jet",
    "chart_seeds",
    "ScalarField",
    "VectorFieldC",
    "bracket_jets",
    "d_oneform_jets",
    "pair_oneform",
    "eval_twoform",
]

CHART_VARS = ("x", "y", "z")
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": jpow}


def _eval(node, b):
    if isinstance(node, E.Num):
        return node.value
    if isinstance(node, E.Var):
        try:
            return b[node.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {node.name!r}", node.pos) from None
    if isinstance(node, E.Neg):
        return -_eval(node.arg, b)
    if isinstance(node, E.BinOp):
        fn, args = _BINARY[node.op], (_eval(node.left, b), _eval(node.right, b))
    elif isinstance(node, E.Call):
        fn, args = JET_FUNCTIONS[node.name], [_eval(a, b) for a in node.args]
    else:
        raise EvaluationError(f"unknown AST node {node!r}")
    try:
        return fn(*args)
    except ZeroDivisionError:
        raise EvaluationError("division by zero", node.pos) from None
    except EvaluationError as err:
        if err.position is None:
            raise EvaluationError(err.message, node.pos) from None
        raise


def eval_jet(ast, bindings: dict) -> Jet:
    """Evaluate a parsed expression on jet bindings, exact to the binding order.

    All bindings must share the variable set, order, and base point. Domain
    errors and non-finite results raise EvaluationError rather than leaking
    NaN/inf into downstream geometry.
    """
    ref = None
    for jet in bindings.values():
        if isinstance(jet, Jet):
            if ref is None:
                ref = jet
            elif jet.nvars != ref.nvars or jet.order != ref.order:
                raise EvaluationError("bindings must share variable set and order")
    if ref is None:
        raise EvaluationError("eval_jet needs at least one jet binding")
    out = _eval(ast, bindings)
    if not isinstance(out, Jet):
        out = Jet.constant(out, ref.nvars, ref.order)
    for c in out.coef:
        if not (math.isfinite(c) if type(c) is float else np.isfinite(c).all()):
            raise EvaluationError("non-finite value in evaluation")
    return out


def chart_seeds(p: Sequence, order: int) -> dict:
    """Jet seeds for the chart variables (x, y, z) at a point."""
    jets = Jet.seeds(list(p), order)
    return dict(zip(CHART_VARS, jets))


@dataclass(frozen=True)
class ScalarField:
    """A scalar function given by an expression over named variables."""

    ast: object
    variables: tuple[str, ...] = CHART_VARS
    source: str = ""

    @staticmethod
    def parse(text: str, variables: tuple[str, ...] = CHART_VARS) -> "ScalarField":
        return ScalarField(E.parse(text, variables), tuple(variables), text)

    def jet(self, bindings: dict) -> Jet:
        return eval_jet(self.ast, bindings)

    def at(self, p: Sequence) -> float:
        bindings = dict(zip(self.variables, Jet.seeds(list(p), 0)))
        return float(np.asarray(self.jet(bindings).value))


@dataclass(frozen=True)
class VectorFieldC:
    """Vector field in chart components (coefficients of d/dx, d/dy, d/dz)."""

    components: tuple[ScalarField, ScalarField, ScalarField]

    @staticmethod
    def parse(texts: Sequence[str]) -> "VectorFieldC":
        if len(texts) != 3:
            raise EvaluationError("a chart vector field needs 3 components")
        return VectorFieldC(tuple(ScalarField.parse(t) for t in texts))

    def jets(self, bindings: dict) -> list[Jet]:
        return [c.jet(bindings) for c in self.components]


# -- jet-level helpers shared with the geometry pipeline ---------------------


def bracket_jets(v: Sequence[Jet], w: Sequence[Jet]) -> list[Jet]:
    """Lie bracket of jet-valued chart vector fields; order drops by one.

    Both fields are cut once to the lower input order k, and the factors
    that meet a derivative once more to k - 1, so every product is between
    jets of one order. Truncation commutes with the arithmetic, so the bits
    are those of truncating inside each product.
    """
    order = min(c.order for c in (*v, *w))
    v = [c.truncate(order) for c in v]
    w = [c.truncate(order) for c in w]
    v_low = [c.truncate(order - 1) for c in v]
    w_low = [c.truncate(order - 1) for c in w]
    out = []
    for i in range(3):
        terms = [v_low[m] * w[i].deriv(m) - w_low[m] * v[i].deriv(m) for m in range(3)]
        out.append(terms[0] + terms[1] + terms[2])
    return out


def d_oneform_jets(theta: Sequence[Jet]) -> tuple[Jet, Jet, Jet]:
    """Exterior derivative coefficients (dx^dy, dx^dz, dy^dz); order drops by one.

    For theta = sum theta_n dx^n the coefficient on dx^m ^ dx^n (m < n) is
    d_m theta_n - d_n theta_m.
    """
    c_xy = theta[1].deriv(0) - theta[0].deriv(1)
    c_xz = theta[2].deriv(0) - theta[0].deriv(2)
    c_yz = theta[2].deriv(1) - theta[1].deriv(2)
    return c_xy, c_xz, c_yz


def pair_oneform(theta: Sequence, v: Sequence):
    """theta(v) = sum_m theta_m v^m for jet or float entries."""
    out = theta[0] * v[0]
    for m in (1, 2):
        out = out + theta[m] * v[m]
    return out


def eval_twoform(c: Sequence, v: Sequence, w: Sequence):
    """Evaluate a two-form (coeffs on dx^dy, dx^dz, dy^dz) on a vector pair."""
    return (
        c[0] * (v[0] * w[1] - v[1] * w[0])
        + c[1] * (v[0] * w[2] - v[2] * w[0])
        + c[2] * (v[1] * w[2] - v[2] * w[1])
    )
