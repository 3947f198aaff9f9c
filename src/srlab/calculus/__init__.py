"""Expression parsing, jet arithmetic, and exterior calculus primitives."""

from .expr import parse
from .fields import (
    CHART_VARS,
    ScalarField,
    VectorFieldC,
    bracket_jets,
    chart_seeds,
    d_oneform_jets,
    eval_jet,
    eval_twoform,
    pair_oneform,
)
from .jets import Jet, jatan2, jcos, jexp, jlog, jpow, jsin, jsqrt

__all__ = [
    "parse",
    "CHART_VARS",
    "ScalarField",
    "VectorFieldC",
    "bracket_jets",
    "chart_seeds",
    "d_oneform_jets",
    "eval_jet",
    "eval_twoform",
    "pair_oneform",
    "Jet",
    "jatan2",
    "jcos",
    "jexp",
    "jlog",
    "jpow",
    "jsin",
    "jsqrt",
]
