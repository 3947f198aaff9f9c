"""Property tests for the expression language, through text.

Random expression trees are rendered to text here, with only the
parentheses that the grammar's precedence and associativity need, then
parsed and evaluated by srlab. Two references share no code with the
parser or the jet layer:

- plain float evaluation of the same tree, which the order-0 value must
  match to within a first-order rounding bound;
- `sympy.diff` of the same text, which the order-3 Taylor coefficients
  from `eval_jet` must match as d^alpha f / alpha! at the point.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from srlab.calculus import ScalarField, chart_seeds, eval_jet, parse  # noqa: E402
from srlab.errors import EvaluationError  # noqa: E402

VARS = ("x", "y", "z")
UNARY = ("sin", "cos", "exp", "tanh", "sqrt", "log")

# A tree is a tuple: ("num", text), ("var", name), ("neg", a),
# ("bin", op, a, b), ("pow", a, n) with an integer literal n, or
# ("call", name, args).
leaves = st.one_of(
    st.sampled_from(("0.5", "1", "2", "3", "1.25", "pi")).map(lambda t: ("num", t)),
    st.sampled_from(VARS).map(lambda v: ("var", v)),
)


def _extend(children):
    binary = st.tuples(st.just("bin"), st.sampled_from("+-*/"), children, children)
    return st.one_of(
        binary,
        # a binary operation whose left operand is one: associativity decides it
        st.tuples(st.just("bin"), st.sampled_from("+-*/"), binary, children),
        children.map(lambda a: ("neg", a)),
        st.tuples(st.just("pow"), children, st.integers(0, 3)),
        st.tuples(st.just("call"), st.sampled_from(UNARY), st.tuples(children)),
        st.tuples(st.just("call"), st.just("atan2"), st.tuples(children, children)),
    )


def trees(max_leaves):
    return st.recursive(leaves, _extend, max_leaves=max_leaves)


points = st.tuples(*(st.floats(-1.5, 1.5, allow_nan=False) for _ in VARS))

# binding strength of each rendered form: sums 1, products 2, unary minus
# 3, powers 4, atoms 5
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def render(tree):
    """(text, precedence), with parentheses only where the grammar needs them."""
    kind = tree[0]
    if kind in ("num", "var"):
        return tree[1], 5
    if kind == "call":
        return f"{tree[1]}({', '.join(render(a)[0] for a in tree[2])})", 5
    if kind == "neg":
        return "-" + wrap(tree[1], 3), 3
    if kind == "pow":
        # the base is an atom; the exponent is a unary, here a literal
        return f"{wrap(tree[1], 5)}^{tree[2]}", 4
    op, a, b = tree[1:]
    p = _PREC[op]
    # left associative: the right operand must bind strictly tighter
    return f"{wrap(a, p)} {op} {wrap(b, p + 1)}", p


def wrap(tree, need):
    text, p = render(tree)
    return text if p >= need else f"({text})"


_FUNC = {
    "sin": (math.sin, math.cos),
    "cos": (math.cos, lambda a: -math.sin(a)),
    "exp": (math.exp, math.exp),
    "tanh": (math.tanh, lambda a: 1.0 - math.tanh(a) ** 2),
    "sqrt": (math.sqrt, lambda a: 0.5 / math.sqrt(a) if a > 0 else math.inf),
    "log": (math.log, lambda a: 1.0 / a),
}


def direct(tree, env):
    """(value, scale) by plain float arithmetic on the tree.

    `scale` is a first-order bound on the magnitudes that rounding errors
    are proportional to: a result computed another way, with the same
    operations but a few ulps of difference in each, stays within a small
    multiple of eps * scale. Raises ArithmeticError or ValueError outside
    the domain.
    """
    kind = tree[0]
    if kind == "num":
        v = math.pi if tree[1] == "pi" else float(tree[1])
        return v, abs(v)
    if kind == "var":
        v = env[tree[1]]
        return v, abs(v)
    if kind == "neg":
        v, s = direct(tree[1], env)
        return -v, s
    if kind == "pow":
        (a, sa), n = direct(tree[1], env), tree[2]
        v = a ** n
        return v, abs(v) + (n * abs(a) ** (n - 1) * sa if n else 0.0)
    if kind == "call":
        args = [direct(a, env) for a in tree[2]]
        if tree[1] == "atan2":
            (y, sy), (x, sx) = args
            r2 = x * x + y * y
            if r2 == 0.0:
                raise ZeroDivisionError("atan2 at the origin")
            v = math.atan2(y, x)
            return v, abs(v) + (abs(x) * sy + abs(y) * sx) / r2
        (a, sa), = args
        f, df = _FUNC[tree[1]]
        v = f(a)
        return v, abs(v) + abs(df(a)) * sa
    op = tree[1]
    (a, sa), (b, sb) = direct(tree[2], env), direct(tree[3], env)
    if op == "+":
        return a + b, abs(a + b) + sa + sb
    if op == "-":
        return a - b, abs(a - b) + sa + sb
    if op == "*":
        return a * b, abs(a * b) + sa * abs(b) + abs(a) * sb
    v = a / b
    return v, abs(v) + sa / abs(b) + abs(a) * sb / (b * b)


def reference(tree, p):
    """The direct value and scale, or a rejected example outside the domain."""
    try:
        value, scale = direct(tree, dict(zip(VARS, p)))
    except (ArithmeticError, ValueError):
        assume(False)
    assume(math.isfinite(value) and scale < 1e12)
    return value, scale


@settings(max_examples=300)
@given(trees(12), points)
def test_rendered_text_parses_to_the_tree_value(tree, p):
    value, scale = reference(tree, p)
    text = render(tree)[0]
    try:
        got = ScalarField.parse(text).at(p)
    except EvaluationError:
        # srlab refuses a non-finite intermediate that plain floats can
        # pass through, as in 1 / (a product that overflows)
        assume(False)
    assert abs(got - value) <= 64 * 2.0 ** -52 * scale, (text, got, value)


def test_rendering_keeps_precedence_and_associativity():
    x, y, z = (("var", v) for v in VARS)
    p = (0.7, -1.3, 0.4)
    cases = {
        ("bin", "-", x, ("bin", "-", y, z)): "x - (y - z)",
        ("bin", "-", ("bin", "-", x, y), z): "x - y - z",
        ("neg", ("pow", x, 2)): "-x^2",
        ("pow", ("neg", x), 2): "(-x)^2",
        ("bin", "/", x, ("bin", "*", y, z)): "x / (y * z)",
        ("bin", "*", ("bin", "/", x, y), z): "x / y * z",
        ("bin", "*", ("neg", x), y): "-x * y",
    }
    for tree, text in cases.items():
        assert render(tree)[0] == text
        value, scale = direct(tree, dict(zip(VARS, p)))
        assert abs(ScalarField.parse(text).at(p) - value) <= 4 * 2.0 ** -52 * scale


def test_taylor_coefficients_match_sympy():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(VARS)
    names = {**dict(zip(VARS, syms)), "pi": sympy.pi, "atan2": sympy.atan2}
    alphas = [(i, j, k) for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3]

    @settings(max_examples=40)
    @given(trees(6), points)
    def check(tree, p):
        _, scale = reference(tree, p)
        assume(scale < 1e3)
        text = render(tree)[0]
        try:
            jet = eval_jet(parse(text, VARS), chart_seeds(p, 3))
        except EvaluationError:
            # a jet needs a derivative at the point (sqrt at 0 has none)
            assume(False)
        expr = sympy.sympify(text.replace("^", "**"), locals=names)
        at = dict(zip(syms, (sympy.Float(c, 30) for c in p)))
        exact, got = {}, {}
        for alpha in alphas:
            spec = [(s, n) for s, n in zip(syms, alpha) if n]
            d = sympy.diff(expr, *spec) if spec else expr
            fact = math.prod(math.factorial(n) for n in alpha)
            exact[alpha] = complex(d.evalf(30, subs=at)).real / fact
            got[alpha] = float(jet.derivative(alpha)) / fact
        size = 1.0 + max(map(abs, exact.values()))
        for alpha in alphas:
            assert abs(got[alpha] - exact[alpha]) <= 1e-9 * size, (text, alpha, got, exact)

    check()
