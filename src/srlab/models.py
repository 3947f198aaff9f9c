"""Built-in contact models.

Each entry gives the two spanning fields in chart components. The Heisenberg
pair brackets to the vertical direction; the polarized variant is the same
group in different coordinates; the rototranslation pair generates the rigid
motions of the plane, and the Minkowski variant its Lorentzian analogue.
"""

from .errors import UnknownModelError
from .frame import SubRiemannianModel

BUILTIN_FRAMES = {
    "heisenberg": (("1", "0", "-y/2"), ("0", "1", "x/2")),
    "polarized_heisenberg": (("1", "0", "0"), ("0", "1", "x")),
    "rototranslation": (("cos(z)", "sin(z)", "0"), ("0", "0", "1")),
    "minkowski_rototranslation": (("cosh(z)", "sinh(z)", "0"), ("0", "0", "1")),
}


def builtin_model(name: str) -> SubRiemannianModel:
    try:
        e1, e2 = BUILTIN_FRAMES[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {', '.join(sorted(BUILTIN_FRAMES))}"
        ) from None
    return SubRiemannianModel.from_components(name, e1, e2)
