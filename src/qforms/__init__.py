"""Exact differential forms on the line with a cube-nilpotent differential.

The scalar field is Q(q) with q a primitive cube root of unity; coefficients
are polynomials in one variable, optionally truncated by x**3 == 0; forms are
spanned by dx**k * d2x**m with k <= 2 and carry a twisted noncommutative
product under which the exterior differential satisfies d**3 == 0.

The package attribute qforms.differential is the function differential, not
its module, and import qforms.differential as d binds the function too; a
name set on it patches nothing and raises no error. The module is
importlib.import_module("qforms.differential").
"""

from .calculus import CalculusConfig, check_homogeneity, derivative, q_bracket, q_number, twist
from .cyclotomic import ONE, Q, ZERO, CycQ, q_power
from .differential import differential, differential_power, is_closed
from .forms import Form, FormMonomial, swap_scalar
from .parser import ParseError, parse, parse_scalar, render
from .polynomial import ModeMismatchError, Poly

__version__ = "0.1.0"

__all__ = [
    "CalculusConfig",
    "CycQ",
    "Form",
    "FormMonomial",
    "ModeMismatchError",
    "ONE",
    "ParseError",
    "Poly",
    "Q",
    "ZERO",
    "check_homogeneity",
    "derivative",
    "differential",
    "differential_power",
    "is_closed",
    "parse",
    "parse_scalar",
    "q_bracket",
    "q_number",
    "q_power",
    "render",
    "swap_scalar",
    "twist",
    "__version__",
]
