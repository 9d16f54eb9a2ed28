"""Coordinate calculus on the line.

Fixing a scalar alpha, the twist is the algebra endomorphism x -> alpha*x and
the derivative is the linear map with derivative(x) == 1 obeying the twisted
Leibniz rule

    derivative(f*g) == derivative(f)*g + twist(f)*derivative(g).

Both are diagonal on monomials, so every map here is one pass over the
coefficients:

    twist_power(x**m, n) == alpha**(m*n) * x**m     (twist applied n times)
    derivative(x**m)     == q_number(m, alpha) * x**(m-1)

where q_number(m, alpha) is the geometric sum 1 + alpha + ... +
alpha**(m-1). The q-bracket measures how far the derivative is from scaling
homogeneously under the twist. On monomials it is
q_number(m, alpha) * alpha**(m-1) * (alpha - q) * x**(m-1), so it vanishes
identically exactly when alpha == q; q_bracket itself keeps the definition
so that the Proposition 2 check evaluates it.

CalculusConfig is a plain immutable class with two slots, alpha and
anyonic. The maps here keep no cache and compute on CycQs through the public
Poly API: they are the plain oracles that the Proposition 2 check and the
tests use, and the product kernel computes its scalars on ints: from the
exponent at alpha = q, in its own table (forms._SCALARS) elsewhere.
"""

from __future__ import annotations

from numbers import Rational

from .cyclotomic import Q, CycQ, as_cycq
from .polynomial import ModeMismatchError, Poly


class CalculusConfig:
    """Twist scalar plus the choice of coefficient algebra; immutable.

    alpha is coerced into Q(q). anyonic=True selects the x**3 == 0 quotient
    and requires alpha == q, the only twist for which that quotient is
    consistent with the calculus.
    """

    __slots__ = ("alpha", "anyonic")
    alpha: CycQ
    anyonic: bool

    def __init__(self, alpha: CycQ | int | Rational, anyonic: bool = False) -> None:
        alpha = as_cycq(alpha)
        if anyonic and alpha != Q:
            raise ModeMismatchError("anyonic mode requires alpha == q")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "anyonic", anyonic)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.alpha, self.anyonic))  # copy and pickle

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.alpha == other.alpha and self.anyonic == other.anyonic

    def __hash__(self) -> int:
        return hash((self.alpha, self.anyonic))

    def __repr__(self) -> str:
        return f"CalculusConfig(alpha={self.alpha!r}, anyonic={self.anyonic!r})"

    @property
    def truncated(self) -> bool:
        return self.anyonic


def q_number(k: int, alpha: CycQ | int | Rational) -> CycQ:
    """The alpha-integer 1 + alpha + ... + alpha**(k-1); k itself at alpha == 1."""
    alpha = as_cycq(alpha)
    if k < 0:
        raise ValueError("q_number needs k >= 0")
    if alpha == 1:
        return CycQ(k)
    return (alpha**k - 1) / (alpha - 1)  # geometric sum


def twist(f: Poly, cfg: CalculusConfig) -> Poly:
    """Apply the endomorphism x -> alpha*x, scaling degree m by alpha**m."""
    return twist_power(f, 1, cfg)


def twist_power(f: Poly, n: int, cfg: CalculusConfig) -> Poly:
    """Apply the twist n >= 0 times in one pass, x**m -> alpha**(m*n) * x**m."""
    f._require_mode(cfg.anyonic)
    if n < 0:
        raise ValueError("twist_power needs n >= 0")
    if n == 0:
        return f
    alpha = cfg.alpha
    return Poly({m: alpha ** (m * n) * c for m, c in f.items()}, f.truncated)


def derivative(f: Poly, cfg: CalculusConfig) -> Poly:
    """Twisted derivative, x**m -> q_number(m, alpha) * x**(m-1)."""
    f._require_mode(cfg.anyonic)
    alpha = cfg.alpha
    return Poly({m - 1: q_number(m, alpha) * c for m, c in f.items() if m >= 1}, f.truncated)


def q_bracket(f: Poly, cfg: CalculusConfig) -> Poly:
    """The defect derivative(twist(f)) - q * twist(derivative(f)).

    Divisible by alpha - q, hence identically zero on the anyonic line.
    """
    f._require_mode(cfg.anyonic)
    return derivative(twist(f, cfg), cfg) - Q * twist(derivative(f, cfg), cfg)


def check_homogeneity(cfg: CalculusConfig, max_degree: int) -> bool:
    """Whether the q-bracket vanishes on x**m for every 1 <= m <= max_degree.

    Certifies only the requested degree bound; alpha == q makes the bracket
    vanish in every degree, any other alpha already fails at m == 1.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    return all(
        q_bracket(Poly.monomial(m, truncated=cfg.anyonic), cfg).is_zero()
        for m in range(1, max_degree + 1)
    )
