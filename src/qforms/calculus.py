"""Coordinate calculus on the line.

Fixing a scalar alpha, the twist is the algebra endomorphism x -> alpha*x and
the derivative is the linear map with derivative(x) == 1 obeying the twisted
Leibniz rule

    derivative(f*g) == derivative(f)*g + twist(f)*derivative(g).

On monomials this collapses to derivative(x**m) == q_number(m, alpha) *
x**(m-1) where q_number(m, alpha) is the geometric sum 1 + alpha + ... +
alpha**(m-1). The q-bracket measures how far the derivative is from scaling
homogeneously under the twist; it vanishes identically exactly when
alpha == q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import Q, CycQ, as_cycq
from .polynomial import ModeMismatchError, Poly


@dataclass(frozen=True)
class CalculusConfig:
    """Twist scalar plus the choice of coefficient algebra.

    anyonic=True selects the x**3 == 0 quotient and requires alpha == q, the
    only twist for which that quotient is consistent with the calculus.
    """

    alpha: CycQ
    anyonic: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, CycQ):
            object.__setattr__(self, "alpha", as_cycq(self.alpha))
        if self.anyonic and self.alpha != Q:
            raise ModeMismatchError("anyonic mode requires alpha == q")

    @property
    def truncated(self) -> bool:
        return self.anyonic


def _require_mode(f: Poly, cfg: CalculusConfig) -> None:
    if f.truncated != cfg.anyonic:
        raise ModeMismatchError("polynomial mode does not match the configuration")


# Entries pile up per alpha and per degree for the life of the process, so the
# caches are bounded; a long run of mixed CLI requests fills a few hundred.
_CACHE_SIZE = 1024


@lru_cache(maxsize=_CACHE_SIZE)
def _alpha_power(alpha: CycQ, m: int) -> CycQ:
    # memoized because products re-twist the same scalars constantly
    return alpha**m


@lru_cache(maxsize=_CACHE_SIZE)
def q_number(k: int, alpha: CycQ) -> CycQ:
    """The alpha-integer 1 + alpha + ... + alpha**(k-1); k itself at alpha == 1."""
    if k < 0:
        raise ValueError("q_number needs k >= 0")
    if alpha == 1:
        return CycQ(k)
    return (_alpha_power(alpha, k) - 1) / (alpha - 1)  # geometric sum


def twist(f: Poly, cfg: CalculusConfig) -> Poly:
    """Apply the endomorphism x -> alpha*x, scaling degree m by alpha**m."""
    _require_mode(f, cfg)
    alpha = cfg.alpha
    return Poly({m: _alpha_power(alpha, m) * c for m, c in f.terms()}, f.truncated)


def derivative(f: Poly, cfg: CalculusConfig) -> Poly:
    """Twisted derivative, x**m -> q_number(m, alpha) * x**(m-1)."""
    _require_mode(f, cfg)
    return Poly(
        {m - 1: q_number(m, cfg.alpha) * c for m, c in f.terms() if m >= 1},
        f.truncated,
    )


def q_bracket(f: Poly, cfg: CalculusConfig) -> Poly:
    """The defect derivative(twist(f)) - q * twist(derivative(f)).

    Divisible by alpha - q, hence identically zero on the anyonic line.
    """
    _require_mode(f, cfg)
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
