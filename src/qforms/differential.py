"""The exterior differential on forms.

A degree-one linear map whose cube vanishes identically; squares of odd
forms already die after two applications, even forms generally need three.
"""

from __future__ import annotations

from .calculus import CalculusConfig, derivative
from .forms import Form, FormMonomial
from .polynomial import ModeMismatchError, Poly


def differential(u: Form, cfg: CalculusConfig) -> Form:
    """Apply the differential once, termwise on f at dx**k * d2x**m:

        k == 0:  derivative(f) * dx * d2x**m
        k == 1:  f * d2x**(m+1) + derivative(f) * dx**2 * d2x**m
        k == 2:  -f * dx * d2x**(m+1)

    On grade-0 forms this is the usual f -> derivative(f) * dx.
    """
    if u.truncated != cfg.anyonic:
        raise ModeMismatchError("form mode does not match the configuration")
    out: dict[FormMonomial, Poly] = {}
    word = tuple.__new__  # unchecked: every word below has dx power <= 2, d2x power >= 0

    def add(mon: tuple[int, int], poly: Poly) -> None:
        mon = word(FormMonomial, mon)
        acc = out.get(mon)
        out[mon] = poly if acc is None else acc + poly

    for (k, m), f in u.items():
        if k == 0:
            add((1, m), derivative(f, cfg))
        elif k == 1:
            add((0, m + 1), f)
            add((2, m), derivative(f, cfg))
        else:
            add((1, m + 1), -f)
    return Form._trusted(out, u.truncated)  # every value is a Poly of u's mode


def differential_power(u: Form, n: int, cfg: CalculusConfig) -> Form:
    """Apply the differential n times; n == 0 returns u unchanged.

    Stops once the form is zero (d(0) == 0), so a large n costs nothing extra.
    """
    if n < 0:
        raise ValueError("cannot apply the differential a negative number of times")
    for _ in range(n):
        if u.is_zero():
            break
        u = differential(u, cfg)
    return u


def is_closed(u: Form, cfg: CalculusConfig) -> bool:
    return differential(u, cfg).is_zero()
