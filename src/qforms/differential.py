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

    def add(mon: FormMonomial, poly: Poly) -> None:
        acc = out.get(mon)
        out[mon] = poly if acc is None else acc + poly

    for mon, f in u.items():
        if mon.dx == 0:
            add(FormMonomial(1, mon.d2x), derivative(f, cfg))
        elif mon.dx == 1:
            add(FormMonomial(0, mon.d2x + 1), f)
            add(FormMonomial(2, mon.d2x), derivative(f, cfg))
        else:
            add(FormMonomial(1, mon.d2x + 1), -f)
    return Form(out, u.truncated)


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
