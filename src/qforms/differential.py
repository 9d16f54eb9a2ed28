"""The exterior differential on forms.

A degree-one linear map whose cube vanishes identically; squares of odd
forms already die after two applications, even forms generally need three.
"""

from __future__ import annotations

from .calculus import CalculusConfig
from .forms import Form, Sums, _derived, _form, _reduced
from .polynomial import _add_into, _negated


def differential(u: Form, cfg: CalculusConfig) -> Form:
    """Apply the differential once, termwise on f at dx**k * d2x**m:

        k == 0:  derivative(f) * dx * d2x**m
        k == 1:  f * d2x**(m+1) + derivative(f) * dx**2 * d2x**m
        k == 2:  -f * dx * d2x**(m+1)

    On grade-0 forms this is the usual f -> derivative(f) * dx. The terms
    are summed on u's ints by polynomial's accumulator, the derivative
    taking c * x**e to c * [e]_alpha * x**(e-1) with [e]_alpha from the
    kernel's scalar table (forms._derived), and each sum is reduced once.
    """
    u._require_mode(cfg.anyonic)
    out: Sums = {}
    for (k, m), f in u._terms.items():
        if k == 2:
            _add_into(out.setdefault((1, m + 1), {}), _negated(f).items())
            continue
        if k:
            _add_into(out.setdefault((0, m + 1), {}), f.items())
        _add_into(out.setdefault((k + 1, m), {}), _derived(f, cfg.alpha))
    return _form(_reduced(out), u.truncated)


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
