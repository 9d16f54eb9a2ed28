"""The exterior differential on forms.

A degree-one linear map whose cube vanishes identically; squares of odd
forms already die after two applications, even forms generally need three.
"""

from __future__ import annotations

from .calculus import CalculusConfig
from .forms import Form, Value, _derived, _form
from .polynomial import _add_into, _canonical, _negated


def differential(u: Form, cfg: CalculusConfig) -> Form:
    """Apply the differential once, termwise on f at dx**k * d2x**m:

        k == 0:  derivative(f) * dx * d2x**m
        k == 1:  f * d2x**(m+1) + derivative(f) * dx**2 * d2x**m
        k == 2:  -f * dx * d2x**(m+1)

    On grade-0 forms this is the usual f -> derivative(f) * dx. Each image
    is canonical as made: f itself, shared, _negated(f), or forms._derived,
    the derivative on the kernel's scalar table. Only dx * d2x**m can take
    two, from d2x**m and dx**2 * d2x**(m-1); there they are added, and
    reduced only where the sum is over d != 1 or cancels (_add_into).
    """
    u._require_mode(cfg.anyonic)
    out: Value = {}
    for (k, m), f in u._terms.items():
        if k == 2:
            word, image = (1, m + 1), _negated(f)
        else:
            if k:
                out[0, m + 1] = f
            word, image = (k + 1, m), _derived(f, cfg.alpha)
        sums = out.setdefault(word, image)
        if sums is not image and _add_into(sums, image.items()):  # a second image, into the first, a map made here
            out[word] = _canonical(sums)
    return _form(out if all(out.values()) else {w: c for w, c in out.items() if c}, u.truncated)


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
