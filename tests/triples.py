"""Exact conversions between mpmath numbers and the package's integer forms.

The package holds a complex number as a triple (x, y, e) of integers
standing for (x + iy) 2^e and a bound as (m, e) standing for m 2^e; mpmath
is the tests' reference, so they convert both ways here, with no rounding
unless asked.  :func:`cheb_value` is T_n on the kernels the certified
products run, and :func:`pair_representatives` the tests' reference for
which stored roots stand for a conjugate pair.
"""

from fractions import Fraction

import mpmath as mp

from circtrees.chebyshev import GUARD_BITS, _ladder
from circtrees.dyadic import _branch, _inverse


def triple(w):
    """``w`` exactly as (x, y, e): an int, a dyadic Fraction, an mpf or an
    mpc."""
    if isinstance(w, (int, Fraction)):
        q = Fraction(w)
        k = q.denominator.bit_length() - 1
        if q.denominator != 1 << k:
            raise ValueError(f"{q} is not dyadic")
        return q.numerator, 0, -k
    raw = (w._mpf_, mp.libmp.fzero) if isinstance(w, mp.mpf) else w._mpc_
    parts = [(-man if sign else man, exp) for sign, man, exp, _ in raw]
    e = min((exp for man, exp in parts if man), default=0)
    (x, xe), (y, ye) = parts
    return (x << (xe - e) if x else 0), (y << (ye - e) if y else 0), e


def to_mpc(z, prec=None):
    """The triple ``z`` as an mpc: exact, or rounded to ``prec`` bits."""
    x, y, e = z
    lib = mp.libmp
    return mp.make_mpc((lib.from_man_exp(x, e, prec, lib.round_nearest),
                        lib.from_man_exp(y, e, prec, lib.round_nearest)))


def to_mpf(bound):
    """The bound (m, e) as an mpf, exactly."""
    m, e = bound
    return mp.make_mpf(mp.libmp.from_man_exp(m, e))


def cheb_value(w, n, precision):
    """T_n(w), n >= 1, as the certified products take it: the branch b of
    ``w`` and 1/b at precision + GUARD_BITS bits, then the ladder; an mpc
    rounded to ``precision`` bits."""
    prec = precision + GUARD_BITS
    b = _branch(triple(w), prec)
    return to_mpc(_ladder((b, _inverse(*b, prec)), n, prec), precision)


def pair_representatives(cr):
    """(root, multiplicity, paired) for every root of the certified roots
    ``cr`` but the mirrors: a root above the axis whose successor is its
    exact conjugate is paired with it, and that successor is skipped."""
    out, roots, i = [], cr.roots, 0
    while i < len(roots):
        x, y, e = roots[i]
        paired = i + 1 < len(roots) and y > 0 and roots[i + 1] == (x, -y, e)
        out.append((roots[i], cr.multiplicities[i], paired))
        i += 1 + paired
    return out


def records_of(cr):
    """The records the root store keeps for ``cr`` by the reference rule:
    (pair (b, 1/b) at its precision + GUARD_BITS bits, multiplicity,
    paired) per representative root."""
    prec = cr.working_precision + GUARD_BITS
    out = []
    for w, mult, paired in pair_representatives(cr):
        b = _branch(w, prec)
        out.append(((b, _inverse(*b, prec)), mult, paired))
    return tuple(out)
