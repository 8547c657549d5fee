"""Integer-mantissa arithmetic with a stated rounding per operation.

A complex value is a triple (x, y, e) of Python ints for (x + iy) 2^e, a
nonnegative bound a pair (m, e) for m 2^e.  Each function states its
rounding direction and bound, measured from the exact value of its
arguments; "each part moves by less than 2^f" has f the exponent of the
result.  The certified products of :mod:`circtrees.chebyshev` and the
Mahler root product of :mod:`circtrees.mahler` run on these.
"""

import cmath
import math


def _exact(w):
    """A float or a complex exactly, as (x, y, e): no rounding.

    An infinity or a NaN raises :class:`ValueError`.
    """
    if not cmath.isfinite(w):
        raise ValueError(f"{w} is not a finite number")
    parts = []
    for part in (w.real, w.imag):
        frac, exp = math.frexp(part)
        parts.append((int(frac * 2 ** 53), exp - 53))
    e = min((exp for man, exp in parts if man), default=0)
    (x, xe), (y, ye) = parts
    return (x << (xe - e) if x else 0), (y << (ye - e) if y else 0), e


def _fixed(w, prec):
    """The triple ``w`` = (x, y, e) with mantissas of ``prec`` bits.

    The larger part keeps ``prec`` bits (a negative one cut to -2^prec has
    one more) and the smaller is cut at the same exponent, toward -inf:
    each part moves by less than 2^f, so the error is below 2^(2-prec) |w|;
    with no bit to drop it is exact.
    """
    x, y, e = w
    if not (x or y):
        return 0, 0, 0
    k = max(x.bit_length(), y.bit_length()) - prec
    return (x >> k, y >> k, e + k) if k > 0 else (x << -k, y << -k, e + k)


def _trim(x, y, e, prec):
    """Drop low bits until the larger mantissa has at most ``prec`` bits,
    or prec + 1 for a negative part cut to -2^prec.

    Toward -inf: each part moves by less than 2^f, under 2^(2-prec) |z|.
    """
    k = max(x.bit_length(), y.bit_length()) - prec
    return (x >> k, y >> k, e + k) if k > 0 else (x, y, e)


def _show(z):
    """The triple ``z`` for messages, as a Python complex when it fits: cut
    by :func:`_trim` to 53 bits, each part by less than 2^f, then exact."""
    x, y, e = _trim(*z, 53)
    try:
        return str(complex(math.ldexp(x, e), math.ldexp(y, e)))
    except OverflowError:
        return f"({x} + {y}j) 2^{e}"


def _inverse(x, y, e, prec):
    """1 / ((x + iy) 2^e) to about ``prec`` bits, from one division.

    x + iy is first trimmed to ``prec`` bits; the division is by x when
    y = 0, and otherwise by |x + iy|^2 trimmed to that width.  Every step
    rounds toward -inf.  The result is within 2^(3-prec) |1/z| of 1/z for
    prec >= 8; for a real z of at most ``prec`` bits it is below 1/z by
    less than 2^f.
    """
    x, y, e = _trim(x, y, e, prec)
    if not y:
        return (1 << 2 * prec) // x, 0, -2 * prec - e
    den, _, de = _trim(x * x + y * y, 0, 2 * e, prec)
    inv = (1 << 2 * prec) // den
    return _trim(x * inv, -y * inv, e - 2 * prec - de, prec)


def _sqrt(m, e, prec):
    """sqrt(m 2^e) for an integer m >= 0, to about ``prec`` bits.

    Toward -inf (``math.isqrt``): below the root by less than 2^f, and
    f < log2 sqrt(m 2^e) - prec for m > 0.
    """
    if e % 2:
        m, e = m << 1, e - 1
    k = max(prec - m.bit_length() // 2 + 1, 0)
    return math.isqrt(m << 2 * k), e // 2 - k


def _add(x, y, e, u, v, f):
    """(x + iy) 2^e + (u + iv) 2^f, exactly, at the smaller exponent."""
    if e > f:
        return (x << (e - f)) + u, (y << (e - f)) + v, f
    return x + (u << (f - e)), y + (v << (f - e)), e


def _minus(z, step, prec):
    """z - step for two triples, cut to ``prec`` bits by :func:`_trim`."""
    x, y, e = step
    return _trim(*_add(*z, -x, -y, e), prec)


def _round_up(m, e, bits):
    """m 2^e for an integer m >= 0, rounded up to at most ``bits`` bits:
    above it by less than 2^f, exact when m has at most ``bits`` bits."""
    k = m.bit_length() - bits
    if k > 0:
        m, e = -(-m >> k), e + k
        if m.bit_length() > bits:       # rounded up to 2^bits
            m, e = m >> 1, e + 1
    return m, e


def _magnitude(z):
    """An upper bound (m, e) on |z|, m 2^e with at most 24 bits, below
    |z| (1 + 2^-20), for z = (x, y, e): rounded up, exact at z = 0.

    The parts' top 30 bits, rounded up, are squared and summed, and the
    integer square root is rounded up; no full-precision square root.
    """
    x, y, e = z
    x, y = abs(x), abs(y)
    if not (x or y):
        return 0, 0
    k = max(x.bit_length(), y.bit_length()) - 30
    x, y = (-(-x >> k), -(-y >> k)) if k > 0 else (x << -k, y << -k)
    square = x * x + y * y
    root = math.isqrt(square)
    root += root * root < square
    return _round_up(root, e + k, 24)


def _plus(a, b):
    """The sum of two values (m, e), m 2^e, exactly: no rounding."""
    (m, e), (n, f) = a, b
    g = min(e, f)
    return (m << (e - g)) + (n << (f - g)), g


def _at_most(a, b):
    """Whether a <= b, for two values (m, e) standing for m 2^e; exact."""
    (m, e), (n, f) = a, b
    return m << (e - f) <= n if e >= f else m <= n << (f - e)


def _at_least_one(a):
    """max(1, a) for a value a = (m, e) with m >= 0; exact."""
    m, e = a
    return a if m.bit_length() + e > 0 else (1, 0)


def _float(m, e):
    """m 2^e rounded to the nearest float, ties to even: within 2^-53
    |m 2^e| in the normal range; past it, OverflowError."""
    return m / (1 << -e) if e < 0 else float(m << e)


def _branch(w, prec):
    """The branch b = w + sqrt(w^2 - 1) with |b| >= 1, as (x, y, e).

    w is cut to ``prec`` bits, w', by :func:`_fixed`, w'^2 - 1 is formed
    exactly and its root taken with ``math.isqrt``; a real w with |w| >= 1
    gives a real b, on real mantissas (y = 0).  The result is trimmed to
    ``prec`` bits.  Past w', every step rounds toward -inf, and the result
    is within 2^(4-prec) |b| of b = w' + sqrt(w'^2 - 1), |b| >= 1, or, when
    |b| - 1 is below that bound too, of 1/b; prec >= 8.
    """
    x, y, e = _fixed(w, prec)
    if e >= 0:                  # |w| >= 2^prec: keep the exponent negative
        x, y, e = x << e, y << e, 0
    one = 1 << -e
    if y == 0 and abs(x) >= one:
        # real b = w + sign(w) sqrt(w^2 - 1)
        root, f = _sqrt(x * x - one * one, 2 * e, prec)
        return _trim(*_add(x, 0, e, root if x > 0 else -root, 0, f), prec)
    # complex b: u = w^2 - 1 exactly, then one root s with isqrt
    ux, uy, ue = _trim(x * x - y * y - one * one, 2 * x * y, 2 * e, prec)
    t, te = _sqrt(math.isqrt(ux * ux + uy * uy) + abs(ux), ue - 1, prec)
    shift = ue - 2 * te - 1                     # uy / 2t at exponent te
    v = (uy << shift) // t if shift >= 0 else (uy >> -shift) // t
    s, si = (t, v) if ux >= 0 else (abs(v), t if uy >= 0 else -t)
    if x * s + y * si < 0:                      # Re(w conj s) < 0: |w - s| > 1
        s, si = -s, -si
    return _trim(*_add(x, y, e, s, si, te), prec)
