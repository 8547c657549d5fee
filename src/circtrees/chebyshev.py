"""Integer Chebyshev algebra and the certified Chebyshev products.

The spanning-tree count of a connected circulant graph factors through
Chebyshev polynomials of the first kind:

* even valency, steps s_1 < ... < s_k < n/2:

      tau(n) = (n / q) * prod_p |2 T_n(w_p) - 2|,

  where q = s_1^2 + ... + s_k^2 and w_p ranges over the s_k - 1 roots of
  the characteristic polynomial P(w) = sum_j (T_{s_j}(w) - 1) / (w - 1);

* odd valency (diagonal step), steps s_1 < ... < s_k < n on 2n vertices:

      tau(n) = (n / 2q) * prod_p (2 T_n(w_p) - 2) * prod_r (2 T_n(v_r) + 2),

  with w_p the same roots of P and v_r the s_k roots of P_odd(v) + 1,
  where P_odd(w) = 2k + 1 - 2 sum_j T_{s_j}(w).  The roots of
  P_odd(u) = 1 other than u = 1 are those of P, since
  (P_odd - 1) / (w - 1) = -2 P.

Both products are norms of algebraic integers, and
:func:`circtrees.algebra.tau_closed_form`, the method of record, computes
them as such, with no floating point.  :func:`tau_even` and :func:`tau_odd`
keep the products in the form above as the independent cross-check, one
evaluator for both families, with the integer algebra only they use (gcd
and square-free factoring in Z[w], T_m and U_m, the characteristic
polynomials).  They are evaluated in
arbitrary-precision floating point and *certified*: the value must sit
within 2^-20 of an integer with the right divisibility, and recomputation
at doubled precision must reproduce the same integer, otherwise the
precision escalates (up to a hard cap) and finally fails loudly.  Newton
refines the roots at doubling precisions.  T_n(w) = (b^n + b^-n)/2 with
the branch b = w + sqrt(w^2 - 1), |b| >= 1, which does not depend on n
either.  A per-process root store keeps, per characteristic polynomial,
the most precise certified roots any pass has produced and, for each
root it multiplies, the pair (b, 1/b) at their precision.  A later pass
(at any order, the confirm pass and escalations included) at or below
that precision multiplies the stored pairs as they are, with no Newton
step and no square root, since the T_n ladder cuts each pair to the
pass's width; only a pass above it starts Newton there, and its roots,
with pairs branched from them, replace the stored ones.
Escalations are logged at DEBUG level.
The polynomials are real, so each conjugate pair of roots costs one
refinement, one branch and one T_n: the second root is the exact
conjugate of the first, and the pair contributes the squared modulus of
its one value.
The two hot kernels, the T_n ladder and the Newton step, run on
Python-int mantissas that share one exponent, at the pass's precision
plus GUARD_BITS = 16 guard bits.  The ladder walks the signed digits of
n, multiplying by b or by 1/b, and divides only for b^-n, at the width
that small term needs.  Each division first trims its divisor to its
width, since CPython's integer division costs the product of the
operands' sizes.  The magnitude bound behind every radius and stopping
test takes the top 30 bits of each part and an integer square root.
mpmath holds the roots, radii and products between them.
Correctness is anchored by agreement with the exact determinant oracle in
:mod:`circtrees.exact` at small sizes.
"""

import cmath
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .algebra import IntPolynomial, _require_connected
from .errors import (CertificationError, InternalConsistencyError,
                     RootRefinementError)

MAX_CERTIFY_BITS = 8192
INTEGRALITY_TOL_BITS = 20
GUARD_BITS = 16

_log = logging.getLogger(__name__)


def poly_gcd(a, b):
    """Primitive gcd in Z[w], normalized to a positive leading coefficient.

    Euclid on primitive pseudo-remainders: each step divides
    |lead(b)|^(deg a - deg b + 1) a by b, exactly over the integers, and
    keeps the primitive part of the remainder.
    """
    a, b = a.primitive(), b.primitive()
    while not b.is_zero:
        scale = abs(b.leading) ** max(a.degree - b.degree + 1, 0)
        a, b = b, (a * scale).divmod_exact(b)[1].primitive()
    if a.is_zero:
        return a
    if a.leading < 0:
        a = -a
    return a


_SQUARE_FREE_PRIME = 2 ** 61 - 1


def _gcd_degree_mod(a, b, p):
    """Degree of gcd(a mod p, b mod p) over GF(p), by Euclid.

    ``a`` and ``b`` are coefficient sequences, lowest degree first; -1 when
    both vanish modulo p.
    """
    def reduced(c):
        c = [x % p for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = reduced(a), reduced(b)
    while b:
        inverse = pow(b[-1], -1, p)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            f = a[i] * inverse % p
            if f:
                a[i - db:i] = [(x - f * y) % p
                               for x, y in zip(a[i - db:i], b)]
        a, b = b, reduced(a[:db])
    return len(a) - 1


def square_free_decomposition(poly):
    """Square-free factors over Z: returns [(factor, multiplicity), ...].

    Factors are primitive with positive leading coefficient; content and
    sign of the input are dropped (they carry no roots).  A test modulo the
    prime p = 2^61 - 1 comes first: when p does not divide the leading
    coefficient, a repeated factor keeps its degree modulo p and divides
    both P and P', so gcd(P mod p, P' mod p) = 1 proves P square-free in
    O(deg^2) word-sized operations.  Otherwise Yun's algorithm decides.
    """
    a = poly.primitive()
    if a.leading < 0:
        a = -a
    if a.degree < 1:
        return []
    if a.leading % _SQUARE_FREE_PRIME and _gcd_degree_mod(
            a.coeffs, a.derivative().coeffs, _SQUARE_FREE_PRIME) == 0:
        return [(a, 1)]
    return _yun(a)


def _yun(a):
    """Yun's algorithm on a primitive ``a`` with a positive leading term."""
    da = a.derivative()
    g = poly_gcd(a, da)
    if g.degree == 0:
        return [(a, 1)]
    b = a.div_exact(g)
    d = da.div_exact(g) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        f = poly_gcd(b, d)
        if f.degree > 0:
            out.append((f, i))
        b = b.div_exact(f)
        d = d.div_exact(f) - b.derivative()
        i += 1
    return out


def _chebyshev(m, first_kind):
    """T_m (first kind) or U_m (second kind) from its explicit coefficients.

    The coefficient of w^(m-2k) is c_k, with c_0 = 2^(m-1) for T_m (m >= 1)
    and 2^m for U_m, and c_{k+1} = -c_k (m-2k)(m-2k-1) / (4 (k+1)(m-k-r)),
    r = 1 for T_m and 0 for U_m.  Each division is exact, and the cost is
    O(m) big-integer operations with no recursion.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return IntPolynomial([1])
    r = 1 if first_kind else 0
    coeffs = [0] * (m + 1)
    c = coeffs[m] = 2 ** (m - r)
    for k in range(m // 2):
        c = -c * (m - 2 * k) * (m - 2 * k - 1) // (4 * (k + 1) * (m - k - r))
        coeffs[m - 2 * k - 2] = c
    return IntPolynomial(coeffs)


@lru_cache(maxsize=None)
def cheb_t(m):
    """Chebyshev polynomial of the first kind T_m as an IntPolynomial."""
    return _chebyshev(m, first_kind=True)


@lru_cache(maxsize=None)
def cheb_u(m):
    """Chebyshev polynomial of the second kind U_m; U_m(1) = m + 1."""
    return _chebyshev(m, first_kind=False)


def _parts(z):
    """The (real, imaginary) mpf tuples of ``z``; an mpc is not copied."""
    return (z if isinstance(z, mp.mpc) else mp.mpc(z))._mpc_


def _fixed(w, prec):
    """``w`` as mantissas sharing one exponent: w ~ (x + iy) 2^e.

    The larger part keeps about ``prec`` bits and the smaller is truncated
    at the same exponent, so the error is below 2^(2-prec) |w|.  An int or
    a Fraction is converted exactly before it is truncated; an infinity or
    a NaN raises :class:`ValueError`.
    """
    if isinstance(w, (int, Fraction)):
        num, den = w.numerator, w.denominator
        shift = prec - num.bit_length() + den.bit_length()
        x = (num << shift) // den if shift >= 0 else num // (den << -shift)
        return x, 0, -shift
    parts = _parts(w)
    if min(bc for *_, bc in parts) < 0:     # mpmath's special values
        raise ValueError(f"{w} is not a finite number")
    tops = [exp + bc for _, man, exp, bc in parts if man]
    if not tops:
        return 0, 0, 0
    e = max(tops) - prec
    x, y = (man << (exp - e) if exp >= e else man >> (e - exp)
            for _, man, exp, bc in parts)
    return (-x if parts[0][0] else x), (-y if parts[1][0] else y), e


def _trim(x, y, e, prec):
    """Drop low bits until the larger mantissa has at most ``prec`` bits."""
    k = max(x.bit_length(), y.bit_length()) - prec
    return (x >> k, y >> k, e + k) if k > 0 else (x, y, e)


def _complex(x, y, e):
    """(x + iy) 2^e as an mpc, rounded to the ambient precision."""
    lib, prec = mp.libmp, mp.mp.prec
    return mp.make_mpc((lib.from_man_exp(x, e, prec, lib.round_nearest),
                        lib.from_man_exp(y, e, prec, lib.round_nearest)))


def _inverse(x, y, e, prec):
    """1 / ((x + iy) 2^e) to about ``prec`` bits, from one division.

    x + iy is first trimmed to ``prec`` bits; the division is by x when
    y = 0, and otherwise by |x + iy|^2 trimmed to that width.
    """
    x, y, e = _trim(x, y, e, prec)
    if not y:
        return (1 << 2 * prec) // x, 0, -2 * prec - e
    den, _, de = _trim(x * x + y * y, 0, 2 * e, prec)
    inv = (1 << 2 * prec) // den
    return _trim(x * inv, -y * inv, e - 2 * prec - de, prec)


def _sqrt(m, e, prec):
    """sqrt(m 2^e) for an integer m >= 0, to about ``prec`` bits."""
    if e % 2:
        m, e = m << 1, e - 1
    k = max(prec - m.bit_length() // 2 + 1, 0)
    return math.isqrt(m << 2 * k), e // 2 - k


def _add(x, y, e, u, v, f):
    """(x + iy) 2^e + (u + iv) 2^f, exactly, at the smaller exponent."""
    if e > f:
        return (x << (e - f)) + u, (y << (e - f)) + v, f
    return x + (u << (f - e)), y + (v << (f - e)), e


def _magnitude(z):
    """An upper bound on |z| with 24 bits, below |z| (1 + 2^-20).

    Each part's top 30 bits, rounded up, are squared and summed, and the
    integer square root is rounded up; no full-precision square root.
    """
    tops = []
    for _, man, exp, bc in _parts(z):
        if man:
            k = bc - 30
            tops.append((-(-man >> k) if k > 0 else man << -k, exp + k))
    if not tops:
        return mp.mpf(0)
    e = max(exp for _, exp in tops)
    square = sum((-(-m >> (e - exp))) ** 2 for m, exp in tops)
    root = math.isqrt(square)
    root += root * root < square
    k = root.bit_length() - 24
    root = -(-root >> k)
    zeros = (root & -root).bit_length() - 1     # an mpf mantissa is odd
    root >>= zeros
    return mp.make_mpf((0, root, e + k + zeros, root.bit_length()))


def _norm(x):
    """x conj(x) = |x|^2, with no square root."""
    return x.real ** 2 + x.imag ** 2


def _branch(w, prec):
    """The branch b = w + sqrt(w^2 - 1) with |b| >= 1, as (x, y, e).

    w is cut to ``prec`` bits, w^2 - 1 is formed exactly and its root
    taken with ``math.isqrt``; a real w with |w| >= 1 gives a real b, on
    real mantissas (y = 0).  The result is trimmed to ``prec`` bits.
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


def _signed_digits(n):
    """The non-adjacent form of n >= 1: digits in {-1, 0, 1}, top first.

    No two adjacent digits are nonzero, so a ladder over them multiplies
    at about a third of its squarings, not half.
    """
    digits = []
    while n:
        digit = 2 - (n & 3) if n & 1 else 0     # n = 1 or 3 mod 4: +1, -1
        digits.append(digit)
        n = (n - digit) >> 1
    return digits[::-1]


def _ladder(pair, n, prec):
    """T_n(w) = (b^n + b^-n)/2 from the pair (b, 1/b) of w, as an mpc.

    b and 1/b are trimmed to ``prec`` bits.  The ladder walks the
    non-adjacent form of n: a square at every digit, then a product by b
    on +1 and by 1/b on -1; a complex product costs three integer
    products and a square two, and a real b stays on real mantissas.
    b^-n is added only while |b^n|^2 < 2^(prec + 1), by one division at
    the width it needs, about prec - 2 log2|b^n| + GUARD_BITS bits.  The
    mpc is rounded to the ambient precision; n >= 1.
    """
    (b, bi, be), (c, ci, ce) = (_trim(*z, prec) for z in pair)
    factors = {1: (b, b + bi, bi - b, be), -1: (c, c + ci, ci - c, ce)}
    bn, bni, en = b, bi, be
    for digit in _signed_digits(n)[1:]:
        if bi:
            bn, bni, en = _trim((bn + bni) * (bn - bni), 2 * bn * bni,
                                2 * en, prec)
        else:
            bn, _, en = _trim(bn * bn, 0, 2 * en, prec)
        if digit:
            x, xsum, xdiff, xe = factors[digit]
            if bi:
                k = x * (bn + bni)
                bn, bni, en = _trim(k - bni * xsum, k + bn * xdiff, en + xe,
                                    prec)
            else:
                bn, _, en = _trim(bn * x, 0, en + xe, prec)
    top = max(bn.bit_length(), bni.bit_length()) + en   # >= log2|b^n|
    if 2 * top <= prec + 2:
        width = min(prec, prec + GUARD_BITS - 2 * top)
        bn, bni, en = _add(bn, bni, en, *_inverse(bn, bni, en, width))
    return _complex(bn, bni, en - 1)


def cheb_eval_large(w, n, precision=None):
    """T_n(w) in O(log n) multiplications via T_n(w) = (b^n + b^-n)/2.

    Here b = w + sqrt(w^2 - 1) on whichever square-root branch gives
    |b| >= 1, so b^n dominates and the reciprocal term cannot cancel
    catastrophically.  Runs at the caller's mpmath precision unless
    ``precision`` (bits) is given, and returns an mpc rounded to it.

    The arithmetic is on Python-int mantissas sharing one exponent, with
    GUARD_BITS bits beyond the precision: :func:`_branch` gives b, one
    division gives 1/b, and :func:`_ladder`, the kernel the certified
    products run on the pairs the root store keeps, gives the value.
    """
    if precision is not None:
        with mp.workprec(precision):
            return cheb_eval_large(w, n)
    n = abs(n)
    if n == 0:
        return mp.mpc(1)
    prec = mp.mp.prec + GUARD_BITS
    b = _branch(w, prec)
    return _ladder((b, _inverse(*b, prec)), n, prec)


@dataclass(frozen=True)
class CertifiedRoots:
    """All complex roots of an integer polynomial with certified error radii.

    ``roots[i]`` is a distinct root with multiplicity ``multiplicities[i]``
    and error radius ``radii[i]``; the Newton residual |p(root)| stays below
    the bound the radius implies.  Multiplicities sum to the degree.
    """

    roots: tuple
    radii: tuple
    multiplicities: tuple
    working_precision: int

    @property
    def total_count(self):
        return sum(self.multiplicities)

    def expanded(self):
        """Roots repeated according to multiplicity."""
        return tuple(r for r, m in zip(self.roots, self.multiplicities)
                     for _ in range(m))


def _double_precision_roots(poly):
    """Double-precision roots of a square-free polynomial, by Aberth-Ehrlich.

    All d iterates move together: each takes Newton's step corrected by the
    pull of the others, which repel one another and so settle on distinct
    roots.  They start on the circle whose radius is the geometric mean of
    the nonzero roots' moduli, and each stops once its step is below 1e-13
    relative.  An iterate within 1e-10 max(1, |z|) of the real axis with no
    other within 1e-6 max(1, |z|) is returned with imaginary part exactly
    0.0, so Newton refines a real root in real arithmetic; a conjugate pair
    is never snapped, its partner lying within twice the imaginary part.
    A division by zero in the iteration (the start radius underflows to 0.0
    when the coefficients span too many binades) raises
    :class:`RootRefinementError`.
    """
    coeffs = poly.coeffs
    d = len(coeffs) - 1
    scale = max(abs(c) for c in coeffs)
    a = [c / scale for c in reversed(coeffs)]   # int / int: no overflow
    low = next(i for i, c in enumerate(coeffs) if c)
    radius = 1.0 if low == d else math.exp(
        (math.log(abs(coeffs[low])) - math.log(abs(coeffs[-1]))) / (d - low))
    z = [radius * cmath.exp(1j * (2 * math.pi * k / d + 0.4))
         for k in range(d)]
    moving = set(range(d))
    for _ in range(100):
        for i in sorted(moving):
            zi = z[i]
            p, dp = a[0], 0
            for c in a[1:]:
                dp = dp * zi + p
                p = p * zi + c
            try:
                pull = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
                step = p / (dp - p * pull)
            except ZeroDivisionError as exc:
                raise RootRefinementError(
                    f"Aberth seeding of a degree-{d} polynomial divided by "
                    f"zero near {zi}") from exc
            z[i] = zi - step
            if abs(step) <= 1e-13 * abs(z[i]):
                moving.discard(i)
        if not moving:
            break
    for i, zi in enumerate(z):
        near = 1e-6 * max(1.0, abs(zi))
        if abs(zi.imag) <= 1e-10 * max(1.0, abs(zi)) and all(
                abs(zi - zj) > near for j, zj in enumerate(z) if j != i):
            z[i] = complex(zi.real, 0.0)
    return z


@dataclass
class _RootEntry:
    """One polynomial's entry in the root store of :func:`_root_setup`.

    ``pairs`` holds, for each root :func:`_pair_representatives` gives of
    ``best`` and in its order, the pair (b, 1/b) that :func:`_ladder`
    takes: b from :func:`_branch`, and 1/b from :func:`_inverse`, as
    mantissas at ``best.working_precision + GUARD_BITS`` bits.
    """

    factors: tuple
    best: CertifiedRoots = None
    pairs: tuple = ()


@lru_cache(maxsize=64)
def _root_setup(poly):
    """The root store: what root finding keeps of ``poly`` in this process.

    ``factors`` holds one ``(factor, derivative, multiplicity, seeds,
    mirrors)`` per square-free factor of ``poly``: ``seeds`` are its
    double-precision roots, laid out by :func:`_paired_seeds` so that each
    index in ``mirrors`` follows its conjugate pair's representative.
    ``best`` holds the most precise certified roots any certification has
    produced, None until one has, and ``pairs`` the branch b = w +
    sqrt(w^2 - 1) of each representative root w of ``best`` with its
    reciprocal.  None of it depends on the order, so a family evaluated at
    many orders and precisions factors and seeds each characteristic
    polynomial and lays out its conjugate pairs once, and takes each
    branch once per ``best``; a later pass takes ``best`` and its pairs as they are or,
    above its precision, starts Newton at it.  Beyond 64 polynomials the
    least recently used goes, its pairs with it.
    """
    return _RootEntry(tuple(
        (factor, factor.derivative(), mult,
         *_paired_seeds(_double_precision_roots(factor)))
        for factor, mult in square_free_decomposition(poly)))


def _newton_step(poly, dpoly, z):
    """The Newton step P(z) / P'(z) as an mpc, given P and ``dpoly`` = P'.

    One Horner pass evaluates P and P' on Python-int mantissas at the
    ambient precision plus GUARD_BITS, each value keeping its own exponent
    (a real z stays on real mantissas); the quotient takes one division,
    by P'(z) or by |P'(z)|^2, trimmed to that width.
    """
    prec = mp.mp.prec + GUARD_BITS
    zx, zy, ze = _fixed(z, prec)
    zsum, zdiff = zx + zy, zy - zx

    def times_z_plus(x, y, e, c):
        if zy:
            k = zx * (x + y)
            x, y = k - y * zsum, k + x * zdiff
        else:
            x *= zx
        e += ze
        if e > 0:
            x, y, e = x << e, y << e, 0
        return _trim(x + (c << -e), y, e, prec)

    p, dp = (poly.leading, 0, 0), (0, 0, 0)
    for a, da in zip(reversed(poly.coeffs[:-1]), reversed(dpoly.coeffs)):
        p, dp = times_z_plus(*p, a), times_z_plus(*dp, da)
    (px, py, pe), (dx, dy, de) = p, dp
    if dx == dy == 0:
        raise RootRefinementError(f"derivative vanished near {z}")
    if zy == 0:
        shift = prec + dx.bit_length() - px.bit_length()
        x = (px << shift) // dx if shift >= 0 else (px >> -shift) // dx
        return _complex(x, 0, pe - de - shift)
    rx, ry, f = _inverse(dx, dy, de, prec)
    k = rx * (px + py)
    return _complex(*_trim(k - py * (rx + ry), k + px * (ry - rx), pe + f,
                           prec))


def _newton_converge(poly, dpoly, z, bits):
    """Newton steps until one is below 2^-bits relative; returns (z, step).

    The small step is returned, not applied: it bounds the distance from z
    to the root.
    """
    tol = mp.mpf(2) ** (-bits)
    for _ in range(100):
        step = _newton_step(poly, dpoly, z)
        if _magnitude(step) <= tol * max(1, _magnitude(z)):
            return z, step
        z = z - step
    raise RootRefinementError(f"Newton did not converge for {poly} near {z}")


def _newton_refine(poly, dpoly, z, start_bits, precision):
    """Refine ``z``, right to about ``start_bits`` bits, to a root of ``poly``.

    Newton doubles the correct bits per step, so the steps climb a ladder of
    precisions that double up to ``precision``: the lowest rung, at 1-2x
    ``start_bits``, iterates to convergence (seeds may be poor), each middle
    rung takes one step, and the top rung iterates until the step is below
    2^-precision relative; from a start already right to ``precision``
    bits, that is one step.  That last step, evaluated at full precision,
    gives the radius: four times its size plus 2^(4-precision) max(1, |z|),
    rounded up to 24 bits.
    """
    ladder = [precision]
    while ladder[-1] > 2 * start_bits:
        ladder.append((ladder[-1] + 1) // 2)
    ladder.reverse()
    step = 0
    for bits in ladder:
        with mp.workprec(bits + 64):
            z = mp.mpc(z) - step
            if bits in (ladder[0], precision):
                z, step = _newton_converge(poly, dpoly, z, bits)
            else:
                step = _newton_step(poly, dpoly, z)
    return z, mp.fadd(4 * _magnitude(step),
                      mp.ldexp(max(1, _magnitude(z)), 4 - precision),
                      prec=24, rounding="u")


def _seed_mirrors(seeds):
    """{mirror index: representative index} over double-precision seeds.

    A seed z clearly off the axis, imag z > 1e-6 max(1, |z|), represents a
    conjugate pair when the seed nearest conj z lies within that tolerance
    of it; that seed is its mirror.  Near-real seeds are never paired.
    """
    mirrors = {}
    for i, z in enumerate(seeds):
        near = 1e-6 * max(1.0, abs(z))
        if z.imag > near:
            c = z.conjugate()
            j = min(range(len(seeds)), key=lambda k: abs(seeds[k] - c))
            if abs(seeds[j] - c) <= near and j not in mirrors:
                mirrors[j] = i
    return mirrors


def _paired_seeds(seeds):
    """(seeds, mirrors): each mirror seed moved right after its pair's
    representative, and the set of the mirrors' new indices."""
    mirrors = _seed_mirrors(seeds)
    partner = {rep: mirror for mirror, rep in mirrors.items()}
    order = []
    for i in range(len(seeds)):
        if i not in mirrors:
            order += [i, partner[i]] if i in partner else [i]
    return (tuple(seeds[i] for i in order),
            frozenset(k for k, i in enumerate(order) if i in mirrors))


def _pair_representatives(cr):
    """(root, multiplicity, paired) for every root of ``cr`` but the mirrors.

    A paired root stands for itself and its conjugate: a real polynomial's
    value at the mirror is the conjugate of its value at the root.
    :func:`_refine_roots` puts each mirror right after its representative,
    so a root above the axis whose successor is its exact conjugate is
    paired with it.
    """
    out, roots, i = [], cr.roots, 0
    while i < len(roots):
        re, im = roots[i]._mpc_
        paired = (i + 1 < len(roots) and im[0] == 0 and im[1] != 0
                  and roots[i + 1]._mpc_ == (re, mp.libmp.mpf_neg(im)))
        out.append((roots[i], cr.multiplicities[i], paired))
        i += 1 + paired
    return out


def _refine_roots(poly, precision, previous=None):
    """Certified roots of ``poly`` at ``precision`` bits, by Newton.

    Newton starts from ``previous``, certified roots of the same polynomial
    at another precision, or from the double-precision seeds.  Yun factors
    have distinct multiplicities, so a root's multiplicity names the factor
    it is refined on.  Factors are real, so only one root of each conjugate
    pair is refined; its mirror, laid out right after it as in the store
    entry's seeds, is its exact conjugate, with the same radius.  The
    collapse test and the degree check run on every call.
    """
    roots, radii, mults = [], [], []
    for factor, dfactor, mult, seeds, mirrors in _root_setup(poly).factors:
        if previous is None:
            starts, start_bits = seeds, 53   # a double
        else:
            starts = [z for z, m in zip(previous.roots,
                                        previous.multiplicities) if m == mult]
            start_bits = previous.working_precision
        refined = [None if i in mirrors else
                   _newton_refine(factor, dfactor, z, start_bits, precision)
                   for i, z in enumerate(starts)]
        with mp.workprec(precision + 64):
            for i in mirrors:
                z, radius = refined[i - 1]
                refined[i] = mp.conj(z), radius
            for i, (zi, ri) in enumerate(refined):
                for zj, rj in refined[:i]:
                    if _magnitude(zi - zj) <= 16 * (ri + rj):
                        raise RootRefinementError(
                            f"root iterates collapsed near {zi} for {factor}")
        for z, rad in refined:
            roots.append(z)
            radii.append(rad)
            mults.append(mult)
    found = sum(mults)
    if found != poly.degree:
        raise InternalConsistencyError(
            f"found {found} roots for degree {poly.degree} polynomial {poly}")
    return CertifiedRoots(tuple(roots), tuple(radii), tuple(mults), precision)


def find_roots(poly, precision):
    """All complex roots of ``poly`` at ``precision`` bits, certified.

    Multiple roots are detected exactly (a square-free test modulo a
    prime, else Yun decomposition) and each square-free factor is solved by
    Aberth-Ehrlich seeds refined with Newton iteration in mpmath, at
    precisions doubling up to ``precision``, once per conjugate pair.
    Raises :class:`RootRefinementError` when seeding divides by zero,
    refinement stalls or two iterates collapse onto one root; callers
    escalate precision and retry.
    """
    if poly.degree < 1:
        raise ValueError("find_roots requires a nonconstant polynomial")
    return _refine_roots(poly, precision)


def _stored_roots(poly, bits):
    """The root store's entry of ``poly``, its roots certified at ``bits``.

    The first time the polynomial is seen, :func:`find_roots` refines its
    seeds.  Later, the store's most precise roots and their pairs are
    served as they are when they are at least that precise: the product
    never reads a radius, and :func:`_ladder` cuts each pair to the pass's
    own width.  Otherwise Newton starts at them, and its roots, more
    precise, replace them, together with pairs (b, 1/b) branched at their
    precision.
    """
    entry = _root_setup(poly)
    best = entry.best
    if best is not None and best.working_precision >= bits:
        return entry
    best = (find_roots(poly, bits) if best is None
            else _refine_roots(poly, bits, best))
    prec = bits + GUARD_BITS
    pairs = []
    for w, _, _ in _pair_representatives(best):
        b = _branch(w, prec)
        pairs.append((b, _inverse(*b, prec)))
    entry.best, entry.pairs = best, tuple(pairs)
    return entry


def build_even_char(steps):
    """Characteristic polynomial P(w) of an even-valency step set.

    P(w) = sum_j (T_{s_j}(w) - 1) / (w - 1), degree s_k - 1, with the
    division exact by construction; P(1) equals the step square sum.
    """
    total = IntPolynomial([])
    for s in steps:
        total = total + (cheb_t(s) - 1)
    p = total.div_exact(IntPolynomial([-1, 1]))
    if p(1) != sum(s * s for s in steps):
        raise InternalConsistencyError(
            f"P(1) != sum of squared steps for {steps}")
    return p


def build_odd_char(steps):
    """Characteristic polynomial P(w) = 2k + 1 - 2 sum_j T_{s_j}(w).

    Degree s_k; P(1) = 1 and P'(1) = -2 * (step square sum).
    """
    k = len(steps)
    p = IntPolynomial([2 * k + 1])
    for s in steps:
        p = p - 2 * cheb_t(s)
    if p(1) != 1:
        raise InternalConsistencyError(f"P(1) != 1 for diagonal steps {steps}")
    return p


def _headroom_bits(polys, n):
    """Upper estimate of log2 of the certified product, from double roots."""
    bits = math.log2(n) + 8
    for poly in polys:
        for _, _, mult, seeds, _ in _root_setup(poly).factors:
            for w in seeds:
                s = (w * w - 1) ** 0.5
                grow = max(abs(w + s), abs(w - s))
                if grow > 1:
                    bits += mult * n * math.log2(grow)
    return int(bits) + 1


def _certified_integer(evaluate, divisor, initial_bits, what):
    """Escalating-precision evaluation of a product that must be an integer.

    Accepts when the value is within 2^-20 of a positive integer divisible
    by ``divisor`` and recomputation at doubled precision reproduces it;
    otherwise doubles the working precision up to MAX_CERTIFY_BITS.  A
    value of 2^(bits - 21) or more is a multiple of 2^-20 at ``bits`` bits,
    so that pass cannot resolve 2^-20 and is rejected without a confirm
    pass.  A starting precision already above the cap is refused without
    an attempt.  Each escalation and its cause is logged at DEBUG level.
    """
    tol = mp.mpf(2) ** (-INTEGRALITY_TOL_BITS)
    bits = max(initial_bits, 128)
    if bits > MAX_CERTIFY_BITS:
        raise CertificationError(
            f"{what} not attempted: needs about {bits} bits, above the "
            f"{MAX_CERTIFY_BITS}-bit cap")
    while bits <= MAX_CERTIFY_BITS:
        try:
            resolved = mp.ldexp(1, bits - INTEGRALITY_TOL_BITS - 1)
            # rounding and comparison must run at full precision: the
            # candidate integer can need far more than the ambient 53 bits
            with mp.workprec(bits + 64):
                value = evaluate(bits)
                candidate = int(mp.nint(value))
                accepted = (candidate > 0 and candidate % divisor == 0
                            and abs(value - candidate) < tol
                            and abs(value) < resolved)
            if accepted:
                with mp.workprec(2 * bits + 64):
                    confirm = evaluate(2 * bits)
                    confirmed = (int(mp.nint(confirm)) == candidate
                                 and abs(confirm - candidate) < tol)
                if confirmed:
                    return candidate // divisor
                cause = f"the confirm pass at {2 * bits} bits disagreed"
            else:
                cause = (f"not within 2^-{INTEGRALITY_TOL_BITS} of a positive "
                         f"multiple of {divisor}")
        except RootRefinementError as exc:
            cause = f"root refinement failed: {exc}"
        _log.debug("%s at %d bits: %s; escalating to %d bits",
                   what, bits, cause, 2 * bits)
        bits *= 2
    raise CertificationError(
        f"{what} failed to certify as an integer below {MAX_CERTIFY_BITS} bits",
        attempted=True)


def tau_even(spec):
    """Spanning-tree count of an even-valency spec, certified.

    Evaluates (n/q) * prod |2 T_n(w_p) - 2| over the certified roots of the
    characteristic polynomial P and returns the certified integer.
    """
    return _certified_product(spec, diagonal=False)


def tau_odd(spec):
    """Spanning-tree count of a diagonal spec at half-order n, certified.

    Evaluates (n/2q) * prod (2 T_n(w_p) - 2) * prod (2 T_n(v_r) + 2) over
    the certified roots w_p of P and v_r of P_odd + 1.
    """
    return _certified_product(spec, diagonal=True)


def _certified_product(spec, diagonal):
    """The certified product of :func:`tau_even` or :func:`tau_odd`.

    Each (polynomial, shift) factor contributes 2 T_n(w) + shift over the
    roots w of its polynomial; the product starts at n and must be a
    multiple of q (even) or 2q (diagonal).  The diagonal product is signed,
    so a negative value fails; the even one is certified in absolute value.
    """
    if spec.diagonal != diagonal:
        wanted = "diagonal" if diagonal else "even-valency"
        raise ValueError(f"{spec} is not a {wanted} spec")
    _require_connected(spec)
    n, steps = spec.order, spec.steps
    divisor = sum(s * s for s in steps)
    factors = [(build_even_char(steps), -2)]
    if diagonal:
        divisor *= 2
        factors.append((build_odd_char(steps) + 1, 2))
    factors = [(poly, shift) for poly, shift in factors if poly.degree >= 1]

    def evaluate(bits):
        prec = bits + GUARD_BITS
        with mp.workprec(bits):
            product = mp.mpc(n)
            for poly, shift in factors:
                entry = _stored_roots(poly, bits)
                for (_, mult, paired), pair in zip(
                        _pair_representatives(entry.best), entry.pairs):
                    x = 2 * _ladder(pair, n, prec) + shift
                    product *= (_norm(x) if paired else x) ** mult
            if abs(product.imag) > mp.mpf(2) ** (-INTEGRALITY_TOL_BITS - 2) \
                    * max(1, abs(product.real)):
                raise RootRefinementError(
                    f"product has stray imaginary part {product.imag}")
            return product.real if diagonal else abs(product.real)

    start = 128 + _headroom_bits([poly for poly, _ in factors], n)
    what = f"{'tau_odd' if diagonal else 'tau_even'}({spec})"
    return _certified_integer(evaluate, divisor, start, what)
