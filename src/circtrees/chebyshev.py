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
  where P_odd(w) = 2k + 1 - 2 sum_j T_{s_j}(w); (P_odd - 1) / (w - 1)
  = -2 P.

:func:`circtrees.algebra.tau_closed_form`, the method of record, takes
these norms exactly.  :func:`tau_even` and :func:`tau_odd` keep the
products above as the cross-check, *certified*: one chain evaluates the
product once at each of bits, 2 bits, 4 bits, ... up to a cap, and accepts
a value within 2^-20 of an integer with the right divisibility when the
next evaluation reproduces it; each rejected precision is logged at DEBUG
level.  The roots are seeded on the palindromic z-image z^d P((z + 1/z)/2),
whose coefficients stay small where P's reach 2^(s_k), and refined by
Newton in the w-basis with guard bits for P's coefficients; T_n(w) =
(b^n + b^-n)/2 with b = w + sqrt(w^2 - 1), |b| >= 1, and the Mahler measure
is the product of |b|.  A per-process root store (:func:`_root_setup`) keeps
each polynomial's most precise roots with one record per representative
root: its pair (b, 1/b), its multiplicity and whether it stands for a
conjugate pair.  Past the seeds a root is a triple and a radius a bound
of :mod:`circtrees.dyadic`, and :func:`_ladder` and :func:`_newton_step`
run on their mantissas with GUARD_BITS = 16 guard bits.  The oracle of
:mod:`circtrees.exact` anchors correctness at small sizes.
"""

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from .algebra import IntPolynomial, require_connected
from .dyadic import (_add, _at_least_one, _at_most, _branch, _exact, _fixed,
                     _inverse, _magnitude, _minus, _plus, _round_up, _show,
                     _trim)
from .errors import (CertificationError, InternalConsistencyError,
                     NotAttemptedError, RootRefinementError)

MAX_CERTIFY_BITS = 8192
MAX_SEED_DEGREE = 512
INTEGRALITY_TOL_BITS = 20
GUARD_BITS = 16
ROOT_GRID_BITS = 64


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


def cheb_t(m):
    """Chebyshev polynomial of the first kind T_m as an IntPolynomial."""
    return _chebyshev(m, first_kind=True)


def cheb_u(m):
    """Chebyshev polynomial of the second kind U_m; U_m(1) = m + 1."""
    return _chebyshev(m, first_kind=False)


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
    """T_n(w) = (b^n + b^-n)/2 from the pair (b, 1/b) of w, as (x, y, e).

    b and 1/b are trimmed to ``prec`` bits.  The ladder walks the
    non-adjacent form of n: a square at every digit, then a product by b
    on +1 and by 1/b on -1; a complex product costs three integer
    products and a square two, and a real b stays on real mantissas.
    b^-n is added only while |b^n|^2 < 2^(prec + 1), by one division at
    the width it needs, about prec - 2 log2|b^n| + GUARD_BITS bits; n >= 1.
    Every step rounds toward -inf; for |b| >= 1, a pair right to ``prec``
    bits and n 2^(6-prec) <= 1/2, it is within n 2^(6-prec) |b|^n of T_n.
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
    return bn, bni, en - 1


class CertifiedRoots(namedtuple(
        "CertifiedRoots", "roots radii multiplicities working_precision")):
    """All complex roots of an integer polynomial with certified error radii.

    ``roots[i]`` is a distinct root with multiplicity ``multiplicities[i]``
    and error radius ``radii[i]``; the Newton residual |p(root)| stays below
    the bound the radius implies.  Multiplicities sum to the degree.  A
    root is a triple (x, y, e) of integers standing for (x + iy) 2^e, and a
    radius a 24-bit upper bound (m, e) standing for m 2^e.
    """

    __slots__ = ()

    @property
    def total_count(self):
        return sum(self.multiplicities)

    def expanded(self):
        """Roots repeated according to multiplicity, as triples."""
        return tuple(r for r, m in zip(self.roots, self.multiplicities)
                     for _ in range(m))


def _double_precision_roots(poly):
    """Double-precision roots of a square-free polynomial, by Aberth-Ehrlich.

    All d iterates move together: each takes Newton's step corrected by the
    pull of the others, which repel one another and so settle on distinct
    roots.  They start on the circle whose radius is the geometric mean of
    the nonzero roots' moduli, and each stops once its step is below 1e-13
    relative.  As in MPSolve (Bini and Robol, 2014), the Newton ratio p/p'
    at |z| > 1 comes from the reversed polynomial at 1/z, so no power of
    |z| overflows.  A division by zero (the start radius underflows to 0.0
    when the coefficients span too many binades) or a start radius or
    iterate that is not finite raises :class:`RootRefinementError`.
    """
    coeffs = poly.coeffs
    d = len(coeffs) - 1
    scale = max(abs(c) for c in coeffs)
    low = [c / scale for c in coeffs]           # int / int: no overflow
    top = low[::-1]
    first = next(i for i, c in enumerate(coeffs) if c)
    try:
        radius = 1.0 if first == d else math.exp(
            (math.log(abs(coeffs[first])) - math.log(abs(coeffs[-1])))
            / (d - first))
    except OverflowError as exc:
        raise RootRefinementError(f"Aberth seeding of a degree-{d} "
                                  f"polynomial: the start radius is not "
                                  f"finite") from exc
    z = [radius * cmath.exp(1j * (2 * math.pi * k / d + 0.4))
         for k in range(d)]
    moving = set(range(d))
    for _ in range(100):
        for i in sorted(moving):
            zi = z[i]
            # p(z) = z^d r(1/z), r the reversed polynomial: Horner
            a, u = (top, zi) if abs(zi) <= 1 else (low, 1 / zi)
            p, dp = a[0], 0
            for c in a[1:]:
                p, dp = p * u + c, dp * u + p
            try:
                ratio = p / dp if a is top else zi * p / (d * p - u * dp)
                pull = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
                step = ratio / (1 - ratio * pull)
            except ZeroDivisionError as exc:
                raise RootRefinementError(f"Aberth seeding of a degree-{d} "
                                          f"polynomial divided by zero near "
                                          f"{zi}") from exc
            z[i] = zi - step
            if not cmath.isfinite(z[i]):
                raise RootRefinementError(
                    f"Aberth seeding of a degree-{d} polynomial: the step "
                    f"from {zi} is not finite")
            if abs(step) <= 1e-13 * abs(z[i]):
                moving.discard(i)
        if not moving:
            break
    return z


def _laurent_image(poly):
    """The z-image (2z)^d F((z^2 + 1) / 2z) of F = ``poly``, primitive:
    its roots are the pairs (z, 1/z) with (z + 1/z) / 2 a root w of F.
    Horner's rule in w = N / D, with N = z^2 + 1 and D = 2z."""
    image = [poly.leading]
    for j, c in enumerate(reversed(poly.coeffs[:-1]), 1):
        image += [0, 0]
        for k in range(len(image) - 1, 1, -1):
            image[k] += image[k - 2]
        image[j] += c << j
    return IntPolynomial(image).primitive()


def _height(poly):
    """The bit length of the largest coefficient of ``poly``."""
    return max(map(abs, poly.coeffs)).bit_length()


def _seeds(poly):
    """Double-precision roots of ``poly``, on its z-image when that is lower.

    A characteristic polynomial's z-image has coefficients about q in size
    where its w-basis form has 2^(s_k), whose seeds drown in cancellation;
    a polynomial with roots near the circle is the other way round.  The
    z-image's seed of largest modulus left takes the one nearest its
    reciprocal as partner, and maps to w = (z + 1/z) / 2.
    """
    image = _laurent_image(poly)
    if _height(image) >= _height(poly):
        return _double_precision_roots(poly)
    pool = sorted(_double_precision_roots(image), key=abs)
    seeds = []
    while pool:
        z = pool.pop()
        pool.remove(min(pool, key=lambda u: abs(u * z - 1)))
        seeds.append((z + 1 / z) / 2)
    return seeds


def _laid_out(seeds):
    """(seeds, mirrors): each seed's symmetry decided once, and the seeds
    laid out by it.  With t = 1e-6 max(1, |z|), a seed z within
    1e-10 max(1, |z|) of the axis and no other seed within t is made exactly
    real, so Newton refines it in real arithmetic; a conjugate pair is never
    made real, its partner lying within twice the imaginary part.  A seed
    with imag z > t represents a conjugate pair when the seed nearest
    conj z, its mirror, lies within t of it and is no earlier seed's mirror;
    each mirror moves right after its representative, and ``mirrors`` holds
    the mirrors' new indices.  Any other seed is unpaired."""
    near = [1e-6 * max(1.0, abs(z)) for z in seeds]
    real = [abs(z.imag) <= 1e-10 * max(1.0, abs(z)) and all(
                abs(z - u) > t for j, u in enumerate(seeds) if j != i)
            for i, (z, t) in enumerate(zip(seeds, near))]
    seeds = [complex(z.real, 0.0) if r else z for z, r in zip(seeds, real)]
    partner, taken = {}, set()
    for i, (z, t) in enumerate(zip(seeds, near)):
        if z.imag > t:
            c = z.conjugate()
            j = min(range(len(seeds)), key=lambda k: abs(seeds[k] - c))
            if abs(seeds[j] - c) <= t and j not in taken:
                partner[i] = j
                taken.add(j)
    out, mirrors = [], set()
    for i, z in enumerate(seeds):
        if i not in taken:
            out.append(z)
            if i in partner:
                mirrors.add(len(out))
                out.append(seeds[partner[i]])
    return tuple(out), frozenset(mirrors)


class _RootEntry:
    """One polynomial's entry in the root store of :func:`_root_setup`.

    ``records`` holds one (pair, multiplicity, paired) per representative
    root of ``best``, in its order: the pair (b, 1/b) that :func:`_ladder`
    takes, at ``best.working_precision + GUARD_BITS`` bits, and whether the
    root stands for a conjugate pair.  ``slope`` is the sum over the seeds
    w of multiplicity * log2 max(1, |w +- sqrt(w^2 - 1)|), the growth per
    unit of order of log2 of the product.  ``error`` is the error of a
    seeding that failed or was refused, None otherwise.
    """

    __slots__ = ("factors", "slope", "best", "records", "error")

    def __init__(self, factors, slope, error=None):
        self.factors, self.slope, self.error = factors, slope, error
        self.best, self.records = None, ()


@lru_cache(maxsize=64)
def _root_setup(poly):
    """The root store: what root finding keeps of ``poly`` in this process.

    ``factors`` holds one ``(factor, derivative, multiplicity, seeds,
    mirrors)`` per square-free factor: ``seeds`` from :func:`_seeds`, laid
    out by :func:`_laid_out` so that each index in ``mirrors`` follows
    its conjugate pair's representative.  A factor of degree above
    MAX_SEED_DEGREE raises :class:`NotAttemptedError` before any is seeded:
    Aberth's iteration costs about d^2 per sweep.  ``best`` holds the most
    precise certified roots any certification has produced, None until one
    has, with their ``records``.  None of it depends on the order, so a
    family seeds each polynomial once and branches each root once per
    ``best``; a later pass takes ``best`` and its records as they are or,
    above its precision, starts Newton at it.  The headroom ``slope`` and a
    failed seeding's error, which :func:`_root_entry` raises, are kept as
    well.  Beyond 64 polynomials the least recently used goes.
    """
    split = square_free_decomposition(poly)
    top = max((factor.degree for factor, _ in split), default=0)
    if top > MAX_SEED_DEGREE:
        return _RootEntry((), 0.0, NotAttemptedError(
            f"a degree-{top} factor is above the {MAX_SEED_DEGREE}-degree "
            f"seeding budget", "seeding budget"))
    try:
        factors = tuple((factor, factor.derivative(), mult,
                         *_laid_out(_seeds(factor)))
                        for factor, mult in split)
    except RootRefinementError as exc:
        return _RootEntry((), 0.0, exc)
    slope = 0.0
    for _, _, mult, seeds, _ in factors:
        for w in seeds:
            s = (w * w - 1) ** 0.5
            slope += mult * math.log2(max(abs(w + s), abs(w - s), 1.0))
    return _RootEntry(factors, slope)


def _root_entry(poly):
    """The root store's entry of ``poly``; a failed seeding raises again."""
    entry = _root_setup(poly)
    if entry.error is not None:
        raise entry.error.with_traceback(None)
    return entry


def _newton_step(poly, dpoly, z, prec):
    """The Newton step P(z) / P'(z) as (x, y, e), given P and ``dpoly`` = P'.

    One Horner pass evaluates P and P' on Python-int mantissas at ``prec``
    bits plus the :func:`_height` of P, whose terms cancel near a root,
    with z cut to that width by :func:`_fixed` and each value keeping its
    own exponent (a real z stays on real mantissas); the quotient takes one
    division, by P'(z) or by |P'(z)|^2, trimmed to that width.
    """
    prec += _height(poly)
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
        raise RootRefinementError(
            f"derivative vanished near {_show((zx, zy, ze))}")
    if zy == 0:
        shift = prec + dx.bit_length() - px.bit_length()
        x = (px << shift) // dx if shift >= 0 else (px >> -shift) // dx
        return x, 0, pe - de - shift
    rx, ry, f = _inverse(dx, dy, de, prec)
    k = rx * (px + py)
    return _trim(k - py * (rx + ry), k + px * (ry - rx), pe + f, prec)


def _newton_converge(poly, dpoly, z, bits):
    """Newton steps until one is below 2^-bits relative; returns (z, step).

    The iterates keep bits + 64 bits, and each step is evaluated with
    GUARD_BITS more.  The small step is returned, not applied: it bounds
    the distance from z to the root.
    """
    for _ in range(100):
        step = _newton_step(poly, dpoly, z, bits + 64 + GUARD_BITS)
        size, exp = _magnitude(step)
        if _at_most((size, exp + bits), _at_least_one(_magnitude(z))):
            return z, step
        z = _minus(z, step, bits + 64)
    raise RootRefinementError(
        f"Newton did not converge for {poly} near {_show(z)}")


def _newton_refine(poly, dpoly, z, start_bits, precision):
    """Refine ``z``, right to about ``start_bits`` bits, to a root of ``poly``.

    The steps climb a ladder of precisions doubling up to ``precision``:
    the lowest rung, at 1-2x ``start_bits``, iterates to convergence, each
    middle rung takes one step, and the top rung iterates until the step is
    below 2^-precision relative.  A rung at ``bits`` holds z at bits + 64
    bits.  The radius is four times that last step plus 2^(4-precision)
    max(1, |z|), rounded up to 24 bits, as (m, e); z and the root are
    triples.
    """
    ladder = [precision]
    while ladder[-1] > 2 * start_bits:
        ladder.append((ladder[-1] + 1) // 2)
    ladder.reverse()
    step = (0, 0, 0)
    for bits in ladder:
        z = _minus(z, step, bits + 64)
        if bits in (ladder[0], precision):
            z, step = _newton_converge(poly, dpoly, z, bits)
        else:
            step = _newton_step(poly, dpoly, z, bits + 64 + GUARD_BITS)
    size, exp = _magnitude(step)
    floor, floor_exp = _at_least_one(_magnitude(z))
    return z, _round_up(*_plus((size, exp + 2),
                               (floor, floor_exp + 4 - precision)), 24)


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
    for factor, dfactor, mult, seeds, mirrors in _root_entry(poly).factors:
        if previous is None:
            starts, start_bits = map(_exact, seeds), 53   # a double
        else:
            starts = [z for z, m in zip(previous.roots,
                                        previous.multiplicities) if m == mult]
            start_bits = previous.working_precision
        refined = [None if i in mirrors else
                   _newton_refine(factor, dfactor, z, start_bits, precision)
                   for i, z in enumerate(starts)]
        for i in mirrors:
            (x, y, e), radius = refined[i - 1]
            refined[i] = (x, -y, e), radius
        for i, (zi, ri) in enumerate(refined):
            for (x, y, e), rj in refined[:i]:
                size, exp = _plus(ri, rj)
                if _at_most(_magnitude(_add(*zi, -x, -y, e)),
                            (size, exp + 4)):
                    raise RootRefinementError(
                        f"root iterates collapsed near {_show(zi)} for "
                        f"{factor}")
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
    prime, else Yun decomposition) and each square-free factor is seeded by
    :func:`_seeds` and refined by Newton on integer mantissas, once per
    conjugate pair.  Raises :class:`RootRefinementError` when seeding
    fails, refinement stalls or two iterates collapse onto one root, and
    :class:`NotAttemptedError` for a factor above MAX_SEED_DEGREE.
    """
    if poly.degree < 1:
        raise ValueError("find_roots requires a nonconstant polynomial")
    return _refine_roots(poly, precision)


def _roots_at(poly, bits):
    """The root store's roots of ``poly`` if at least ``bits`` precise, else
    Newton's at ``bits`` from them, or :func:`find_roots`'s; not stored."""
    best = _root_entry(poly).best
    if best is not None and best.working_precision >= bits:
        return best
    return (find_roots(poly, bits) if best is None
            else _refine_roots(poly, bits, best))


def _stored_roots(poly, bits):
    """The root store's records of ``poly``, its roots certified at ``bits``.

    :func:`find_roots` refines the seeds the first time.  Later, the stored
    roots and records are served as they are when at least that precise
    (the product reads no radius, and :func:`_ladder` cuts each pair to its
    width); otherwise Newton starts at them, and its roots and their
    records replace them, at ``bits`` rounded up to a multiple of
    ROOT_GRID_BITS, so that the next orders of an ascending sweep are
    served.  The roots keep the seeds' layout, so each mirror is skipped
    and its representative, the root before it, stands for the pair: a
    real polynomial's value at the mirror is the conjugate of its value
    there.
    """
    bits = -(-bits // ROOT_GRID_BITS) * ROOT_GRID_BITS
    entry, best = _root_entry(poly), _roots_at(poly, bits)
    if best is not entry.best:
        prec = bits + GUARD_BITS
        layout = ((mult, i in mirrors, i + 1 in mirrors)
                  for _, _, mult, seeds, mirrors in entry.factors
                  for i in range(len(seeds)))
        records = []
        for w, (mult, mirror, paired) in zip(best.roots, layout):
            if not mirror:
                b = _branch(w, prec)
                records.append(((b, _inverse(*b, prec)), mult, paired))
        entry.best, entry.records = best, tuple(records)
    return entry.records


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
    bits = math.log2(n) + 8 + n * sum(_root_entry(poly).slope
                                      for poly in polys)
    return int(bits) + 1


def _integer_near(value, bits):
    """The integer within 2^-20 of ``value`` = (m, e), m 2^e, or None.

    None also when |value| >= 2^(bits - 21): at ``bits`` bits such a value
    is a multiple of 2^-20, so that pass cannot resolve 2^-20.  The nearest
    integer is floor(value + 1/2), by one shift; a tie is never within
    2^-20 of it.
    """
    m, e = value
    if abs(m).bit_length() + e >= bits - INTEGRALITY_TOL_BITS:
        return None
    if e >= 0:
        return m << e
    k = (m + (1 << (-e - 1))) >> -e
    return k if abs(m - (k << -e)) << INTEGRALITY_TOL_BITS < 1 << -e else None


def _certified_integer(evaluate, divisor, initial_bits, what):
    """Escalating-precision evaluation of a product that must be an integer.

    ``evaluate(bits)`` gives the product at ``bits`` bits as (m, e), m 2^e.
    One chain evaluates bits, 2 bits, 4 bits, ... once each, from
    ``initial_bits`` (at least 128): the value at a precision up to
    MAX_CERTIFY_BITS is a candidate when it is within 2^-20 of a positive
    integer divisible by ``divisor``, and is accepted when the next
    evaluation, at twice the precision, reproduces it; a disagreeing next
    value is itself the next candidate.  A pass that cannot resolve 2^-20
    is no candidate, so it takes no confirm pass, and a start above the cap
    raises :class:`NotAttemptedError`.  Each rejected precision and its
    cause is logged at DEBUG level, with the escalation that follows or,
    past the cap, the give-up.
    """
    bits = max(initial_bits, 128)
    if bits > MAX_CERTIFY_BITS:
        raise NotAttemptedError(
            f"{what} not attempted: needs about {bits} bits, above the "
            f"{MAX_CERTIFY_BITS}-bit cap", "cap")

    def rejected(at, cause):
        import logging      # only an escalation pays its import
        then = (f"escalating to {2 * at} bits" if 2 * at <= MAX_CERTIFY_BITS
                else f"giving up at the {MAX_CERTIFY_BITS}-bit cap")
        logging.getLogger(__name__).debug("%s at %d bits: %s; %s",
                                          what, at, cause, then)

    candidate = None
    while bits <= MAX_CERTIFY_BITS or candidate is not None:
        try:
            value, failure = _integer_near(evaluate(bits), bits), None
        except RootRefinementError as exc:
            value, failure = None, f"root refinement failed: {exc}"
        if candidate is not None:
            if value == candidate:
                return candidate // divisor
            rejected(bits // 2, failure
                     or f"the confirm pass at {bits} bits disagreed")
            candidate = None
        if bits <= MAX_CERTIFY_BITS:
            if value is not None and value > 0 and value % divisor == 0:
                candidate = value
            else:
                rejected(bits, failure or (
                    f"not within 2^-{INTEGRALITY_TOL_BITS} of a positive "
                    f"multiple of {divisor}"))
        bits *= 2
    raise CertificationError(
        f"{what} failed to certify as an integer below {MAX_CERTIFY_BITS} bits")


def tau_even(spec):
    """Spanning-tree count of an even-valency spec, certified: (n/q) *
    prod |2 T_n(w_p) - 2| over the roots of P, as an integer."""
    return _certified_product(spec, diagonal=False)


def tau_odd(spec):
    """Spanning-tree count of a diagonal spec at half-order n, certified:
    (n/2q) * prod (2 T_n(w_p) - 2) * prod (2 T_n(v_r) + 2) over the roots
    w_p of P and v_r of P_odd + 1, as an integer."""
    return _certified_product(spec, diagonal=True)


def _product(factors, n, bits):
    """n prod (2 T_n(w) + shift) over the roots w of each (polynomial,
    shift) of ``factors``, from the root store at ``bits`` bits, as (x, y, e).

    A pair's representative contributes the squared modulus of its value.
    Each factor and the running product are cut to bits + GUARD_BITS bits.
    """
    prec = bits + GUARD_BITS
    px, py, pe = n, 0, 0
    for poly, shift in factors:
        for pair, mult, paired in _stored_roots(poly, bits):
            x, y, e = _ladder(pair, n, prec)
            x, y, e = _add(x, y, e + 1, shift, 0, 0)
            if paired:
                x, y, e = _trim(x * x + y * y, 0, 2 * e, prec)
            for _ in range(mult):
                if y:
                    px, py = px * x - py * y, px * y + py * x
                else:
                    px, py = px * x, py * x
                px, py, pe = _trim(px, py, pe + e, prec)
    return px, py, pe


@lru_cache(maxsize=64)
def _product_factors(steps, diagonal):
    """(factors, divisor) of the certified product of a step set.

    ``factors`` holds each nonconstant (polynomial, shift): (P, -2), and
    (P_odd + 1, 2) for the diagonal family; the divisor is q, or 2q.
    Neither depends on the order, so a family builds them once.
    """
    divisor = sum(s * s for s in steps)
    factors = [(build_even_char(steps), -2)]
    if diagonal:
        divisor *= 2
        factors.append((build_odd_char(steps) + 1, 2))
    return (tuple((poly, shift) for poly, shift in factors
                  if poly.degree >= 1), divisor)


def factor_roots(steps, diagonal, precision):
    """The roots of each polynomial of a step set's certified product, as
    :func:`_roots_at` gives them at ``precision`` bits: not stored back."""
    return tuple(_roots_at(poly, precision)
                 for poly, _ in _product_factors(steps, diagonal)[0])


def _certified_product(spec, diagonal):
    """The certified product of :func:`tau_even` or :func:`tau_odd`.

    Each (polynomial, shift) factor contributes 2 T_n(w) + shift over the
    roots w of its polynomial; the product starts at n and must be a
    multiple of q (even) or 2q (diagonal).  The diagonal product is signed,
    so a negative value fails; the even one is certified in absolute value.
    A failure to seed the roots raises :class:`CertificationError`, as a
    failure at every precision does; a factor above the seeding budget, or
    a start above the cap, raises :class:`NotAttemptedError`.
    """
    if spec.diagonal != diagonal:
        wanted = "diagonal" if diagonal else "even-valency"
        raise ValueError(f"{spec} is not a {wanted} spec")
    require_connected(spec)
    n = spec.order
    factors, divisor = _product_factors(tuple(spec.steps), diagonal)

    def evaluate(bits):
        x, y, e = _product(factors, n, bits)
        if not _at_most((abs(y), e + INTEGRALITY_TOL_BITS + 2),
                        _at_least_one((abs(x), e))):
            raise RootRefinementError(
                f"product has stray imaginary part {_show((0, y, e))}")
        return (x if diagonal else abs(x)), e

    what = f"{'tau_odd' if diagonal else 'tau_even'}({spec})"
    try:
        start = 128 + _headroom_bits([poly for poly, _ in factors], n)
    except RootRefinementError as exc:
        raise CertificationError(
            f"{what} failed to seed its roots: {exc}") from exc
    return _certified_integer(evaluate, divisor, start, what)
