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
refines the roots at doubling precisions.  A per-process root store keeps,
per characteristic polynomial, the most precise certified roots any pass
has produced, and every later pass (at any order, the confirm pass and
escalations included) starts Newton there and certifies the roots again
at its own precision; escalations are logged at DEBUG level.
The polynomials are real, so each conjugate pair of roots costs one
refinement and one T_n: the second root is the exact conjugate of the
first, and the pair contributes the squared modulus of its one value.
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


def _to_mpc(w):
    if isinstance(w, Fraction):
        return mp.mpc(mp.mpf(w.numerator) / w.denominator)
    return mp.mpc(w)


def _magnitude(z):
    """|z| rounded up to 24 bits: a bound fit for a comparison or an error
    radius, and no full-precision square root."""
    lib, up = mp.libmp, mp.libmp.round_up
    re, im = (lib.mpf_pos(x, 24, up) for x in mp.mpc(z)._mpc_)
    square = lib.mpf_add(lib.mpf_mul(re, re), lib.mpf_mul(im, im), 24, up)
    return mp.make_mpf(lib.mpf_sqrt(square, 24, up))


def _norm(x):
    """x conj(x) = |x|^2, with no square root."""
    return x.real ** 2 + x.imag ** 2


def cheb_eval_large(w, n, precision=None):
    """T_n(w) in O(log n) multiplications via T_n(w) = (b^n + b^-n)/2.

    Here b = w + sqrt(w^2 - 1) on whichever square-root branch gives
    |b| >= 1, so b^n dominates and the reciprocal term cannot cancel
    catastrophically.  Runs at the caller's mpmath precision unless
    ``precision`` (bits) is given.
    """
    if precision is not None:
        with mp.workprec(precision):
            return cheb_eval_large(w, n)
    z = _to_mpc(w)
    s = mp.sqrt(z * z - 1)
    b = z + s
    if _magnitude(b) < 1:
        b = z - s
    # binary powering: mpmath's own b ** n takes exp(n log b) for large n
    bn = mp.mpc(1)
    for bit in bin(abs(n))[2:]:
        bn = bn ** 2            # squaring: three real products, not four
        if bit == "1":
            bn = bn * b
    return (bn + 1 / bn) / 2


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
    """One polynomial's entry in the root store of :func:`_root_setup`."""

    factors: tuple
    best: CertifiedRoots = None


@lru_cache(maxsize=64)
def _root_setup(poly):
    """The root store: what root finding keeps of ``poly`` in this process.

    ``factors`` holds one ``(factor, derivative, multiplicity, seeds)`` per
    square-free factor of ``poly``, ``seeds`` being its double-precision
    roots; ``best`` holds the most precise certified roots any
    certification has produced, None until one has.  Neither depends on the
    order, so a family evaluated at many orders and precisions factors and
    seeds each characteristic polynomial once, and Newton starts every later
    pass at a root.  Beyond 64 polynomials the least recently used goes.
    """
    return _RootEntry(tuple((factor, factor.derivative(), mult,
                             tuple(_double_precision_roots(factor)))
                            for factor, mult in square_free_decomposition(poly)))


def _newton_step(poly, dpoly, z):
    dv = dpoly(z)
    if dv == 0:
        raise RootRefinementError(f"derivative vanished near {z}")
    return poly(z) / dv


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


def _conjugate_mirrors(roots, precision):
    """{mirror index: representative index} over certified roots.

    A root with positive imaginary part whose exact conjugate is also among
    ``roots`` represents the pair, and that conjugate is its mirror.  Roots
    carry at most ``precision + 64`` bits, so conjugation there is exact.
    """
    with mp.workprec(precision + 64):
        where = {z: i for i, z in enumerate(roots)}
        return {where[c]: i for i, z in enumerate(roots)
                if z.imag > 0 and (c := mp.conj(z)) in where}


def _pair_representatives(cr):
    """(root, multiplicity, paired) for every root of ``cr`` but the mirrors.

    A paired root stands for itself and its conjugate: a real polynomial's
    value at the mirror is the conjugate of its value at the root.
    """
    mirrors = _conjugate_mirrors(cr.roots, cr.working_precision)
    paired = set(mirrors.values())
    return [(z, mult, i in paired) for i, (z, mult)
            in enumerate(zip(cr.roots, cr.multiplicities)) if i not in mirrors]


def _refine_roots(poly, precision, previous=None):
    """Certified roots of ``poly`` at ``precision`` bits.

    Newton starts from the double-precision seeds or, given ``previous``
    (certified roots of the same polynomial at any precision), from those
    roots.  Yun factors have distinct multiplicities, so a root's
    multiplicity names the factor it is refined on.  Factors are real, so
    only one root of each conjugate pair is refined; its mirror is its exact
    conjugate, with the same radius.
    """
    roots, radii, mults = [], [], []
    for factor, dfactor, mult, seeds in _root_setup(poly).factors:
        if previous is None:
            starts, start_bits = seeds, 53      # a double's mantissa
            mirrors = _seed_mirrors(seeds)
        else:
            starts = [z for z, m in zip(previous.roots,
                                        previous.multiplicities) if m == mult]
            start_bits = previous.working_precision
            mirrors = _conjugate_mirrors(starts, start_bits)
        refined = [None if i in mirrors else
                   _newton_refine(factor, dfactor, z, start_bits, precision)
                   for i, z in enumerate(starts)]
        with mp.workprec(precision + 64):
            for i, j in mirrors.items():
                z, radius = refined[j]
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
    """Roots of ``poly`` certified afresh at ``bits`` bits.

    Newton starts from the store's most precise roots of ``poly`` or, the
    first time the polynomial is seen, from its seeds through
    :func:`find_roots`; either way each root gets its radius from a Newton
    step at ``bits``.  The store keeps the result if it is more precise.
    """
    entry = _root_setup(poly)
    best = entry.best
    roots = (find_roots(poly, bits) if best is None
             else _refine_roots(poly, bits, best))
    if best is None or bits > best.working_precision:
        entry.best = roots
    return roots


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
        for _, _, mult, seeds in _root_setup(poly).factors:
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
    starting precision already above that cap is refused without an attempt.
    Each escalation and its cause is logged at DEBUG level.
    """
    tol = mp.mpf(2) ** (-INTEGRALITY_TOL_BITS)
    bits = max(initial_bits, 128)
    if bits > MAX_CERTIFY_BITS:
        raise CertificationError(
            f"{what} not attempted: needs about {bits} bits, above the "
            f"{MAX_CERTIFY_BITS}-bit cap")
    while bits <= MAX_CERTIFY_BITS:
        try:
            # rounding and comparison must run at full precision: the
            # candidate integer can need far more than the ambient 53 bits
            with mp.workprec(bits + 64):
                value = evaluate(bits)
                candidate = int(mp.nint(value))
                accepted = (candidate > 0 and candidate % divisor == 0
                            and abs(value - candidate) < tol)
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
        f"{what} failed to certify as an integer below {MAX_CERTIFY_BITS} bits")


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
        with mp.workprec(bits):
            product = mp.mpc(n)
            for poly, shift in factors:
                roots = _stored_roots(poly, bits)
                for w, mult, paired in _pair_representatives(roots):
                    x = 2 * cheb_eval_large(w, n) + shift
                    product *= (_norm(x) if paired else x) ** mult
            if abs(product.imag) > mp.mpf(2) ** (-INTEGRALITY_TOL_BITS - 2) \
                    * max(1, abs(product.real)):
                raise RootRefinementError(
                    f"product has stray imaginary part {product.imag}")
            return product.real if diagonal else abs(product.real)

    start = 128 + _headroom_bits([poly for poly, _ in factors], n)
    what = f"{'tau_odd' if diagonal else 'tau_even'}({spec})"
    return _certified_integer(evaluate, divisor, start, what)
