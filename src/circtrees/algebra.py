"""Exact spanning-tree counts of circulant families over the integers.

The count of a connected circulant graph is a product over the roots of an
integer polynomial (see :mod:`circtrees.chebyshev` for its Chebyshev form),
and so the norm of an algebraic integer.  :func:`tau_closed_form`, the
method of record, takes that norm on the half-degree forms in x = z + 1/z,
as a resultant by the subresultant sequence of V_n(x) = z^n + z^-n reduced
by a Lucas ladder.  It shares no elimination code with the determinant
oracle: no floating point, no precision and no size limit.
:class:`IntPolynomial` carries the integer polynomial arithmetic it needs.
"""

import math
from functools import lru_cache

from .errors import DisconnectedGraphError, InternalConsistencyError
from .graph import component_count


class IntPolynomial:
    """Dense univariate polynomial with arbitrary-precision integer coefficients.

    Coefficients are stored lowest degree first; the leading coefficient is
    nonzero except for the zero polynomial, which has an empty tuple.
    Instances are immutable and support +, -, * (with ints or polynomials),
    exact division, and evaluation at anything Horner's rule accepts.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def derivative(self):
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self):
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive(self):
        """Divide out the content; sign of the leading coefficient is kept."""
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial([c // g for c in self.coeffs])

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, float and complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_exact(self, divisor):
        """Quotient and remainder by long division over the integers.

        Raises :class:`InternalConsistencyError` when a quotient coefficient
        is not a multiple of the divisor's leading coefficient; used only
        where the division is exact by construction (a divisor with leading
        coefficient +-1, or a primitive factor).
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = divisor.coeffs
        dd = len(dv) - 1
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            f, r = divmod(rem[i], dv[-1])
            if r:
                raise InternalConsistencyError(
                    f"non-integer quotient dividing {self} by {divisor}")
            quot[i - dd] = f
            if f:
                for j, d in enumerate(dv):
                    rem[i - dd + j] -= f * d
        return IntPolynomial(quot), IntPolynomial(rem[:dd])

    def div_exact(self, divisor):
        """Exact quotient; the remainder must vanish."""
        q, r = self.divmod_exact(divisor)
        if not r.is_zero:
            raise InternalConsistencyError(
                f"nonzero remainder {r} dividing {self} by {divisor}")
        return q

    def __repr__(self):
        terms = [f"{c}*w^{i}" if i > 1 else f"{c}*w" if i else str(c)
                 for i, c in enumerate(self.coeffs) if c]
        return "IntPolynomial(" + (" + ".join(terms) or "0") + ")"


_X = IntPolynomial([0, 1])


def require_connected(spec):
    """Raise :class:`DisconnectedGraphError` unless ``spec`` is connected."""
    if component_count(spec) != 1:
        raise DisconnectedGraphError(
            f"steps {spec.steps} give a disconnected graph at order "
            f"{spec.order}", spec=spec)


def ordinary_image(steps, shift=0):
    """IntPolynomial image z^{s_k} * (2k + shift - sum_i (z^{s_i}+z^{-s_i}))."""
    smax = max(steps)
    coeffs = [0] * (2 * smax + 1)
    coeffs[smax] = 2 * len(steps) + shift
    for s in steps:
        coeffs[smax + s] -= 1
        coeffs[smax - s] -= 1
    return IntPolynomial(coeffs)


def _exact_quotient(x, y):
    """x / y for integers that must divide exactly."""
    q, r = divmod(x, y)
    if r:
        raise InternalConsistencyError(f"{y} does not divide {x}")
    return q


def _pseudo_remainder(a, b):
    """lead(b)^(deg a - deg b + 1) a mod b, for deg a >= deg b, by no division.

    Each of the deg a - deg b + 1 steps takes r to lead(b) r - c z^k b,
    with c the coefficient of r at the next degree down, deg b + k, even
    when c is 0.  CPython divides big integers in quadratic time but
    multiplies them by Karatsuba.
    """
    r, lead, low = list(a.coeffs), b.leading, b.coeffs[:-1]
    for k in range(a.degree - b.degree, -1, -1):
        c = r.pop()
        r = [lead * x for x in r]
        if c:
            for j, y in enumerate(low, k):
                r[j] -= c * y
    return IntPolynomial(r)


def _resultant(a, b):
    """Res(a, b), the determinant of the Sylvester matrix; 0 if either is 0.

    Collins' subresultant sequence (Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 3.3.7, without contents) on
    :func:`_pseudo_remainder`: every division is exact, and checked.
    """
    if a.is_zero or b.is_zero:
        return 0
    if a.degree < b.degree:
        return (-1) ** (a.degree * b.degree) * _resultant(b, a)
    g = h = sign = 1
    while b.degree > 0:
        delta = a.degree - b.degree
        sign *= (-1) ** (a.degree * b.degree)
        r = _pseudo_remainder(a, b)
        den = g * h ** delta
        a, b = b, IntPolynomial([_exact_quotient(c, den) for c in r.coeffs])
        g = a.leading
        h = _exact_quotient(g ** delta * h, h ** delta)
    return sign * _exact_quotient(b.leading ** a.degree * h, h ** a.degree)


@lru_cache(maxsize=64)
def _half_images(steps):
    """(Q~, Q~_2) of a step set by V_0 = 2, V_1 = x, V_{s+1} = x V_s - V_{s-1}:
    Q~ = (2k - sum_j V_{s_j}) / (x - 2) and Q~_2 = 2k + 2 - sum_j V_{s_j}."""
    lucas = [IntPolynomial([2]), _X]
    while len(lucas) <= steps[-1]:
        lucas.append(_X * lucas[-1] - lucas[-2])
    image = 2 * len(steps) - sum((lucas[s] for s in steps), IntPolynomial([]))
    return image.div_exact(IntPolynomial([-2, 1])), image + 2


def _lucas_norm(modulus, n, shift):
    """|prod (V_n(x) + shift)| over the roots x of ``modulus`` (leading
    coefficient +-1; a constant has no roots: norm 1), as |Res(modulus, V_n +
    shift)|, with V_n mod ``modulus`` found over the integers by the ladder
    on (V_m, V_{m+1}): V_2m = V_m^2 - 2 and V_2m+1 = V_m V_{m+1} - x."""
    if abs(modulus.leading) != 1:
        raise InternalConsistencyError(
            f"{modulus} does not have leading coefficient +-1")
    pair = [IntPolynomial([2]), _X]
    for bit in map(int, bin(n)[2:]):
        middle = pair[0] * pair[1] - _X
        pair[bit] = pair[bit] * pair[bit] - 2
        pair[1 - bit] = middle
        pair = [v.divmod_exact(modulus)[1] for v in pair]
    return abs(_resultant(modulus, pair[0] + shift))


def tau_closed_form(spec):
    """Spanning-tree count of ``spec``, exactly.

    Write p_L = z^{s_k} L(z) = -(z - 1)^2 Q(z) and Q_2 = z^{s_k} (L + 2),
    both palindromic, and Q~, Q~_2 for their half forms in x = z + 1/z.
    The roots r, 1/r of a root x give (r^n - 1)(r^-n - 1) = 2 - V_n(x), so
    the products of :func:`~circtrees.chebyshev.tau_even` and
    :func:`~circtrees.chebyshev.tau_odd` at the order n of ``spec`` (the
    half-order for the diagonal family) are the norms

        even:     tau = n |Res(Q~, V_n - 2)| / q
        diagonal: tau = n |Res(Q~, V_n - 2)| |Res(Q~_2, V_n + 2)| / 2q

    A disconnected spec raises :class:`DisconnectedGraphError`; a count
    that is not a positive multiple of q (2q) raises
    :class:`InternalConsistencyError`.  Other orders of a family are counted
    from their own specs (:func:`~circtrees.arithmetic.family_spec`).
    """
    require_connected(spec)
    n, steps = spec.order, tuple(spec.steps)
    q = sum(s * s for s in steps)
    half, shifted = _half_images(steps)
    count = n * _lucas_norm(half, n, -2)
    if spec.diagonal:
        q *= 2
        count *= _lucas_norm(shifted, n, 2)
    tau, rest = divmod(count, q)
    if tau <= 0 or rest:
        raise InternalConsistencyError(
            f"norm product {count} of {spec} at order {n} is not a positive "
            f"multiple of {q}")
    return tau
