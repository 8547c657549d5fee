"""Each rounding that :mod:`circtrees.dyadic` states, checked exactly.

A triple (x, y, e) stands for (x + iy) 2^e and a bound (m, e) for m 2^e;
here both become :class:`fractions.Fraction` values with no rounding, so
every stated direction and bound (and the ladder's of
:mod:`circtrees.chebyshev`) is compared with the exact value of the
arguments.  The branch b = w + sqrt(w^2 - 1) is irrational, so its
reference takes integer square roots of Fractions at four times the
precision under test plus 64 bits.  Mantissas have up to 300 bits,
exponents span -400..400 and precisions 8..200 bits; examples are
derandomized.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circtrees.chebyshev import _ladder
from circtrees.dyadic import (_add, _at_least_one, _at_most, _branch, _exact,
                              _fixed, _float, _inverse, _magnitude, _minus,
                              _plus, _round_up, _show, _sqrt, _trim)

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=200)

mantissa = st.integers(-(1 << 300), 1 << 300)
exponent = st.integers(-400, 400)
prec_st = st.integers(8, 200)
triples = st.tuples(mantissa, mantissa, exponent)
bounds = st.tuples(st.integers(0, 1 << 300), exponent)


def value(z):
    """The triple ``z`` exactly, as a pair of Fractions."""
    x, y, e = z
    scale = Fraction(2) ** e
    return x * scale, y * scale


def number(a):
    """The bound ``a`` = (m, e) exactly, as a Fraction."""
    m, e = a
    return m * Fraction(2) ** e


def norm(a, b=(0, 0)):
    """|a - b|^2 for two pairs of Fractions."""
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def times(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def power(a, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = times(out, a)
    return out


def largest_bits(z):
    return max(z[0].bit_length(), z[1].bit_length())


def carried(z, prec):
    """Whether a part of ``z`` is -2^prec, as 0 or 1."""
    return int(-(1 << prec) in z[:2])


def assert_cut_toward_minus_infinity(exact, cut):
    """Each part of the triple ``cut`` is below that of ``exact`` (a pair
    of Fractions) by less than 2^f, f its exponent."""
    ulp = Fraction(2) ** cut[2]
    for want, got in zip(exact, value(cut)):
        assert 0 <= want - got < ulp


@PROPERTY
@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_exact_is_exact(w):
    assert value(_exact(w)) == (Fraction(w.real), Fraction(w.imag))


@PROPERTY
@given(triples, prec_st)
def test_trim_and_fixed_cut_toward_minus_infinity(z, prec):
    x, y, e = z
    assume(x or y)
    top = max(x.bit_length(), y.bit_length())
    trimmed = _trim(*z, prec)
    fixed = _fixed(z, prec)
    assert_cut_toward_minus_infinity(value(z), trimmed)
    assert_cut_toward_minus_infinity(value(z), fixed)
    # a negative part cut to -2^prec has prec + 1 bits
    assert largest_bits(trimmed) == min(top, prec) + carried(trimmed, prec)
    assert largest_bits(fixed) == prec + carried(fixed, prec)
    bound = Fraction(2) ** (2 * (2 - prec)) * norm(value(z))
    assert norm(value(z), value(trimmed)) < bound
    assert norm(value(z), value(fixed)) < bound
    if top <= prec:
        assert trimmed == z and value(fixed) == value(z)


@PROPERTY
@given(triples, triples, prec_st)
def test_minus_cuts_the_exact_difference(z, step, prec):
    exact = value(_add(*z, -step[0], -step[1], step[2]))
    got = _minus(z, step, prec)
    assert_cut_toward_minus_infinity(exact, got)
    assert largest_bits(got) <= prec + carried(got, prec)


@PROPERTY
@given(st.tuples(st.integers(-(1 << 80), 1 << 80),
                 st.integers(-(1 << 80), 1 << 80), st.integers(-1100, 1000)))
def test_show_prints_the_53_bit_cut(z):
    trimmed = _trim(*z, 53)
    shown = _show(z)
    try:
        parsed = complex(shown)
    except ValueError:      # beyond the float range: the triple itself
        assert shown == f"({trimmed[0]} + {trimmed[1]}j) 2^{trimmed[2]}"
        return
    if max(map(abs, trimmed[:2])).bit_length() + trimmed[2] > -1020:
        assert (Fraction(parsed.real), Fraction(parsed.imag)) \
            == value(trimmed)


@PROPERTY
@given(triples, prec_st)
def test_inverse_is_within_its_bound(z, prec):
    x, y, e = z
    assume(x or y)
    inverse = (Fraction(x), -Fraction(y))
    inverse = tuple(part / norm(value(z)) * Fraction(2) ** e
                    for part in inverse)
    got = _inverse(*z, prec)
    assert norm(inverse, value(got)) \
        < Fraction(2) ** (2 * (3 - prec)) * norm(inverse)


@PROPERTY
@given(st.integers(-(1 << 200), 1 << 200).filter(bool), exponent, prec_st)
def test_inverse_of_a_short_real_rounds_toward_minus_infinity(x, e, prec):
    assume(x.bit_length() <= prec)
    got = _inverse(x, 0, e, prec)
    assert got[1] == 0
    assert_cut_toward_minus_infinity((1 / number((x, e)), 0), got)


@PROPERTY
@given(bounds, prec_st)
def test_sqrt_rounds_toward_minus_infinity(a, prec):
    root, f = _sqrt(*a, prec)
    square = number(a)
    assert number((root, f)) ** 2 <= square < number((root + 1, f)) ** 2
    if a[0]:
        assert Fraction(4) ** (f + prec) < square


@PROPERTY
@given(triples, triples)
def test_add_plus_and_comparisons_are_exact(z, w):
    total = value(_add(*z, *w))
    assert total == tuple(a + b for a, b in zip(value(z), value(w)))
    a, b = (abs(z[0]), z[2]), (abs(w[0]), w[2])
    assert number(_plus(a, b)) == number(a) + number(b)
    assert _at_most(a, b) == (number(a) <= number(b))
    assert number(_at_least_one(a)) == max(1, number(a))


@PROPERTY
@given(bounds, st.integers(1, 64))
def test_round_up_rounds_up(a, bits):
    m, e = _round_up(*a, bits)
    assert m.bit_length() <= bits
    assert 0 <= number((m, e)) - number(a) < Fraction(2) ** e
    if a[0].bit_length() <= bits:
        assert (m, e) == a


@PROPERTY
@given(triples)
def test_magnitude_rounds_up_within_its_bound(z):
    m, e = _magnitude(z)
    assert m < 1 << 24
    square = norm(value(z))
    if not square:
        assert (m, e) == (0, 0)
        return
    assert square <= number((m, e)) ** 2 \
        < square * (1 + Fraction(1, 2 ** 20)) ** 2


@PROPERTY
@given(st.integers(0, 1 << 120), st.integers(-1200, 900))
def test_float_rounds_to_nearest(m, e):
    exact = number((m, e))
    try:
        got = _float(m, e)
    except OverflowError:
        assert exact >= 2 ** 1024 * (1 - Fraction(1, 2 ** 54))
        return
    error = abs(Fraction(got) - exact)
    for neighbour in (math.nextafter(got, 0), math.nextafter(got, math.inf)):
        if math.isfinite(neighbour):
            assert error <= abs(Fraction(neighbour) - exact)
    if got >= 2.0 ** -1022:
        assert error <= exact / 2 ** 53


def square_root(q, bits):
    """sqrt(q) for a Fraction q >= 0, from below, within 2^-bits relative."""
    n, d = q.numerator, q.denominator
    k = bits + d.bit_length() + 2
    return Fraction(math.isqrt(n * d << 2 * k), d << k)


def branch_reference(w, prec):
    """b = w' + s and 1/b = w' - s, s = sqrt(w'^2 - 1) with Re(w' conj s)
    >= 0, w' = _fixed(w, prec), to 4 prec + 64 bits."""
    bits = 4 * prec + 64
    a, c = value(_fixed(w, prec))
    u = (a * a - c * c - 1, 2 * a * c)
    r = square_root(norm(u), bits)
    t = square_root((r + abs(u[0])) / 2, bits)
    if t == 0:
        s = (Fraction(0), Fraction(0))
    elif u[0] >= 0:
        s = (t, u[1] / (2 * t))
    else:
        s = (abs(u[1]) / (2 * t), t if u[1] >= 0 else -t)
    if a * s[0] + c * s[1] < 0:
        s = (-s[0], -s[1])
    return (a + s[0], c + s[1]), (a - s[0], c - s[1])


@st.composite
def branch_points(draw):
    """w anywhere, near +-1, or real within [-1, 1], with a precision."""
    prec = draw(st.integers(8, 160))
    kind = draw(st.sampled_from(("any", "near one", "on the cut")))
    if kind == "any":
        return draw(triples), prec
    k = draw(st.integers(prec, prec + 60))
    if kind == "near one":
        x = draw(st.sampled_from((1, -1))) * ((1 << k)
                                              + draw(st.integers(-999, 999)))
        return (x, draw(st.integers(-999, 999)), -k), prec
    return (draw(st.integers(-(1 << k), 1 << k)), 0, -k), prec


@PROPERTY
@given(branch_points())
def test_branch_is_within_its_bound(case):
    w, prec = case
    assume(w[0] or w[1])
    got = _branch(w, prec)
    b, inverse = branch_reference(w, prec)
    bound = Fraction(2) ** (2 * (4 - prec)) * norm(b)
    if norm(value(got), b) >= bound:
        # only where |b| - 1 < 2^(4-prec) |b| too may it return 1/b
        assert norm(value(got), inverse) < bound
        assert norm(b) * (1 - Fraction(2) ** (4 - prec)) ** 2 < 1
    if w[1] == 0 and abs(value(_fixed(w, prec))[0]) >= 1:
        assert got[1] == 0


@st.composite
def ladder_cases(draw):
    """(b, n, prec) with |b| >= 1 and n 2^(6 - prec) <= 1/2."""
    n = draw(st.integers(1, 300))
    prec = draw(st.integers(max(16, n.bit_length() + 7), 160))
    k = prec + draw(st.integers(-2, 16))
    # one part of at least 1 in modulus, the other anything up to 3
    x = draw(st.sampled_from((1, -1))) * ((1 << k)
                                          + draw(st.integers(0, 2 << k)))
    y = draw(st.one_of(st.just(0), st.integers(-(3 << k), 3 << k)))
    x, y = draw(st.sampled_from(((x, y), (y, x))))
    return (x, y, -k), n, prec


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(ladder_cases())
def test_ladder_is_within_its_bound(case):
    b, n, prec = case
    pair = (b, _inverse(*b, prec + 64))     # 1/b right to prec + 61 bits
    bn = power(value(b), n)
    size = norm(bn)
    t_n = tuple((part + conj / size) / 2
                for part, conj in zip(bn, (bn[0], -bn[1])))
    got = _ladder(pair, n, prec)
    assert norm(value(got), t_n) <= (n * Fraction(2) ** (6 - prec)) ** 2 * size
