"""Output checks for the benchmark that share no code with circtrees.

Spanning-tree counts are checked with the matrix-tree theorem over a prime
field.  A circulant graph on N vertices has Laplacian eigenvalues

    lambda_j = 2k - sum_s (w^{js} + w^{-js})      (+ 2 for odd j, diagonal)

with w a primitive N-th root of unity and k the number of ordinary steps,
and N * tau = prod_{j=1}^{N-1} lambda_j.  For a prime p = 1 (mod N), GF(p)
holds a primitive N-th root of unity, so the product can be taken mod p in
O(N k) operations: tau = N^{-1} prod lambda_j (mod p).  Several primes of
about 61 bits each make a wrong count pass with negligible probability.

The other checks re-derive the proven square-free coefficient of
tau = c n a^2 and a double-precision Mahler measure from the step set.
"""

import math

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def square_free_part(m):
    q, f = 1, 2
    while f * f <= m:
        e = 0
        while m % f == 0:
            m //= f
            e += 1
        if e % 2:
            q *= f
        f += 1
    return q * m


def vertex_count(n, diagonal):
    return 2 * n if diagonal else n


def is_connected(steps, n):
    """Whether the family of ``steps`` is connected at order n (either family)."""
    return math.gcd(math.gcd(*steps), n) == 1


def family_orders(steps, diagonal, n_max):
    """Connected orders up to n_max at which the family keeps its shape."""
    first = max(steps) + 1 if diagonal else 2 * max(steps) + 1
    return [n for n in range(first, n_max + 1)
            if is_connected(steps, n)]


class ResidueCheck:
    """tau mod p by the matrix-tree product over N-th roots of unity."""

    PRIMES = 3
    BITS = 61

    def __init__(self):
        self._fields = {}

    def fields(self, N):
        """(p, w) pairs: primes p = 1 (mod N) with a primitive N-th root w."""
        if N not in self._fields:
            factors = prime_factors(N)
            out = []
            p = (2 ** self.BITS // N) * N + 1
            while len(out) < self.PRIMES:
                if is_prime(p):
                    for g in range(2, p):
                        w = pow(g, (p - 1) // N, p)
                        if all(pow(w, N // r, p) != 1 for r in factors):
                            out.append((p, w))
                            break
                p += N
            self._fields[N] = out
        return self._fields[N]

    @staticmethod
    def residue(N, steps, diagonal, p, w):
        """prod_{j=1}^{N-1} lambda_j / N mod p, using lambda_j = lambda_{N-j}."""
        powers = [1] * N
        for i in range(1, N):
            powers[i] = powers[i - 1] * w % p
        k2 = 2 * len(steps)
        half = N // 2
        prod = 1
        for j in range(1, (N - 1) // 2 + 1):
            lam = k2
            for s in steps:
                lam -= powers[j * s % N] + powers[-j * s % N]
            if diagonal and j % 2:
                lam += 2
            prod = prod * lam * lam % p
        if N % 2 == 0:
            lam = k2
            for s in steps:
                lam -= 2 * powers[half * s % N]
            if diagonal and half % 2:
                lam += 2
            prod = prod * lam % p
        return prod * pow(N, -1, p) % p

    def matches(self, tau, steps, n, diagonal):
        """True when ``tau`` agrees with the residue product at every prime."""
        N = vertex_count(n, diagonal)
        return all(tau % p == self.residue(N, steps, diagonal, p, w)
                   for p, w in self.fields(N))


def expected_coefficient(steps, n, diagonal):
    """Square-free c in tau = c n a^2, from step parities and parity of n."""
    odd = sum(1 for s in steps if s % 2)
    if diagonal:
        return square_free_part(2 * odd + 1 if n % 2 else 2 * odd)
    return 1 if n % 2 else square_free_part(odd)


def decomposition_ok(tau, steps, n, diagonal, c, a):
    return c == expected_coefficient(steps, n, diagonal) and tau == c * n * a * a


def _image(steps, shift):
    """Coefficients, highest degree first, of z^{s_k} (2k + shift - sum ...)."""
    smax = max(steps)
    coeffs = [0] * (2 * smax + 1)
    coeffs[smax] = 2 * len(steps) + shift
    for s in steps:
        coeffs[smax + s] -= 1
        coeffs[smax - s] -= 1
    return coeffs[::-1]


def _divide_by_z_minus_1(coeffs):
    out, acc = [], 0
    for c in coeffs:
        acc += c
        out.append(acc)
    if out.pop() != 0:
        raise ArithmeticError("z = 1 is not a root")
    return out


def mahler_measure(steps, diagonal):
    """Mahler measure of L (times that of L + 2 for the diagonal family).

    The steps are divided by their gcd, which leaves the measure unchanged,
    and the double root of L at z = 1 is divided out exactly, so every
    remaining root is simple and off the unit circle.
    """
    d = math.gcd(*steps)
    steps = [s // d for s in steps]
    polys = [_divide_by_z_minus_1(_divide_by_z_minus_1(_image(steps, 0)))]
    if diagonal:
        polys.append(_image(steps, 2))
    measure = 1.0
    for coeffs in polys:
        measure *= abs(coeffs[0])
        if len(coeffs) > 1:
            for r in np.roots(np.array(coeffs, dtype=float)):
                measure *= max(1.0, abs(r))
    return measure


def growth_ratio(tau, steps, n, diagonal, measure):
    """tau q / (n d^2 M^n), with 2q in place of q for the diagonal family."""
    q = sum(s * s for s in steps) * (2 if diagonal else 1)
    d = math.gcd(*steps)
    return math.exp(math.log(tau) + math.log(q) - math.log(n)
                    - 2 * math.log(d) - n * math.log(measure))
