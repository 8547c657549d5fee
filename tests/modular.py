"""Spanning-tree counts of circulant graphs modulo primes, by the
matrix-tree theorem on the Laplacian's eigenvalues.

A circulant graph on N vertices has Laplacian eigenvalues
lambda_j = sum over its connection set S of (1 - omega^(j s)), j = 0..N-1,
with omega a primitive N-th root of unity, and N tau = prod_{j>0} lambda_j.
For a prime p = 1 (mod N), F_p holds such an omega, so tau mod p takes
N - 1 products in F_p: no polynomial, no resultant and no size limit, and
no code shared with the package.
"""


def is_prime(m):
    """Miller-Rabin with the first twelve primes as bases: exact below
    3.3 * 10^23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2:
        return False
    for b in bases:
        if m % b == 0:
            return m == b
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primes_one_mod(n, count, bits=61):
    """The ``count`` smallest primes p = 1 (mod n) with p >= 2^(bits - 1)."""
    primes = []
    p = ((1 << (bits - 1)) // n + 1) * n + 1
    while len(primes) < count:
        if is_prime(p):
            primes.append(p)
        p += n
    return primes


def prime_factors(n):
    factors, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    return factors | ({n} if n > 1 else set())


def root_of_unity(n, p):
    """A primitive n-th root of unity modulo the prime p = 1 (mod n)."""
    for g in range(2, p):
        omega = pow(g, (p - 1) // n, p)
        if all(pow(omega, n // r, p) != 1 for r in prime_factors(n)):
            return omega
    raise ValueError(f"no primitive {n}-th root of unity modulo {p}")


def tau_mod(vertices, connections, p):
    """tau mod p of the circulant graph on ``vertices`` vertices whose
    vertex i is joined to i + s for each s of ``connections`` (a diagonal
    step appears once, every other step with its negative)."""
    omega = root_of_unity(vertices, p)
    powers = [1] * vertices
    for k in range(1, vertices):
        powers[k] = powers[k - 1] * omega % p
    product = 1
    for j in range(1, vertices):
        eigenvalue = sum(1 - powers[j * s % vertices] for s in connections)
        product = product * eigenvalue % p
    return product * pow(vertices, -1, p) % p


def spec_tau_mod(spec, p):
    """tau mod p of a ``CirculantSpec``."""
    connections = [t for s in spec.steps for t in (s, -s)]
    if spec.diagonal:
        connections.append(spec.order)
    return tau_mod(spec.vertex_count, connections, p)
