"""The three benchmark workloads: inputs, the program call, and its check.

Each workload yields *passes*: lists of operations drawn from a seeded
random generator, stratified so that every pass has the same shape (the
same step-set sizes, families and order bands, with the remaining choices
random).  A run measures whole passes, so runs with different seeds do the
same kind and amount of work per pass and their figures can be compared.

An operation is one :class:`Op`.  ``run`` calls the program and returns
its output; ``check`` decides, without using circtrees, whether that output
is right.  Outputs are kept until the timed section ends and checked then.
"""

import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass

import checks


@dataclass
class Op:
    """One benchmark operation on the step set ``steps`` of one family.

    ``orders`` are the orders (half-orders for the diagonal family) whose
    counts the operation produces; ``argv`` is set for CLI operations.
    """

    kind: str
    steps: tuple
    diagonal: bool
    orders: tuple
    argv: tuple = ()

    @property
    def family(self):
        return "diagonal" if self.diagonal else "even"

    @property
    def max_vertices(self):
        return max(checks.vertex_count(n, self.diagonal) for n in self.orders)


def _random_steps(rng, s_max):
    """A step set with largest step s_max and random smaller steps."""
    return tuple(s for s in range(1, s_max) if rng.random() < 0.5) + (s_max,)


def _steps(rng, s_max, size):
    """A random step set of ``size`` steps, the largest s_max, with gcd 1.

    Its family is connected at every order, and step sets of one size and
    largest step cost about the same, so passes drawn on different seeds
    do about the same work.
    """
    while True:
        steps = tuple(sorted(rng.sample(range(1, s_max), size - 1))) + (s_max,)
        if math.gcd(*steps) == 1:
            return steps


def _connected_order(steps, n):
    """The first order >= n at which the family is connected."""
    while not checks.is_connected(steps, n):
        n += 1
    return n


class InProcess:
    """Base of the workloads that call the package in this process."""

    def __init__(self):
        from circtrees import arithmetic, chebyshev, exact
        self.arithmetic, self.chebyshev, self.exact = arithmetic, chebyshev, exact

    def closed_form(self, op):
        spec = self.arithmetic.family_spec(op.steps, op.family, op.orders[0])
        if op.diagonal:
            tau = self.chebyshev.tau_odd(spec)
        else:
            tau = self.chebyshev.tau_even(spec)
        dec = self.arithmetic.decompose(spec, tau)
        return spec, tau, dec

    def check_count(self, residue, op, tau, c, a):
        n = op.orders[0]
        return (residue.matches(tau, op.steps, n, op.diagonal)
                and checks.decomposition_ok(tau, op.steps, n, op.diagonal, c, a))


class Sweep(InProcess):
    """Every order of random step sets, oracle-sized.

    One operation is the closed form, the determinant oracle and the
    decomposition of one spec.  A pass is one block of consecutive orders
    per (largest step, number of steps) class below: even steps within 1..5
    up to 40 vertices, diagonal steps within 1..4 up to half-order 20, as
    in the acceptance sweep and ``verify C*(...)``.  Consecutive operations
    share their step set, so work that does not depend on the order
    repeats.
    """

    name = "sweep"
    # (largest step, number of steps) of the blocks of one pass
    EVEN = ((1, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (5, 4))
    DIAG = ((1, 1), (2, 2), (3, 2), (3, 3), (4, 3))
    EVEN_N_MAX, DIAG_N_MAX = 40, 20

    def make_pass(self, rng):
        blocks = [(_steps(rng, s_max, size), False, self.EVEN_N_MAX)
                  for s_max, size in self.EVEN]
        blocks += [(_steps(rng, s_max, size), True, self.DIAG_N_MAX)
                   for s_max, size in self.DIAG]
        rng.shuffle(blocks)
        return [Op("spec", steps, diagonal, (n,))
                for steps, diagonal, n_max in blocks
                for n in checks.family_orders(steps, diagonal, n_max)]

    def run(self, op):
        spec, tau, dec = self.closed_form(op)
        oracle = self.exact.tau_oracle(spec)
        return tau, oracle, dec.coefficient, dec.a

    def check(self, residue, op, out):
        tau, oracle, c, a = out
        return tau == oracle and self.check_count(residue, op, tau, c, a)

    @staticmethod
    def taus(out):
        return [out[0]]


class LargeOrder(InProcess):
    """Closed forms at orders whose counts run to thousands of bits.

    One operation is the closed form plus the decomposition of one spec; no
    oracle runs.  A pass takes one random step set per (family, largest
    step, number of steps) class below, each at five orders chosen so the
    count has about 1500 to 6000 bits in equal steps.  The top band stays
    below the certification ceiling of the closed forms (about 8000-bit
    counts: C3000(1,2,3,4,5) and C2000(1,2,3;d) fail).
    """

    name = "large_order"
    # (largest step, number of steps) per family
    EVEN = ((3, 2), (4, 3), (5, 3))
    DIAG = ((2, 2), (3, 2), (4, 3))
    BITS = (1500, 2625, 3750, 4875, 6000)
    JITTER = 0.02

    def make_pass(self, rng):
        ops = []
        for diagonal, classes in ((False, self.EVEN), (True, self.DIAG)):
            for s_max, size in classes:
                steps = _steps(rng, s_max, size)
                log2m = math.log2(checks.mahler_measure(steps, diagonal))
                for bits in self.BITS:
                    target = bits * (1 + self.JITTER * (2 * rng.random() - 1))
                    n = round(target / log2m)
                    ops.append(Op("spec", steps, diagonal, (n,)))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        spec, tau, dec = self.closed_form(op)
        return tau, dec.coefficient, dec.a

    def check(self, residue, op, out):
        tau, c, a = out
        return self.check_count(residue, op, tau, c, a)

    @staticmethod
    def taus(out):
        return [out[0]]


_VERIFY_LINE = re.compile(
    r"^n=\s*(\d+)\s+PASS\s+formula=oracle; decomp c=(\d+) a=(\d+); "
    r"conjugacy r=\d+$")
_VERIFY_TOTAL = re.compile(r"^checked (\d+) orders, 0 failures$")


class Cli:
    """Fresh ``python -m circtrees`` processes, run one at a time.

    A pass holds eleven commands: ``tau --method both`` on an even spec of
    155-165 vertices, a diagonal one of 185-195 and an even one of 300-310;
    ``verify C*(...)`` on an even (to 36 vertices) and a diagonal (to
    half-order 16) family; ``asymptote`` twice over eleven orders; and
    ``sequence``, ``mahler --method both`` twice and ``decompose`` once.
    The ``tau`` and ``verify`` commands spend their time in the Bareiss
    oracle; the rest mostly in interpreter start-up and import.
    """

    name = "cli"

    def __init__(self, prefix=("-m", "circtrees"), env=None):
        self.prefix = prefix
        self.env = env

    @staticmethod
    def _literal(steps, n, diagonal):
        body = ",".join(map(str, steps))
        return f"C{n}({body};d)" if diagonal else f"C{n}({body})"

    def _tau(self, rng, diagonal, s_max, size, lo, hi):
        steps = _steps(rng, s_max, size)
        v = rng.randint(lo, hi)
        n = v // 2 if diagonal else v
        return Op("tau", steps, diagonal, (n,),
                  ("tau", self._literal(steps, n, diagonal),
                   "--method", "both"))

    def make_pass(self, rng):
        ops = [self._tau(rng, False, 4, 3, 155, 165),
               self._tau(rng, True, 3, 2, 185, 195),
               self._tau(rng, False, 4, 3, 300, 310)]
        for diagonal, n_max in ((False, 36), (True, 16)):
            steps = _steps(rng, 3, 2)
            orders = tuple(checks.family_orders(steps, diagonal, n_max))
            ops.append(Op("verify", steps, diagonal, orders,
                          ("verify", self._literal(steps, "*", diagonal),
                           "--n-max", str(n_max))))
        for diagonal, s_max, size, lo in ((False, 4, 3, 40), (True, 3, 2, 20)):
            lo += rng.randint(0, 5)
            ops.append(self._ranged("asymptote", _steps(rng, s_max, size),
                                    diagonal, lo, lo + 10))
        steps = _steps(rng, 3, 2)
        diagonal = rng.random() < 0.5
        lo = (max(steps) + 1) if diagonal else (2 * max(steps) + 1)
        ops.append(self._ranged("sequence", steps, diagonal, lo, lo + 12))
        for _ in range(2):
            steps = _random_steps(rng, rng.randint(2, 5))
            diagonal = rng.random() < 0.5
            ops.append(Op("mahler", steps, diagonal, (),
                          ("mahler", ",".join(map(str, steps)), "--family",
                           "diagonal" if diagonal else "even",
                           "--method", "both")))
        steps = _random_steps(rng, rng.randint(2, 5))
        diagonal = rng.random() < 0.5
        n = _connected_order(steps, rng.randint(100, 200))
        ops.append(Op("decompose", steps, diagonal, (n,),
                      ("decompose", self._literal(steps, n, diagonal))))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _ranged(kind, steps, diagonal, lo, hi):
        return Op(kind, steps, diagonal, tuple(range(lo, hi + 1)),
                  (kind, ",".join(map(str, steps)), "--family",
                   "diagonal" if diagonal else "even", "--n", f"{lo}..{hi}"))

    def run(self, op, env=None):
        proc = subprocess.run((sys.executable, *self.prefix, *op.argv),
                              capture_output=True, text=True, timeout=150,
                              env=env if env is not None else self.env)
        return proc.returncode, proc.stdout

    def check(self, residue, op, out):
        code, stdout = out
        if code != 0:
            return False
        if op.kind == "verify":
            return self._check_verify(residue, op, stdout)
        rows = [json.loads(line) for line in stdout.splitlines()]
        if op.kind == "mahler":
            measure = checks.mahler_measure(op.steps, op.diagonal)
            return (len(rows) == 2
                    and all(abs(r["mahler"] / measure - 1) < 1e-9 for r in rows))
        if [r["n"] for r in rows] != list(op.orders):
            return False
        measure = (checks.mahler_measure(op.steps, op.diagonal)
                   if op.kind == "asymptote" else None)
        for row in rows:
            n = row["n"]
            if not checks.is_connected(op.steps, n):
                if row["tau"] not in ("0", None):
                    return False
                continue
            tau = int(row["tau"])
            if not residue.matches(tau, op.steps, n, op.diagonal):
                return False
            if op.kind in ("sequence", "decompose") and not \
                    checks.decomposition_ok(tau, op.steps, n, op.diagonal,
                                            row["coefficient"], int(row["a"])):
                return False
            if measure is not None:
                ratio = checks.growth_ratio(tau, op.steps, n, op.diagonal,
                                            measure)
                if abs(row["ratio"] / ratio - 1) > 1e-6:
                    return False
        return True

    @staticmethod
    def _verify_counts(stdout):
        lines = stdout.splitlines()
        found = {}
        for line in lines[:-1]:
            m = _VERIFY_LINE.match(line)
            if m:
                found[int(m.group(1))] = (int(m.group(2)), int(m.group(3)))
        total = _VERIFY_TOTAL.match(lines[-1]) if lines else None
        return found, (int(total.group(1)) if total else None)

    def _check_verify(self, residue, op, stdout):
        found, total = self._verify_counts(stdout)
        if total != len(op.orders) or sorted(found) != list(op.orders):
            return False
        for n, (c, a) in found.items():
            tau = c * n * a * a
            if not (c == checks.expected_coefficient(op.steps, n, op.diagonal)
                    and residue.matches(tau, op.steps, n, op.diagonal)):
                return False
        return True

    def taus(self, out):
        code, stdout = out
        if code != 0:
            return []
        if stdout.startswith("n="):
            found, _ = self._verify_counts(stdout)
            return [c * n * a * a for n, (c, a) in found.items()]
        return [int(row["tau"]) for row in map(json.loads, stdout.splitlines())
                if row.get("tau")]


WORKLOADS = {w.name: w for w in (Sweep, LargeOrder, Cli)}
