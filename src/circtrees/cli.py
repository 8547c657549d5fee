"""Command-line interface.

Subcommands
-----------
tau        spanning-tree count of one spec (formula, oracle, or both)
verify     sweep a family: formula vs certified product and oracle,
           decomposition, conjugacy
mahler     Mahler measure of a step set (root product and/or quadrature)
asymptote  per-order ratio tau q / (n d^2 M^n) over a range
decompose  square-free decomposition tau = c n a^2 of one spec
sequence   the integer sequence a(n) of a family, with recursion checking

Specs are written ``C<n>(<s1>,<s2>,...)`` with an optional ``;d`` marker for
the odd-valency family (``C12(1,2;d)`` is the 24-vertex graph C_24(1,2,12)).
Ranges are inclusive, ``a..b``.  Rows go to stdout (or ``--out``) as JSON
lines, CSV, or an aligned table; every row carries the full field set with
explicit nulls, and big integers are decimal strings so nothing truncates
downstream.

In ``verify`` output the formula is the exact closed form
(``tau_closed_form``), and ``formula=oracle`` means that it equals the
determinant oracle.  The certified Chebyshev product
(``tau_even``/``tau_odd``) adds a note only when it does not agree: a
disagreement reads ``exact X != chebyshev Y``, a refusal ``chebyshev
skipped (cap)`` or ``chebyshev skipped (seeding budget)``, and a product
that ran but failed to seed its roots or to certify at every precision up
to the cap ``chebyshev failed to certify``.  An oracle above its ceiling
is noted ``oracle skipped (ceiling)``.

In ``asymptote`` and ``sequence`` rows, an order below the family's smallest
(its steps fold into a multigraph) has ``tau``, ``coefficient``, ``a`` and
``ratio`` null, and a disconnected order the same but ``tau`` "0"; an order
below 2 exits 2 with no rows.  ``verify`` skips a disconnected order of a
sweep, and a disconnected literal exits 3.

``--timings`` gives each row the seconds spent since the previous row (the
first row since the command started).

Exit codes: 0 ok, 1 verification failure, 2 parse error, invalid input
or a computation not attempted, 3 disconnected graph, 4 certification
failure, 5 I/O error, 6 internal error.  Invalid input is what parsing
and validation reject: a negative ceiling, an order below 2; a
``ValueError`` from inside a computation is an internal error.  Four size
limits refuse a computation before it starts, as ``not attempted``: the
oracle's vertex ``ceiling`` (512, or ``--oracle-ceiling``), the certified
product's 8192-bit ``cap`` and 512-degree ``seeding budget``, and the
exact route's ``size`` limit on the count's bits.
"""

import argparse
import io
import json
import math
import re
import sys
import time

# mahler and chebyshev are imported by the commands that use them, so the
# exact commands do not pay their import time
from . import algebra, arithmetic, exact, graph
from .errors import (CertificationError, CirctreesError,
                     DisconnectedGraphError, InternalConsistencyError,
                     NotAttemptedError, QuadratureError, RootRefinementError,
                     SpecError, SpecParseError)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_CERTIFICATION = 4
EXIT_IO = 5
EXIT_INTERNAL = 6

RECORD_FIELDS = ("spec", "n", "family", "tau", "coefficient", "a",
                 "mahler", "ratio", "timings")


class _InvalidInput(Exception):
    """Input that validation rejects, before any computation uses it."""


def make_record(**fields):
    row = {key: None for key in RECORD_FIELDS}
    for key, value in fields.items():
        if key not in row:
            raise KeyError(f"unknown record field {key}")
        row[key] = value
    return row


def _parse_range(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise SpecParseError(f"cannot parse range {text!r}; expected a..b")
    if hi < lo:
        raise SpecParseError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_steps(text):
    try:
        steps = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise SpecParseError(f"cannot parse step list {text!r}")
    if not steps or len(set(steps)) != len(steps) or min(steps) < 1:
        raise SpecParseError(f"invalid step list {text!r}")
    return tuple(sorted(steps))


def _family_pattern(steps, family):
    body = ",".join(str(s) for s in steps)
    return f"C*({body};d)" if family == "diagonal" else f"C*({body})"


def _emit(rows, args):
    if args.format == "json":
        text = "".join(json.dumps(row) + "\n" for row in rows)
    elif args.format == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(RECORD_FIELDS)
        for row in rows:
            writer.writerow([
                json.dumps(row[f]) if f == "timings" and row[f] is not None
                else ("" if row[f] is None else row[f])
                for f in RECORD_FIELDS])
        text = buf.getvalue()
    else:  # table
        used = [f for f in RECORD_FIELDS
                if any(row[f] is not None for row in rows)] or ["spec"]
        cells = [[("-" if row[f] is None else json.dumps(row[f])
                   if isinstance(row[f], dict) else str(row[f]))
                  for f in used] for row in rows]
        widths = [max(len(f), *(len(c[i]) for c in cells)) if cells else len(f)
                  for i, f in enumerate(used)]
        lines = ["  ".join(f.ljust(w) for f, w in zip(used, widths))]
        for c in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _row_timer(flag):
    """Per-row timings: each call returns the seconds since the previous call
    (the first since the timer was made), or None when ``flag`` is off."""
    last = time.perf_counter()

    def timed():
        nonlocal last
        if not flag:
            return None
        now = time.perf_counter()
        seconds, last = now - last, now
        return {"seconds": round(seconds, 6)}

    return timed


def _emit_disconnected(spec, args, timed):
    """Emit the tau = 0 row of a disconnected spec; returns the exit code."""
    _emit([make_record(spec=spec.literal, n=spec.order, family=spec.family,
                       tau="0", timings=timed())], args)
    return EXIT_DISCONNECTED


def cmd_tau(args):
    spec = graph.parse_spec(args.spec)
    timed = _row_timer(args.timings)
    if not graph.is_connected(spec):
        return _emit_disconnected(spec, args, timed)
    values = {}
    if args.method in ("formula", "both"):
        values["formula"] = algebra.tau_closed_form(spec)
    if args.method in ("oracle", "both"):
        values["oracle"] = exact.tau_oracle(
            spec, ceiling=_oracle_limit(args.oracle_ceiling))
    distinct = sorted(set(values.values()))
    rows = [make_record(spec=spec.literal, n=spec.order, family=spec.family,
                        tau=str(value), timings=timed())
            for value in distinct]
    _emit(rows, args)
    if len(distinct) > 1:
        print(f"MISMATCH: formula={values['formula']} "
              f"oracle={values['oracle']} for {spec}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _family_rows(steps, family, orders):
    """(n, spec, tau) per order of a sweep, as ``family_spec`` decides it.

    Below the family's smallest order spec and tau are None, and a
    disconnected order has spec None and tau 0.  An order below 2 is invalid
    input, rejected here before any row is computed.
    """
    low = min(orders, default=2)
    if low < 2:
        raise _InvalidInput(f"order {low} too small")
    return (_family_row(steps, family, n) for n in orders)


def _family_row(steps, family, n):
    try:
        spec = arithmetic.family_spec(steps, family, n)
    except SpecError:
        return n, None, None
    except DisconnectedGraphError:
        return n, None, 0
    return n, spec, algebra.tau_closed_form(spec)


def _oracle_limit(ceiling):
    """The oracle's vertex ceiling, validated: a negative one is invalid
    input."""
    if ceiling < 0:
        raise _InvalidInput(f"oracle ceiling {ceiling} is negative")
    return ceiling


def _verify_one(spec, formula, ceiling):
    """Run the checks on one connected spec; returns (ok, detail).

    The exact closed form ``formula`` must equal the certified Chebyshev
    product, which adds a note only when it disagrees, is refused by a
    limit or fails to certify below it (the last two are noted, not
    failed), and the oracle, noted ``formula=oracle`` when it agrees
    (unless refused by its ceiling); then decompose as c n a^2 and match
    a conjugate's count.
    """
    from . import chebyshev
    notes = []
    ok = True
    certified_form = chebyshev.tau_odd if spec.diagonal else chebyshev.tau_even
    try:
        certified = certified_form(spec)
    except NotAttemptedError as exc:
        notes.append(f"chebyshev skipped ({exc.limit})")
    except CertificationError:
        notes.append("chebyshev failed to certify")
    else:
        if certified != formula:
            ok = False
            notes.append(f"exact {formula} != chebyshev {certified}")
    n_vertices = spec.vertex_count
    try:
        oracle = exact.tau_oracle(spec, ceiling=ceiling)
    except NotAttemptedError as exc:
        notes.append(f"oracle skipped ({exc.limit})")
    else:
        if oracle != formula:
            ok = False
            notes.append(f"formula {formula} != oracle {oracle}")
        else:
            notes.append("formula=oracle")
    try:
        dec = arithmetic.decompose(spec, formula)
    except CirctreesError as exc:  # theorem violation: report, not crash
        ok = False
        notes.append(f"decomposition failed: {exc}")
    else:
        notes.append(f"decomp c={dec.coefficient} a={dec.a}")
    r = next(r for r in range(2, n_vertices + 1)
             if math.gcd(r, n_vertices) == 1)
    conj = graph.multiplier_conjugate(spec, r)
    conj_tau = algebra.tau_closed_form(conj)
    if conj_tau != formula:
        ok = False
        notes.append(f"conjugate {conj} gave {conj_tau}")
    else:
        notes.append(f"conjugacy r={r}")
    return ok, "; ".join(notes)


def cmd_verify(args):
    ceiling = _oracle_limit(args.oracle_ceiling)
    if args.pattern == "C16-iso-pair":
        a = exact.tau_oracle(graph.parse_spec("C16(1,2,7)"), ceiling=ceiling)
        b = exact.tau_oracle(graph.parse_spec("C16(2,3,5)"), ceiling=ceiling)
        ok = a == b
        print(f"C16(1,2,7) tau={a}")
        print(f"C16(2,3,5) tau={b}")
        print("PASS" if ok else "FAIL: isomorphic pair counts differ")
        return EXIT_OK if ok else EXIT_VERIFY
    sweep = args.pattern.startswith("C*(")
    if sweep:
        m = re.match(r"^C\*\(\s*(\d+(?:\s*,\s*\d+)*)\s*(;d)?\s*\)$",
                     args.pattern)
        if not m:
            raise SpecParseError(f"cannot parse pattern {args.pattern!r}")
        steps = _parse_steps(m.group(1).replace(" ", ""))
        family = "diagonal" if m.group(2) else "even"
        orders = range(2, args.n_max + 1)
    else:
        spec = graph.parse_spec(args.pattern)
        steps, family, orders = spec.steps, spec.family, [spec.order]
    failures = []
    checked = 0
    for n, spec, formula in _family_rows(steps, family, orders):
        if formula is None:     # below the family's smallest order
            continue
        if spec is None:
            print(f"n={n:4d}  skip (disconnected)")
            if not sweep:
                return EXIT_DISCONNECTED
            continue
        ok, detail = _verify_one(spec, formula, ceiling)
        checked += 1
        print(f"n={n:4d}  {'PASS' if ok else 'FAIL'}  {detail}")
        if not ok:
            failures.append(f"{spec}: {detail}")
    print(f"checked {checked} orders, {len(failures)} failures")
    if failures:
        print(f"first counterexample: {failures[0]}")
        return EXIT_VERIFY
    if checked == 0:
        print("nothing to check in range")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_mahler(args):
    from . import mahler
    steps = _parse_steps(args.steps)
    timed = _row_timer(args.timings)
    estimates, timings = [], []
    if args.method in ("root-product", "both"):
        estimates.append(mahler.mahler_root_product(
            mahler.associated_laurent(steps, args.family)))
        timings.append(timed())
    if args.method in ("quadrature", "both"):
        estimates.append(mahler.mahler_quadrature(steps, args.family))
        timings.append(timed())
    rows = [make_record(spec=_family_pattern(steps, args.family),
                        family=args.family, mahler=est.value,
                        timings=row_timings)
            for est, row_timings in zip(estimates, timings)]
    _emit(rows, args)
    for est in estimates:
        print(f"# {est.method}: M={est.value!r} m={est.small_measure!r} "
              f"error<={est.error_bound:.3e}", file=sys.stderr)
    if args.method == "both":
        gap = abs(estimates[0].value - estimates[1].value)
        allowed = estimates[0].error_bound + estimates[1].error_bound + 1e-8
        if gap > allowed:
            print(f"MISMATCH: methods differ by {gap}", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def cmd_asymptote(args):
    steps = _parse_steps(args.steps)
    timed = _row_timer(args.timings)
    sweep = _family_rows(steps, args.family, args.n)
    from . import mahler    # after the order check: a bad range skips it
    measure = mahler.mahler_root_product(
        mahler.associated_laurent(steps, args.family))
    rows = [make_record(spec=_family_pattern(steps, args.family), n=n,
                        family=args.family, mahler=measure.value,
                        tau=None if tau is None else str(tau),
                        ratio=None if spec is None
                        else mahler.growth_ratio(tau, spec, measure),
                        timings=timed())
            for n, spec, tau in sweep]
    _emit(rows, args)
    return EXIT_OK


def cmd_decompose(args):
    spec = graph.parse_spec(args.spec)
    timed = _row_timer(args.timings)
    if not graph.is_connected(spec):
        return _emit_disconnected(spec, args, timed)
    tau = algebra.tau_closed_form(spec)
    dec = arithmetic.decompose(spec, tau)
    _emit([make_record(spec=spec.literal, n=spec.order, family=spec.family,
                       tau=str(tau), coefficient=dec.coefficient,
                       a=str(dec.a),
                       timings=timed())], args)
    return EXIT_OK


def cmd_sequence(args):
    steps = _parse_steps(args.steps)
    coeffs = None
    if args.check_recursion is not None:
        try:
            coeffs = [int(tok) for tok in args.check_recursion.split(",")]
        except ValueError:
            raise SpecParseError("cannot parse recursion coefficients "
                                 f"{args.check_recursion!r}")
    timed = _row_timer(args.timings)
    rows = []
    values = {}     # a(n) over the last run of consecutive defined orders
    for n, spec, tau in _family_rows(steps, args.family, args.n):
        counts = {}
        if spec is None:
            values = {}
        else:
            dec = arithmetic.decompose(spec, tau)
            values[n] = dec.a
            counts = {"coefficient": dec.coefficient, "a": str(dec.a)}
        rows.append(make_record(spec=_family_pattern(steps, args.family),
                                n=n, family=args.family,
                                tau=None if tau is None else str(tau),
                                timings=timed(), **counts))
    _emit(rows, args)
    if coeffs is None:
        return EXIT_OK
    order = len(coeffs)
    tail = list(values)
    if len(tail) < order + 1:
        print(f"recursion check needs {order + 1} consecutive defined "
              f"values, have {len(tail)}", file=sys.stderr)
        return EXIT_VERIFY
    bad = [n for n in tail[order:]
           if values[n] != sum(c * values[n - i - 1]
                               for i, c in enumerate(coeffs))]
    if bad:
        print(f"recursion fails at n={bad[0]}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"# recursion verified on n={tail[order]}..{tail[-1]}",
          file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="circtrees",
        description="Exact and asymptotic spanning-tree counts of circulant "
                    "graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json")
        p.add_argument("--out", metavar="FILE", default=None)
        p.add_argument("--timings", action="store_true",
                       help="attach wall-clock timings to rows")

    p = sub.add_parser("tau", help="spanning-tree count of one spec")
    p.add_argument("spec", help="spec literal, e.g. C12(1,3) or C12(1,2;d)")
    p.add_argument("--method", choices=("formula", "oracle", "both"),
                   default="formula")
    p.add_argument("--oracle-ceiling", type=int,
                   default=exact.DEFAULT_ORACLE_CEILING)
    common(p)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("verify", help="sweep checks: formula vs oracle, "
                                      "decomposition, conjugacy")
    p.add_argument("pattern",
                   help="C*(1,2), C*(1;d), a literal, or C16-iso-pair")
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--oracle-ceiling", type=int,
                   default=exact.DEFAULT_ORACLE_CEILING)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mahler", help="Mahler measure of a step set")
    p.add_argument("steps", help="comma-separated steps, e.g. 1,2")
    p.add_argument("--family", choices=("even", "diagonal"), default="even")
    p.add_argument("--method",
                   choices=("root-product", "quadrature", "both"),
                   default="root-product")
    common(p)
    p.set_defaults(func=cmd_mahler)

    p = sub.add_parser("asymptote", help="tau growth ratio over a range")
    p.add_argument("steps")
    p.add_argument("--family", choices=("even", "diagonal"), default="even")
    p.add_argument("--n", type=_parse_range, required=True,
                   metavar="A..B")
    common(p)
    p.set_defaults(func=cmd_asymptote)

    p = sub.add_parser("decompose", help="tau = c n a^2 of one spec")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sequence", help="the sequence a(n) of a family")
    p.add_argument("steps")
    p.add_argument("--family", choices=("even", "diagonal"), default="even")
    p.add_argument("--n", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--check-recursion", metavar="C1,C2,...", default=None,
                   help="assert a(n) = sum_i c_i a(n-i) on the defined tail")
    common(p)
    p.set_defaults(func=cmd_sequence)
    return parser


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)   # counts can exceed 4300 digits
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DisconnectedGraphError as exc:
        print(f"disconnected: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except NotAttemptedError as exc:
        print(f"not attempted: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CertificationError, RootRefinementError, QuadratureError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except _InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InternalConsistencyError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
