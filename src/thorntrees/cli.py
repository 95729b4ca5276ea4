"""Command-line surface: exact tables, verification suites, transforms,
and DOT exports.

Exit codes: 0 pass, 1 fail, 2 refusal or usage error.  All numeric
output is exact; stdout payloads are byte-stable across identical
invocations (timing goes to stderr).

Each command imports the layer modules it runs when it runs, so a
process loads only what its command needs.
"""

import argparse
import sys
import time
from importlib import import_module

from . import oracle
from .oracle import BudgetExceeded, InternalCheckError
from .partition import partitions_of

# table B|Bprime n and verify zagier n solve B for every partition of n; on
# 2 vCPUs under Python 3.11, solve_B takes 0.25-0.31 s CPU at n = 40 and
# 0.68-0.85 s at n = 45, and the three commands 0.31-0.74 s process wall
# at n = 40 (ranges over a host whose speed drifts)
SOLVER_LIMIT = 40
# table A|C|D|ST n from the closed forms take 0.9-2.0 s process wall at
# n = 40 and 2.6-2.7 s at n = 45 for table A (2.6 and 6.9 MB of stdout)
TABLE_LIMIT = 40
# table stirling n takes 0.45 s at n = 1000 (1.5 MB) and 1.3-1.5 s at
# n = 1500; near n = 1550 its largest entry passes the 4300 digits that
# Python converts to text by default
STIRLING_LIMIT = 1000
# verify identities n works at degrees n and n+1; at n = 20 the suite takes
# 0.6-0.9 s and 28 MB, and each step up costs about 1.6x the time and
# 1.3x the memory (measured table in CHANGES.md)
IDENTITIES_LIMIT = 20
# --budget bounds every oracle sweep; at 9 each has been measured (verify
# bijection 9 takes 36 s and 113 MB), and n = 10 costs about ten times that
BUDGET_LIMIT = 9


def _check_limit(n, limit, name, what="n"):
    """Refuse an n (or another argument, named ``what``) beyond a
    command's limit, before any work."""
    if n > limit:
        raise BudgetExceeded("%s=%d exceeds %s limit %d"
                             % (what, n, name, limit))


class RunReport:
    """Deterministic machine-readable result of one verification run."""

    __slots__ = ("command", "items", "refused")

    def __init__(self, command):
        self.command = command
        self.items = []
        self.refused = None

    def add(self, name, expected, actual, provenance):
        self.items.append({"actual": str(actual), "check": name,
                           "expected": str(expected),
                           "ok": expected == actual,
                           "provenance": provenance})

    @property
    def status(self):
        if self.refused:
            return "refused"
        return "pass" if all(it["ok"] for it in self.items) else "fail"

    def to_json(self):
        import json

        obj = {"command": self.command, "items": self.items,
               "status": self.status}
        if self.refused:
            obj["reason"] = self.refused
        return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# table


def cmd_table(args):
    from . import counting

    fam, n = args.family, args.n
    _check_limit(args.budget, BUDGET_LIMIT, "budget", "budget")
    if args.parity is not None and fam in ("Bprime", "stirling"):
        raise ValueError("--parity keeps partitions of a given length parity;"
                         " %s is indexed by m, not by partitions" % fam)
    if fam == "stirling":
        _check_limit(n, STIRLING_LIMIT, "stirling")
        row = counting.stirling1_row(n)
        if args.format == "json":
            import json

            print(json.dumps({"family": "stirling", "n": n,
                              "provenance": "formula",
                              "row": [str(v) for v in row[1:]]},
                             sort_keys=True))
        else:  # built whole before writing: a failing row writes nothing
            lines = ["n,m,value,provenance"] + [
                "%d,%d,%d,formula" % (n, m, row[m]) for m in range(1, n + 1)]
            sys.stdout.write("\n".join(lines) + "\n")
        return 0
    if fam == "Bprime":
        if n < 1:
            raise ValueError("n must be >= 1")
        if args.oracle:
            provenance = "oracle"
            rows = [(str(m), oracle.enumerate_Bprime(n, m, args.budget))
                    for m in range(1, n + 1)]
        else:
            _check_limit(n, SOLVER_LIMIT, "solver")
            provenance = "solver"
            rows = [(str(m), counting.count_Bprime(n, m))
                    for m in range(1, n + 1)]
        index = "m"
    else:
        if args.oracle:
            table = counting.table_for(fam, n, args.budget)
        elif fam == "B":
            _check_limit(n, SOLVER_LIMIT, "solver")
            table = counting.solve_B(n)
        else:
            _check_limit(n, TABLE_LIMIT, "table")
            table = counting.table_for(fam, n)
        # a generator, not a list: at n = 40 a list of its 37 338 pairs
        # made the printing 4-8% slower
        rows = ((lam.exponential(), v) for lam, v in table.rows()
                if args.parity is None or len(lam) % 2 == args.parity % 2)
        index, provenance = "partition", table.provenance
    # every (index text, value) row prints one way: CSV under the header
    # <index>,value,provenance, or one JSON object, built whole before
    # its one write, so a failing row writes nothing
    if args.format == "json":
        import json

        text = json.dumps({"family": fam, "n": n, "provenance": provenance,
                           "rows": [[i, str(v)] for i, v in rows]},
                          sort_keys=True) + "\n"
    else:
        text = "".join(["%s,value,provenance\n" % index] + [
            "%s,%d,%s\n" % (i, v, provenance) for i, v in rows])
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify


def _suite_zagier(n, budget, report):
    from . import counting

    _check_limit(n, SOLVER_LIMIT, "solver")
    rows = counting.verify_zagier(n)
    for row in rows:
        report.add(row["check"], row["expected"], row["actual"], "solver")
    if n <= budget:
        for row in rows:
            report.add("oracle Bprime m=%d" % row["m"], row["Bprime"],
                       oracle.enumerate_Bprime(n, row["m"], budget), "oracle")


def _suite_reformulation(n, budget, report):
    from fractions import Fraction

    for lam in partitions_of(n):
        p = len(lam)
        got = oracle.reformulation_probability(lam, budget)
        report.add("probability %s" % lam.exponential(),
                   Fraction(1, n - p + 1), got, "oracle")


def _suite_identities(n, budget, report):
    from . import symfun

    _check_limit(n, IDENTITIES_LIMIT, "identities")
    for rep in (symfun.verify_C2A(n), symfun.verify_D2B(n),
                symfun.verify_reduction(n)):
        report.add(rep["check"], [], rep["diffs"], "formula")


def _suite_bijection(n, budget, report):
    from . import bijection, counting

    for lam in partitions_of(n):
        images, failures, agree = bijection.roundtrip_stats(lam, budget)
        if failures:
            report.add("roundtrip %s" % lam.exponential(), *failures[0],
                       "oracle")
        report.add("injectivity+image %s" % lam.exponential(),
                   counting.count_D(lam), images, "oracle")
        report.add("classify agreement %s" % lam.exponential(), True, agree,
                   "oracle")


def _suite_proportions(n, budget, report):
    from fractions import Fraction

    from . import bijection

    for lam in partitions_of(n):
        p = len(lam)
        P, Pp, P1 = bijection.proportion_stats(lam, budget)
        report.add("P %s" % lam.exponential(), Fraction(1, n - p + 1), P,
                   "oracle")
        report.add("P' %s" % lam.exponential(),
                   Fraction(n, p * (n - p + 1)), Pp, "oracle")
        report.add("P1 incidence %s" % lam.exponential(),
                   Fraction(p, n), P1, "oracle")


# suite -> (its function, the modules it imports); cmd_verify imports them
# before its timer starts, so "wall time" times the suite alone
SUITES = {"zagier": (_suite_zagier, ".counting"),
          "reformulation": (_suite_reformulation, "fractions"),
          "identities": (_suite_identities, ".symfun"),
          "bijection": (_suite_bijection, ".bijection", ".counting"),
          "proportions": (_suite_proportions, "fractions", ".bijection")}


def cmd_verify(args):
    report = RunReport(command="verify %s %d" % (args.suite, args.n))
    suite, *modules = SUITES[args.suite]
    for name in modules:
        import_module(name, __package__)
    t0 = time.monotonic()
    try:
        _check_limit(args.budget, BUDGET_LIMIT, "budget", "budget")
        suite(args.n, args.budget, report)
    except BudgetExceeded as exc:
        report.refused = str(exc)
    wall_time = time.monotonic() - t0
    print(report.to_json())
    print("wall time: %.3fs" % wall_time, file=sys.stderr)
    return {"pass": 0, "fail": 1, "refused": 2}[report.status]


# ---------------------------------------------------------------------------
# transform / export-dot


KIND_NAMES = {
    "BlackPartitionedStarMap": "black-partitioned star map",
    "PermutedThornTree": "permuted thorn tree",
    "StarThornTree": "star thorn tree",
    "LabeledThornTree": "labeled thorn tree",
}


def _load(path, kind=None):
    """Parse an object file; with ``kind`` (a class name) given, refuse any
    other kind."""
    from .structures import ParseError, deserialize

    with open(path) as fh:
        obj = deserialize(fh.read())
    found = type(obj).__name__
    if kind is not None and found != kind:
        raise ParseError("expected a %s, found a %s"
                         % (KIND_NAMES[kind], KIND_NAMES[found]))
    return obj


def _emit(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_transform(args):
    import json

    from . import bijection, structures

    obj = _load(args.input, "BlackPartitionedStarMap"
                if args.direction == "psi" else "PermutedThornTree")
    if args.direction == "psi":
        payload = structures.to_json_obj(bijection.psi(obj))
    elif args.direction == "invert":
        payload = bijection.psi_inverse(obj).to_json_obj()
    elif args.direction == "classify":
        payload = bijection.classify(obj).to_json_obj()
    elif args.direction == "contract":
        if args.mark is None:
            raise ValueError("contract requires --mark BLACK_VERTEX")
        t2, elem = bijection.contract(obj, args.mark)
        payload = {"marked_element": list(elem),
                   "tree": structures.to_json_obj(t2)}
    # compact and key-sorted, as structures.serialize writes an object
    _emit(args, json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n")
    return 0


def cmd_export_dot(args):
    from . import bijection, dot

    obj = _load(args.input, "PermutedThornTree" if args.aux else None)
    if args.aux:
        obj = bijection.aux_graph(obj)
    _emit(args, dot.to_dot(obj))
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="thorntrees",
        description="Exact counting and bijections for star-map "
                    "factorizations and star thorn trees.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    budget = {"type": int, "default": oracle.DEFAULT_BUDGET,
              "help": "largest n an oracle may sweep (default: %(default)s)"}

    t = sub.add_parser("table", help="print a counting table")
    t.add_argument("family",
                   choices=["A", "B", "Bprime", "C", "D", "ST", "stirling"])
    t.add_argument("n", type=int)
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.add_argument("--budget", **budget)
    t.add_argument("--parity", type=int, default=None,
                   help="keep only partitions with this length parity")
    t.add_argument("--oracle", action="store_true",
                   help="use brute-force enumeration instead of formulas")
    t.set_defaults(fn=cmd_table)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("n", type=int)
    v.add_argument("--budget", **budget)
    v.set_defaults(fn=cmd_verify)

    tr = sub.add_parser("transform", help="apply a bijection step to a file")
    tr.add_argument("direction", choices=["psi", "invert", "classify",
                                          "contract"])
    tr.add_argument("input")
    tr.add_argument("-o", "--output", default=None)
    tr.add_argument("--mark", type=int, default=None,
                    help="marked black vertex for contract")
    tr.set_defaults(fn=cmd_transform)

    d = sub.add_parser("export-dot", help="render an object as Graphviz DOT")
    d.add_argument("input")
    d.add_argument("-o", "--output", default=None)
    d.add_argument("--aux", action="store_true",
                   help="render the auxiliary graph of a permuted tree")
    d.set_defaults(fn=cmd_export_dot)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        # a ParseError is a ValueError; an OverflowError is an n too large
        # for an exact formula (factorial refuses it)
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        # the bijection's self-checks and the solver's exact divisions
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
