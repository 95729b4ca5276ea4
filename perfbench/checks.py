"""Output checks that share no code with the library.

Each check takes a command's stdout text and returns a list of problems
(empty when the output is right).  They re-derive the paper's numbers
from scratch: Stirling numbers of the first kind by their recurrence,
n!/z_lambda, and the reformulation probability 1/(n - p + 1).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import factorial, prod


def stirling_row(n):
    """[s(n,0), ..., s(n,n)] by s(n,k) = s(n-1,k-1) + (n-1) s(n-1,k)."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [row[k - 1] + (m - 1) * (row[k] if k < m else 0)
                     for k in range(1, m + 1)]
    return row


def parse_exponential(text):
    """'1^2 3^1' -> [3, 1, 1]."""
    parts = []
    for tok in text.split():
        base, _, mult = tok.partition("^")
        parts += [int(base)] * int(mult)
    return sorted(parts, reverse=True)


def z_value(parts):
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    return prod(i ** m * factorial(m) for i, m in mult.items())


def partition_count(n):
    """p(n) by the standard coin-counting recurrence."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _csv_rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def _zagier_problems(n, bprime):
    """n(n+1)/2 * B'(n,m) = s(n+1,m) for m = n mod 2, and 0 otherwise."""
    srow = stirling_row(n + 1)
    problems = []
    for m in range(1, n + 1):
        want = srow[m] if m % 2 == n % 2 else 0
        got = n * (n + 1) // 2 * bprime.get(m, 0)
        if got != want:
            problems.append("B'(%d,%d): n(n+1)/2*B' = %d, expected %d"
                            % (n, m, got, want))
    return problems


def table_B_stirling(n):
    def check(text):
        rows = _csv_rows(text, ["partition", "value", "provenance"])
        if rows is None:
            return ["bad CSV header"]
        problems = []
        if len(rows) != partition_count(n):
            problems.append("%d rows, expected p(%d) = %d"
                            % (len(rows), n, partition_count(n)))
        bprime = {}
        for label, value, _prov in rows:
            parts = parse_exponential(label)
            if sum(parts) != n:
                problems.append("row %r is not a partition of %d" % (label, n))
                continue
            bprime[len(parts)] = bprime.get(len(parts), 0) + int(value)
        return problems + _zagier_problems(n, bprime)
    return check


def table_Bprime_stirling(n):
    def check(text):
        obj = json.loads(text)
        if obj.get("family") != "Bprime" or obj.get("n") != n:
            return ["wrong family or n in %r" % {k: obj.get(k) for k in ("family", "n")}]
        return _zagier_problems(n, {int(m): int(v) for m, v in obj["rows"]})
    return check


def table_A_class_sizes(n):
    def check(text):
        rows = _csv_rows(text, ["partition", "value", "provenance"])
        if rows is None:
            return ["bad CSV header"]
        problems = []
        if len(rows) != partition_count(n):
            problems.append("%d rows, expected p(%d)" % (len(rows), n))
        for label, value, _prov in rows:
            want = factorial(n) // z_value(parse_exponential(label))
            if int(value) != want:
                problems.append("A(%s) = %s, expected n!/z = %d"
                                % (label, value, want))
        return problems
    return check


def oracle_rows():
    """Every row of a --oracle table must carry provenance 'oracle'."""
    def check(text):
        rows = _csv_rows(text, ["partition", "value", "provenance"])
        if rows is None:
            return ["bad CSV header"]
        bad = [r[0] for r in rows if r[2] != "oracle"]
        if bad:
            return ["%d of %d rows not tagged oracle (first: %r tagged %r)"
                    % (len(bad), len(rows), bad[0],
                       next(r[2] for r in rows if r[0] == bad[0]))]
        return []
    return check


def report_pass():
    def check(text):
        status = json.loads(text).get("status")
        return [] if status == "pass" else ["report status %r" % status]
    return check


def zagier_items(n):
    """The report's expected values are the recomputed Stirling numbers."""
    srow = stirling_row(n + 1)

    def check(text):
        problems = []
        for it in json.loads(text)["items"]:
            name = it["check"]
            if name.startswith("zagier m="):
                m = int(name.split("=")[1])
                if it["expected"] != str(srow[m]) or it["actual"] != str(srow[m]):
                    problems.append("%s: %s vs s(%d,%d) = %d"
                                    % (name, it["actual"], n + 1, m, srow[m]))
        return problems
    return check


def reformulation_probabilities(n):
    def check(text):
        items = json.loads(text)["items"]
        problems = []
        if len(items) != partition_count(n):
            problems.append("%d items, expected p(%d)" % (len(items), n))
        for it in items:
            parts = parse_exponential(it["check"].split(" ", 1)[1])
            want = Fraction(1, n - len(parts) + 1)
            if Fraction(it["actual"]) != want:
                problems.append("%s = %s, expected %s"
                                % (it["check"], it["actual"], want))
        return problems
    return check


CHECKS = {
    "table_B_stirling": table_B_stirling,
    "table_Bprime_stirling": table_Bprime_stirling,
    "table_A_class_sizes": table_A_class_sizes,
    "oracle_rows": oracle_rows,
    "report_pass": report_pass,
    "zagier_items": zagier_items,
    "reformulation_probabilities": reformulation_probabilities,
}


def build(spec):
    """'name' or 'name:n' -> check function."""
    name, _, arg = spec.partition(":")
    return CHECKS[name](int(arg)) if arg else CHECKS[name]()
