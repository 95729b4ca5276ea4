"""Run the thorntrees CLI in-process with every layer's public functions
timed, for the benchmark's traced passes.

Usage: PYTHONPATH=src PERFBENCH_TRACE_FILE=out.json \
       python perfbench/traced_cli.py <thorntrees arguments>

The wrappers are installed from here, so the library is unchanged.  Each
call is a span (name, start, end, parent); a generator's spans are its
individual next() calls, so its self time excludes its consumer.  Self
time is a span's duration minus the time its child spans cover.  Counts
are exact.  Spans are kept in memory up to SPAN_CAP per command (counts
and self times always cover every call) and written as JSON at exit,
together with the aggregates.
"""

from __future__ import annotations

import json
import os
import sys
import time

perf = time.perf_counter

_t0 = perf()
import thorntrees.cli as cli  # noqa: E402
IMPORT_S = perf() - _t0

from thorntrees import (bijection, counting, dot, oracle, partition,  # noqa: E402
                        perm, structures, symfun)

SPAN_CAP = 20000
ORACLE_SWEEPS = ("oracle.enumerate_A", "oracle.enumerate_B",
                 "oracle.enumerate_Bprime", "oracle.enumerate_CD")


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, start, child_time, span_id, parent_id]
        self.calls = {}
        self.self_s = {}
        self.yielded = {}
        self.counters = {}
        self.active = {}
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.instances = []  # (name, key, iterator, created inside a sweep)

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def enter(self, name):
        self.active[name] = self.active.get(name, 0) + 1
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][3] if self.stack else -1
        self.stack.append([name, perf(), 0.0, sid, parent])

    def exit(self):
        end = perf()
        name, start, child, sid, parent = self.stack.pop()
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self.stack:
            self.stack[-1][2] += dur
        self.active[name] -= 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped += 1

    def in_sweep(self):
        return any(self.active.get(n) for n in ORACLE_SWEEPS)

    def distinct(self, name, in_sweep=None):
        """(distinct objects, objects yielded) over the iterators of `name`.

        Iterators with equal keys enumerate the same objects, so the
        distinct count of a key is its largest single enumeration.
        """
        best, total = {}, 0
        for n, key, it, sweep in self.instances:
            if n != name or (in_sweep is not None and sweep != in_sweep):
                continue
            best[key] = max(best.get(key, 0), it.count)
            total += it.count
        return sum(best.values()), total


class TracedIter:
    __slots__ = ("it", "name", "tr", "count")

    def __init__(self, tr, name, it):
        self.tr, self.name, self.it, self.count = tr, name, it, 0

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tr
        tr.enter(self.name)
        try:
            value = next(self.it)
        finally:
            tr.exit()
        self.count += 1
        tr.yielded[self.name] = tr.yielded.get(self.name, 0) + 1
        return value


def wrap_call(tr, name, fn, after=None):
    def wrapper(*args, **kwargs):
        tr.calls[name] = tr.calls.get(name, 0) + 1
        tr.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.exit()
        if after is not None:
            after(result)
        return result
    return wrapper


def wrap_gen(tr, name, fn, key=None):
    def wrapper(*args, **kwargs):
        tr.calls[name] = tr.calls.get(name, 0) + 1
        it = TracedIter(tr, name, fn(*args, **kwargs))
        if key is not None:
            tr.instances.append((name, key(*args, **kwargs), it, tr.in_sweep()))
        return it
    return wrapper


def install(tr):
    """Replace each layer's public functions, in every thorntrees module
    that holds a reference to them (``from .partition import ...``)."""
    modules = [m for n, m in sys.modules.items()
               if n == "thorntrees" or n.startswith("thorntrees.")]

    def rebind(mod, attr, wrapper):
        original = getattr(mod, attr)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is original:
                    setattr(m, k, wrapper)

    def func(mod, attr, after=None):
        name = "%s.%s" % (mod.__name__.rsplit(".", 1)[1], attr)
        rebind(mod, attr, wrap_call(tr, name, getattr(mod, attr), after))

    def gen(mod, attr, key=None):
        name = "%s.%s" % (mod.__name__.rsplit(".", 1)[1], attr)
        rebind(mod, attr, wrap_gen(tr, name, getattr(mod, attr), key))

    def method(cls, attr, name):
        setattr(cls, attr, wrap_call(tr, name, getattr(cls, attr)))

    method(partition.Partition, "__init__", "partition.Partition")
    method(partition.Partition, "up", "partition.up_down")
    method(partition.Partition, "down", "partition.up_down")
    method(perm.Permutation, "__init__", "perm.Permutation")
    method(perm.Permutation, "cycles", "perm.cycles")
    method(structures.PermutedThornTree, "__init__",
           "structures.PermutedThornTree")

    gen(partition, "partitions_of")
    gen(partition, "set_partitions_of_type")
    gen(partition, "permutations_in", key=lambda pi: ("pair", pi.blocks))
    gen(perm, "all_permutations", key=lambda n: ("S", n))
    gen(structures, "all_star_maps")
    gen(structures, "all_permuted_trees",
        key=lambda lam, *a, **k: tuple(lam.parts))

    func(counting, "solve_B",
         after=lambda table: tr.count("counting.solve_B.entries",
                                      len(table.entries)))
    for attr in ("enumerate_A", "enumerate_B", "enumerate_Bprime",
                 "enumerate_CD"):
        func(oracle, attr)

    def psi_after(_result):
        if tr.active.get("bijection.psi_inverse"):
            tr.count("bijection.psi.calls_in_inverse")

    func(bijection, "psi", after=psi_after)
    func(bijection, "psi_inverse",
         after=lambda out: tr.count("bijection.psi_inverse.successes",
                                    1 if out.success else 0))
    func(bijection, "classify")
    func(structures, "serialize")
    func(structures, "deserialize")
    func(dot, "to_dot")
    for attr in ("p_to_m", "m_to_p", "verify_C2A", "verify_D2B",
                 "verify_reduction"):
        func(symfun, attr)
    func(cli, "main")


def summary(tr):
    objects = {}
    for name in ("perm.all_permutations", "partition.permutations_in"):
        d, t = tr.distinct(name, in_sweep=True)
        objects[name] = {"distinct": d, "visited": t}
    trees_distinct, trees_total = tr.distinct("structures.all_permuted_trees")
    return {"calls": tr.calls, "self_s": tr.self_s, "yielded": tr.yielded,
            "counters": tr.counters, "import_s": IMPORT_S,
            "sweep_objects": objects,
            "trees": {"distinct": trees_distinct, "yielded": trees_total},
            "spans": tr.spans, "spans_dropped": tr.dropped}


def main(argv):
    tr = Tracer()
    install(tr)
    code = cli.main(argv)
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_TRACE_FILE"], "w") as fh:
        json.dump(summary(tr), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
