#!/usr/bin/env python3
"""The thorntrees benchmark.

    python3 perfbench/run.py --workload {solver,oracle,bijection,identities}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each pass runs the workload's
commands one at a time, each in a fresh `python -m thorntrees.cli`
process with PYTHONPATH=src (a closed loop with one client).  Passes
repeat until the next one would end after --seconds.  Every command's
exit code and stdout are checked against the golden digests in
golden.json and against checks.py, which shares no code with the
library.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
on untraced passes and half on passes through traced_cli.py, and prints
the per-layer metrics; its spans go to .perfbench_out/.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

--seed drives only the generated inputs of the `bijection` workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SHOTS_FIRST = 3
SETUP_SHOTS_PER_PASS = 2
SETUP_CODE = "import thorntrees.cli as c; c.build_parser()"
# Generated bijection inputs have a fixed shape, so their cost does not
# depend on the seed: n = 2000, beta of type 250^8 with blocks of two
# cycles, trees with four black vertices of degree 500.
GEN_N = 2000
GEN_CYCLES = 8
GEN_PER_BLOCK = 2
GEN_BLACKS = 4
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


class Command:
    def __init__(self, argv, checks_, golden=None, feeds=None):
        self.argv = argv
        self.label = " ".join(argv)
        self.checks = checks_
        self.golden = golden
        self.feeds = feeds  # file that receives this command's stdout


class Result:
    def __init__(self, cmd, wall, cpu, rss_kb, rc, out, trace=None):
        self.cmd, self.wall, self.cpu, self.rss_kb = cmd, wall, cpu, rss_kb
        self.rc, self.out, self.trace = rc, out, trace
        self.stderr = ""
        self.problems = []
        self.known_defect = False


# ---------------------------------------------------------------------------
# workloads


def fixed_commands(spec, golden):
    return [Command(c["argv"].split(), [checks.build(s) for s in c["checks"]],
                    golden[c["argv"]])
            for c in spec["commands"]]


def _json_check(fn):
    """Wrap a check on parsed JSON so that unparsable output is a problem."""
    def check(text):
        try:
            obj = json.loads(text)
        except ValueError:
            return ["stdout is not JSON: %r" % text[:80]]
        return fn(obj)
    return check


def generated_commands(rng, work):
    """Seeded large inputs for the bijection workload and their checks."""
    star = gen.random_star_map(rng, GEN_N, GEN_CYCLES, GEN_PER_BLOCK)
    trees = {kind: gen.sample_tree(rng, GEN_N, GEN_BLACKS, kind)
             for kind in ("image", "cycle", "no_p1")}
    work = work.relative_to(ROOT)  # commands run with cwd=ROOT
    paths = {"map": work / "map.json", "psi": work / "psi_of_map.json"}
    (ROOT / paths["map"]).write_text(gen.canonical(star) + "\n")
    for kind, tree in trees.items():
        paths[kind] = work / ("%s_tree.json" % kind)
        (ROOT / paths[kind]).write_text(gen.canonical(gen.tree_json(tree)) + "\n")
    block_sizes = sorted(len(b) for b in star["pi"])

    def psi_ok(obj):
        tree = gen.tree_from_json(obj)
        degrees = sorted(1 + t for t in tree["thorns"])
        problems = []
        if gen.image_kind(tree) != "image":
            problems.append("psi output fails the P1/P2 image test")
        if degrees != block_sizes:
            problems.append("psi output degrees %r != block sizes %r"
                            % (degrees[:5], block_sizes[:5]))
        return problems

    def roundtrip_ok(obj):
        if obj.get("status") != "success":
            return ["invert of psi output: status %r" % obj.get("status")]
        return [] if obj["map"] == star else ["invert(psi(m)) != m"]

    def invert_image_ok(obj):
        if obj.get("status") != "success":
            return ["invert of an image tree: status %r" % obj.get("status")]
        want = gen.tree_json(trees["image"])
        del want["sigma"]
        problems = []
        if obj["labeled"]["tree"] != want:
            problems.append("recovered labeled tree has another shape")
        if not gen.is_star_map(obj["map"]):
            problems.append("recovered map is not a star map")
        if (sorted(len(b) for b in obj["map"]["pi"])
                != sorted(1 + t for t in trees["image"]["thorns"])):
            problems.append("recovered map type differs from tree degrees")
        return problems

    def classify_ok(kind):
        def fn(obj):
            if obj.get("kind") != kind:
                return ["classify says %r, P1/P2 test says %r"
                        % (obj.get("kind"), kind)]
            if kind == "cycle" and not gen.is_aux_cycle(trees["cycle"],
                                                        obj.get("cycle")):
                return ["reported cycle %r is not a cycle of the aux graph"
                        % obj.get("cycle")]
            return []
        return fn

    def aux_dot_ok(text):
        root, out = gen.aux_out(trees["cycle"])
        roots = re.findall(r"b(\d+) \[shape=doublecircle", text)
        edges = {int(a): int(b) for a, b in re.findall(r"b(\d+) -> b(\d+);", text)}
        if roots != [str(root)] or edges != out:
            return ["aux DOT differs from the recomputed auxiliary graph"]
        return []

    def tree_dot_ok(text):
        """Each white thorn and its sigma partner carry the same label, and
        every root slot is drawn in order."""
        tree = trees["image"]
        white = dict((int(s), lab) for s, lab in
                     re.findall(r'root -- wt(\d+) \[label="([^"]*)"', text))
        black = dict(((int(b), int(t)), lab) for b, t, lab in
                     re.findall(r'b(\d+) -- bt\d+_(\d+) \[label="([^"]*)"', text))
        slots = re.findall(r"root -- (b|wt)(\d+)", text)
        want = [("b", str(v)) if v is not None else ("wt", str(s))
                for s, v in enumerate(tree["white"])]
        problems = []
        if slots != want:
            problems.append("root slots drawn differently from the tree")
        if (len(set(white.values())) != len(white)
                or any(black.get(bt) != white.get(w)
                       for w, bt in tree["sigma"].items())):
            problems.append("sigma-paired thorns do not share labels")
        return problems

    def cmd(args, check, feeds=None):
        return Command(args, [check], feeds=feeds and ROOT / feeds)

    t = "transform"
    return [
        cmd([t, "psi", str(paths["map"])], _json_check(psi_ok), paths["psi"]),
        cmd([t, "invert", str(paths["psi"])], _json_check(roundtrip_ok)),
        cmd([t, "classify", str(paths["image"])], _json_check(classify_ok("image"))),
        cmd([t, "invert", str(paths["image"])], _json_check(invert_image_ok)),
        cmd([t, "classify", str(paths["cycle"])], _json_check(classify_ok("cycle"))),
        cmd(["export-dot", str(paths["cycle"]), "--aux"], aux_dot_ok),
        cmd(["export-dot", str(paths["image"])], tree_dot_ok),
        cmd([t, "classify", str(paths["no_p1"])], _json_check(classify_ok("no_p1"))),
    ]


# ---------------------------------------------------------------------------
# running commands


def child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(extra or {})
    return env


def spawn(argv, env, err_path):
    """Run argv to completion; return (wall, cpu, max_rss_kb, rc, stdout)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            proc.returncode, out)


def run_pass(cmds, work, traced):
    results = []
    for i, cmd in enumerate(cmds):
        extra = None
        if traced:
            trace_file = work / ("trace_%d.json" % i)
            extra = {"PERFBENCH_TRACE_FILE": str(trace_file)}
            prefix = [sys.executable, str(HERE / "traced_cli.py")]
        else:
            prefix = [sys.executable, "-m", "thorntrees.cli"]
        wall, cpu, rss, rc, out = spawn(prefix + cmd.argv, child_env(extra),
                                        work / "stderr.txt")
        trace = None
        if traced and trace_file.exists():
            trace = json.loads(trace_file.read_text())
            trace_file.unlink()
        res = Result(cmd, wall, cpu, rss, rc, out, trace)
        if rc != 0:
            res.stderr = (work / "stderr.txt").read_text(errors="replace")[-400:]
        if cmd.feeds is not None:
            cmd.feeds.write_bytes(out)
        results.append(res)
    for res in results:
        judge(res)
    return results


def judge(res):
    cmd = res.cmd
    digest = hashlib.sha256(res.out).hexdigest()
    expected_rc = cmd.golden["rc"] if cmd.golden else 0
    if res.rc != expected_rc:
        res.problems.append("exit code %d: %s" % (res.rc, res.stderr.strip()))
    if cmd.golden is not None and digest != cmd.golden["sha256"]:
        res.problems.append("stdout digest differs from golden")
    text = res.out.decode("utf-8", errors="replace")
    for check in cmd.checks:
        try:
            res.problems += check(text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            res.problems.append("output check raised %r" % exc)
    defect = (cmd.golden or {}).get("known_defect")
    res.known_defect = bool(res.problems and defect and res.rc == expected_rc
                            and digest == defect["sha256"])


def run_passes(cmds, work, seconds, traced, min_passes, after_pass=None):
    """Passes until the next one (as long as the longest so far) would
    end after `seconds`."""
    passes, longest = [], 0.0
    start = time.perf_counter()
    while len(passes) < min_passes or (
            time.perf_counter() - start + longest <= seconds):
        t0 = time.perf_counter()
        passes.append(run_pass(cmds, work, traced))
        if after_pass is not None:
            after_pass()
        longest = max(longest, time.perf_counter() - t0)
    return passes


def setup_shot(work):
    """Wall time of a fresh interpreter importing the CLI and building its
    parser: what every invocation pays before doing any work."""
    wall, _, _, rc, _ = spawn([sys.executable, "-c", SETUP_CODE], child_env(),
                              work / "stderr.txt")
    if rc != 0:
        raise RuntimeError("importing thorntrees.cli failed: %s"
                           % (work / "stderr.txt").read_text()[-400:])
    return wall


# ---------------------------------------------------------------------------
# metrics


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n).  Below 10 * TAIL_BEYOND samples that
    percentile would lie under p90, which is no tail, so the maximum
    (percentile 100) is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 10 * TAIL_BEYOND:
        return xs[-1], 100, n
    return xs[n - TAIL_BEYOND - 1], int(100 * (n - TAIL_BEYOND) / n), n


def end_to_end(passes, setup_shots):
    walls = [sum(r.wall for r in p) for p in passes]
    tail_v, tail_q, tail_n = tail(walls)
    all_results = [r for p in passes for r in p]
    attempted = len(all_results)
    failed = sum(1 for r in all_results if r.problems)
    metrics = {
        "setup_s": (statistics.median(setup_shots), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_tail_s": (tail_v, "s"),
        "cmd_p50_s": (statistics.median(r.wall for r in all_results), "s"),
        "cpu_s": (statistics.median(sum(r.cpu for r in p) for p in passes), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_kb for r in p) / 1024.0
                                          for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    notes = ["setup_s is the median of %d shots" % len(setup_shots),
             "wall_tail_s is the p%d of %d pass walls" % (tail_q, tail_n),
             "fail_frac %.6f (%d of %d commands)"
             % (failed / attempted, failed, attempted)]
    return metrics, notes


def per_layer(untraced, traced):
    """Per-pass layer metrics: times are medians over traced passes, counts
    come from the first traced pass (they repeat exactly)."""
    def per_pass(p):
        agg = {"calls": {}, "self_s": {}, "yielded": {}, "counters": {}}
        sweep = {"distinct": 0, "visited": 0}
        trees = {"distinct": 0, "yielded": 0}
        import_s = 0.0
        for r in p:
            tr = r.trace or {}
            for kind in agg:
                for k, v in tr.get(kind, {}).items():
                    agg[kind][k] = agg[kind].get(k, 0) + v
            for o in tr.get("sweep_objects", {}).values():
                sweep["distinct"] += o["distinct"]
                sweep["visited"] += o["visited"]
            for k in trees:
                trees[k] += tr.get("trees", {}).get(k, 0)
            import_s += tr.get("import_s", 0.0)
        return agg, sweep, trees, import_s

    views = [per_pass(p) for p in traced]

    def med_self(name):
        return statistics.median(v[0]["self_s"].get(name, 0.0) for v in views)

    agg, sweep, trees, _ = views[0]
    calls, yielded, counters = agg["calls"], agg["yielded"], agg["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("partition.partitions_of", "partition.Partition",
                 "partition.up_down", "counting.solve_B", "cli.main",
                 "perm.Permutation", "perm.cycles",
                 "partition.set_partitions_of_type", "partition.permutations_in",
                 "oracle.enumerate_A", "oracle.enumerate_B",
                 "oracle.enumerate_Bprime", "oracle.enumerate_CD",
                 "structures.all_permuted_trees", "bijection.psi",
                 "bijection.psi_inverse", "bijection.classify",
                 "structures.deserialize", "structures.serialize", "dot.to_dot",
                 "symfun.p_to_m", "symfun.m_to_p", "symfun.verify_C2A",
                 "symfun.verify_D2B", "symfun.verify_reduction"):
        m[name + ".self_s"] = (med_self(name), "s")
    for name in ("partition.Partition", "partition.up_down", "counting.solve_B",
                 "perm.Permutation", "perm.cycles",
                 "structures.PermutedThornTree", "bijection.psi",
                 "bijection.psi_inverse", "bijection.classify"):
        m[name + ".calls"] = (calls.get(name, 0), "count")
    for name in ("perm.all_permutations", "partition.permutations_in",
                 "structures.all_star_maps", "structures.all_permuted_trees"):
        m[name + ".yielded"] = (yielded.get(name, 0), "count")
    m["counting.solve_B.entries"] = (counters.get("counting.solve_B.entries", 0), "count")
    m["cli.stdout_bytes"] = (sum(len(r.out) for r in traced[0]), "bytes")
    m["cli.import_s"] = (statistics.median(v[3] for v in views), "s")
    m["oracle.sweeps"] = (sum(calls.get(n, 0) for n in (
        "oracle.enumerate_A", "oracle.enumerate_B", "oracle.enumerate_Bprime",
        "oracle.enumerate_CD")), "count")
    m["oracle.objects_visited"] = (sweep["visited"], "count")
    m["oracle.useful_ratio"] = (ratio(sweep["distinct"], sweep["visited"]), "ratio")
    m["structures.enum_useful_ratio"] = (ratio(trees["distinct"], trees["yielded"]),
                                         "ratio")
    m["bijection.psi.calls_in_inverse"] = (
        counters.get("bijection.psi.calls_in_inverse", 0), "count")
    m["bijection.psi_inverse.success_ratio"] = (
        ratio(counters.get("bijection.psi_inverse.successes", 0),
              calls.get("bijection.psi_inverse", 0)), "ratio")
    wall_u = statistics.median(sum(r.wall for r in p) for p in untraced)
    wall_t = statistics.median(sum(r.wall for r in p) for p in traced)
    m["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "ratio")

    notes = []
    for i, v in enumerate(views[1:], start=2):
        if (v[0]["calls"], v[0]["yielded"], v[0]["counters"]) != (calls, yielded, counters):
            notes.append("WARNING: traced pass %d counted differently from pass 1" % i)
    return m, notes


def write_trace(workload, seed, traced):
    """Spans of the first traced pass plus the per-command aggregates."""
    OUT_DIR.mkdir(exist_ok=True)
    commands = []
    for cid, r in enumerate(traced[0]):
        tr = dict(r.trace or {})
        spans = [[cid] + s for s in tr.pop("spans", [])]
        commands.append({"id": cid, "argv": r.cmd.label, "wall_s": r.wall,
                         "spans": spans, **tr})
    path = OUT_DIR / ("trace-%s-seed%d.json" % (workload, seed))
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed,
         "span_fields": ["command_id", "span_id", "name", "start", "end",
                         "parent_id"],
         "commands": commands}, separators=(",", ":")))
    return path


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    manifest = json.loads((HERE / "manifest.json").read_text())
    if args.workload not in manifest["workloads"]:
        ap.error("unknown workload %r" % args.workload)
    if not (ROOT / "src" / "thorntrees" / "cli.py").is_file():
        print("error: no thorntrees sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())["commands"]
    print("env: python %s, %s cpus, %s" % (platform.python_version(),
                                           os.cpu_count(), platform.machine()),
          file=sys.stderr)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        spec = manifest["workloads"][args.workload]
        cmds = fixed_commands(spec, golden)
        if "generated" in spec:
            cmds += generated_commands(random.Random(args.seed), work)

        # the first import compiles bytecode; every user invocation after
        # that finds it cached, so set-up is timed warm
        setup_shot(work)
        if args.trace:
            untraced = run_passes(cmds, work, args.seconds / 2, False, 1)
            traced = run_passes(cmds, work, args.seconds / 2, True, 1)
            metrics, notes = per_layer(untraced, traced)
            notes.append("trace written to %s"
                         % write_trace(args.workload, args.seed, traced)
                         .relative_to(ROOT))
            passes, shown = untraced + traced, traced
        else:
            # set-up shots are spread over the run like the passes
            shots = [setup_shot(work) for _ in range(SETUP_SHOTS_FIRST)]
            passes = run_passes(
                cmds, work, args.seconds, False, 2,
                lambda: shots.extend(setup_shot(work)
                                     for _ in range(SETUP_SHOTS_PER_PASS)))
            metrics, notes = end_to_end(passes, shots)
            shown = passes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for p in passes for r in p]
    failed = [r for r in results if r.problems]
    unexpected = [r for r in failed if not r.known_defect]
    seen = set()
    for r in failed:
        if r.cmd.label in seen:
            continue
        seen.add(r.cmd.label)
        tag = "known defect" if r.known_defect else "FAILED"
        print("%s: %s: %s" % (tag, r.cmd.label, "; ".join(r.problems)))
    print("passes: %d, commands per pass: %d" % (len(passes), len(cmds)))
    for i, cmd in enumerate(cmds):
        walls = [p[i].wall for p in shown]
        print("%scommand %.4fs median of %d: %s"
              % ("traced " if args.trace else "", statistics.median(walls),
                 len(walls), cmd.label))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print("%s %s %s" % (name, repr(value), unit))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
