#!/usr/bin/env python3
"""Capture golden stdout digests and exit codes for every fixed workload
command, plus the environment they were captured in, into golden.json.

    python3 perfbench/capture.py

Run from the root of a source checkout at the commit whose outputs are
the behaviour contract.  Commands listed under "known_defects" in
manifest.json print a wrong answer there: their golden digest is that of
the corrected output, and the digest actually printed is kept as the
defect's signature.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys

from run import HERE, child_env, spawn


def corrected(label, out):
    """The right output of a known-defect command.

    `table B n --oracle` prints the solver's table tagged 'solver'; the
    oracle gives the same values tagged 'oracle'.
    """
    if label.startswith("table B ") and "--oracle" in label.split():
        lines = out.decode().splitlines(keepends=True)
        return (lines[0] + "".join(ln.replace(",solver\n", ",oracle\n")
                                   for ln in lines[1:])).encode()
    raise KeyError("no correction known for %r" % label)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    manifest = json.loads((HERE / "manifest.json").read_text())
    golden = {}
    for spec in manifest["workloads"].values():
        for c in spec["commands"]:
            label = c["argv"]
            _, _, _, rc, out = spawn([sys.executable, "-m", "thorntrees.cli"]
                                     + label.split(), child_env(), os.devnull)
            digest = hashlib.sha256(out).hexdigest()
            entry = {"rc": rc, "sha256": digest, "stdout_bytes": len(out)}
            if label in manifest["known_defects"]:
                entry["sha256"] = hashlib.sha256(corrected(label, out)).hexdigest()
                entry["known_defect"] = {"sha256": digest,
                                         "note": manifest["known_defects"][label]}
            golden[label] = entry
            print("%-36s rc=%d %s" % (label, rc, digest[:16]))
    doc = {"environment": {"python": platform.python_version(),
                           "nproc": os.cpu_count(), "cpu": cpu_model(),
                           "machine": platform.machine()},
           "commands": golden}
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1, sort_keys=True)
                                      + "\n")


if __name__ == "__main__":
    main()
