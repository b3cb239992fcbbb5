#!/usr/bin/env python3
"""make depth-table: how deep does bounded verification get at the paper's
configuration (3 caches, 2 directories, 2 addresses) on this box?

Runs every clean Table I row (the Class 3 protocols, under their minimal
assignment) through `vnverify -engine seq -store exact` without traces to
MAX_STATES stored states, one process per row, and prints a Markdown table:
protocol, deepest complete level, states, wall time, peak RSS. A row that
would need more than MEM_LIMIT of search-held bytes ends as the typed
`capacity` outcome (GOMEMLIMIT) and reports what it reached.

BFS stores level d+1 while it expands level d, so a bounded run that has
reached depth D holds every state of every level up to D-1: that is the
deepest complete level, and every state below it has been expanded and
found not deadlocked.
"""
import json
import os
import subprocess
import sys
import tempfile
import time

ROWS = [  # Table I's clean rows, in its order
    "CHI", "MSI_nonblocking_cache", "MESI_nonblocking_cache", "TileLink",
    "MSI_completion", "CXL_cache", "MESIF_nonblocking_cache",
]
MAX_STATES = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000_000
MEM_LIMIT = sys.argv[2] if len(sys.argv) > 2 else "6GiB"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    commit = subprocess.run(["git", "-C", root, "describe", "--always", "--dirty"],
                            capture_output=True, text=True).stdout.strip() or "unknown"
    with tempfile.TemporaryDirectory() as tmp:
        exe = os.path.join(tmp, "vnverify")
        subprocess.run(["go", "build", "-o", exe, "./cmd/vnverify"], cwd=root, check=True)
        print(f"commit {commit}, `-max-states {MAX_STATES}`, GOMEMLIMIT={MEM_LIMIT}, "
              f"3c/2d/2a, seq, exact, traces off\n")
        print("| protocol | outcome | deepest complete level | states | wall | peak RSS | held B/state |")
        print("|---|---|---|---|---|---|---|")
        for proto in ROWS:
            stats = os.path.join(tmp, proto + ".json")
            t0 = time.time()
            child = subprocess.Popen([exe, "-engine", "seq", "-store", "exact", "-max-states", str(MAX_STATES),
                                      "-stats-json", stats, proto],
                                     env=dict(os.environ, GOMEMLIMIT=MEM_LIMIT), stdout=subprocess.DEVNULL)
            _, _, usage = os.wait4(child.pid, 0)  # this child's own rusage; ru_maxrss is KiB
            wall = time.time() - t0
            rec = json.load(open(stats))
            snap, outcome = rec["snapshot"], rec["outcome"]
            depth = snap["max_depth"] if outcome == "complete" else snap["max_depth"] - 1
            held = (snap["health"].get("set_bytes", 0) + snap["health"].get("frontier_bytes", 0)) / snap["states"]
            print(f"| {proto} | {outcome} | {depth} | {snap['states']:,} | {wall:.0f} s | {usage.ru_maxrss * 1024 / 1e9:.2f} GB | {held:.0f} |",
                  flush=True)


if __name__ == "__main__":
    sys.exit(main())
