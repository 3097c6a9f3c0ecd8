"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/expected.json: exact game values (node counts kept for
reference only), known-k exact expectations, CLI stdout for each replayed
command, and the rows digest of each simulation workload's default-seed
slice.  Run it only on the commit whose outputs are the reference: a later
change that alters any of these outputs is a behaviour change, and the
benchmark is meant to catch it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    lc, cli = run.load_package()
    minimax = {}
    for cell in workloads.MINIMAX_CELLS:
        result = lc.exact_game_value(*cell)
        minimax[workloads.tuple_key(cell)] = {"value": result.value, "nodes": result.nodes}
    known = {
        workloads.tuple_key(sizes): str(lc.exact_expected_queries(sizes, True))
        for sizes in list(workloads.compositions(7)) + list(workloads.EXHAUSTIVE_N8)
    }
    stdout = {}
    for name, commands in run.CLI_REPLAYS.items():
        stdout[name] = []
        for argv in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{argv} exited {code}")
            stdout[name].append(buf.getvalue())
    digests = {}
    for name, make in workloads.REFERENCES.items():
        tasks = make(lc)
        outputs = [task.run() for task in tasks]
        problems = [task.check(out) for task, out in zip(tasks, outputs)]
        if any(problems):
            raise SystemExit(f"{name}: {[p for p in problems if p][:3]}")
        digests[name] = workloads.rows_digest(outputs)
    data = {"minimax": minimax, "known_k": known, "cli": stdout, "digests": digests}
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
