"""Write golden.json: the answer digest of every case at the default seed.

    python3 bench/make_golden.py [workload ...]

Run it only when the workloads change, never to make a failing check pass:
a digest that changes for the same input is a changed answer.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def main(names) -> int:
    path = run.BENCH / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    arrfree = run.load_arrfree()
    workdir = run.make_workdir()
    try:
        for name in names or sorted(workloads.WORKLOADS):
            passes = workloads.Passes(name, run.DEFAULT_SEED)
            runner = run.Runner(arrfree, workdir, None)
            tally = checks.Tally()
            for r in range(len(passes)):
                for case in passes[r]:
                    if case.id in runner.digests:
                        continue
                    _, problems = runner.run(case)
                    tally.record(case.id, problems)
            if tally.failed:
                print(f"{name}: {tally.problems}", file=sys.stderr)
                return 1
            golden[name] = dict(sorted(runner.digests.items()))
            print(f"{name}: {len(runner.digests)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
