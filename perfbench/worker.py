"""One worker process of an untraced run.

    python3 perfbench/worker.py ROOT WORKDIR WORKLOAD SEED SECONDS INDEX COUNT FIRST_OP

Times `import specfact.cli` plus FIRST_OP (the workload's first op, as
written by Op.to_json) from the start of this script: that is one set-up
sample.  Then it runs share INDEX of COUNT of the workload's ops
(Workload.share) and prints one JSON line: the set-up time, its peak RSS
and one record per op.  Each run spreads its ops over several workers
because one process's speed differs from the next by more than a run's
op-to-op noise; pooling averages that out.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> int:
    root, workdir, name = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
    seed, seconds, index, count = (int(a) for a in sys.argv[4:8])
    first = json.loads(sys.argv[8])
    src = root / "src"
    sys.path.insert(0, str(src))
    import specfact.cli  # noqa: F401
    import specfact
    if Path(specfact.__file__).resolve().parent != (src / "specfact").resolve():
        print(f"specfact was not imported from {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from stats import timed
    from workloads import WORKLOADS, Step, run_step

    for kind, args in first:
        run_step(Step(kind, args))
    setup_s = time.perf_counter() - START

    ops, time_box = WORKLOADS[name].share(seed, seconds, index, count, workdir)
    records = []
    start = time.perf_counter()
    for op in ops:
        wall, cal, results = timed(op)
        v = op.verdict(results)
        records.append([op.label, wall, cal, v.ok, v.consistent, v.reason,
                        op.fragile, op.items])
        if time_box is not None and time.perf_counter() - start >= time_box:
            break
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
