"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout: specfact is imported from ./src,
never from an installed copy, and the run fails (exit 2) when ./src is
missing.  Every op is checked.  With --trace 0 the run reports the
end-to-end metrics, measured with no tracer installed, in worker
processes (worker.py); with --trace 1 it runs a fixed op list in this
process, twice per op, plain and traced, and reports the per-layer metrics
and the tracing overhead.  Metric names and units come
from BENCHMARK.json at the repository root.  Lines before the last one are
a readable report; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE.parent / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from stats import (  # noqa: E402
    CAL_REF_S, Tally, Verdict, at_reference_speed, median, scaled_walls,
    tail, timed)
from workloads import WORKLOADS  # noqa: E402

#: worker processes per untraced run, one after another; each gives one
#: set-up sample, and setup_s is their median
WORKERS = 7
#: traced runs do about this share of --seconds of ops, each op twice
TRACE_SHARE = 0.25
#: time a worker may take beyond the run time: set-up plus one last op
WORKER_TIMEOUT_S = 120
#: warn when the kernel runs this much slower between ops than CAL_REF_S;
#: the machine's own drift kept it between 0.49 and 0.91 over 40 runs
CAL_DRIFT_WARN = 1.5
LIMITS = ("2-core shared VM: timings carry neighbour noise; no "
          "bandwidth or roofline figures, since the 300 MiB L3 rules out "
          "arrays 4x the last-level cache in the memory available")


def import_program(src: Path) -> bool:
    """Import specfact.cli from `src`; False if another copy was imported."""
    sys.path.insert(0, str(src))
    import specfact.cli  # noqa: F401
    import specfact
    return Path(specfact.__file__).resolve().parent == (src / "specfact").resolve()


def openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": openblas_threads(),
            "limits": LIMITS}


def run_worker(wl, seed: int, seconds: int, index: int, root: Path,
               workdir: Path, first) -> dict:
    """Output of worker process `index` of WORKERS (see worker.py)."""
    res = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(root), str(workdir),
         wl.name, str(seed), str(seconds), str(index), str(WORKERS),
         first.to_json()],
        cwd=root, capture_output=True, text=True,
        timeout=seconds + WORKER_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"worker {index} failed: {res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.splitlines()[-1])


def end_to_end(wl, seed: int, seconds: int, root: Path, workdir: Path):
    if wl.time_boxed:
        first = wl.cycle(seed, 0, workdir)[0]
    else:
        first = wl.fixed(seed, seconds, workdir)[0]  # writes every input once
    outs = [run_worker(wl, seed, seconds, i, root, workdir, first)
            for i in range(WORKERS)]

    tally = Tally()
    scaled, walls, passed, cals, items = [], [], [], [], 0
    setups, raw_setups = [], []
    for out in outs:
        w_walls = [rec[1] for rec in out["ops"]]
        w_cals = [rec[2] for rec in out["ops"]]
        scaled += scaled_walls(w_walls, w_cals)
        # the kernel's time right next to one set-up is too noisy to scale
        # it by; the median over the worker's ops follows the machine's
        # drift, which set-up time follows too
        raw_setups.append(out["setup_s"])
        setups.append(at_reference_speed(out["setup_s"], median(w_cals)))
        walls += w_walls
        cals += w_cals
        for label, _, _, ok, consistent, reason, fragile, n in out["ops"]:
            tally.add(label, Verdict(ok, consistent, reason), fragile)
            passed.append(ok)
            items += n if ok else 0
    # a failed op adds its time to the run but no items, and no sample to
    # the op time distribution, so failing fast never reads as a speed-up
    ok_scaled = [t for t, ok in zip(scaled, passed) if ok] or scaled
    ok_walls = [t for t, ok in zip(walls, passed) if ok] or walls

    p_tail, pct, beyond = tail(ok_scaled)
    values = {
        "throughput_per_s": items / sum(scaled),
        "op_ms_p50": 1e3 * median(ok_scaled),
        "op_ms_tail": 1e3 * p_tail,
        "peak_rss_mb": max(out["peak_rss_mb"] for out in outs),
        "setup_s": median(setups),
    }
    n_ok = len(ok_scaled)
    notes = {
        "throughput_per_s": f"{items} items of passed ops in {len(walls)} ops; "
                            f"raw {items / sum(walls):.6g}",
        "op_ms_p50": f"n={n_ok} passed ops; raw {1e3 * median(ok_walls):.6g}",
        "op_ms_tail": f"p{pct:.1f}, {beyond} samples beyond, n={n_ok}; "
                      f"raw {1e3 * tail(ok_walls)[0]:.6g}",
        "peak_rss_mb": f"largest ru_maxrss of the {WORKERS} worker processes",
        "setup_s": f"median of {len(setups)} fresh interpreters; "
                   f"raw {median(raw_setups):.6g}",
    }
    drift = median(cals) / CAL_REF_S
    report = [f"fail_ratio = {tally.fail_ratio:.4f} "
              f"({tally.failed} failed / {tally.attempted} attempted)",
              f"ops ran in {WORKERS} worker processes, one after another",
              "times are at reference speed: wall time / calibration_s() "
              "near the op * CAL_REF_S; 'raw' gives the wall figure",
              f"calibration kernel: median {1e3 * median(cals):.4g} ms between "
              f"ops, {drift:.3f} times CAL_REF_S"]
    if drift > CAL_DRIFT_WARN:
        report.append(f"warning: the calibration kernel ran {drift:.2f}x slower "
                      "between ops than on the reference machine; something "
                      "the program leaves running may slow the whole process, "
                      "and scaling by the kernel hides that. Compare the raw "
                      "figures.")
    return values, notes, tally, report


def computed_counter_names() -> set[str]:
    return {f"{name}.{key}" for name, rows in spans.COMPUTED.items()
            for key, _, _ in rows}


def per_layer(wl, seed: int, seconds: int, workdir: Path, metric_names):
    ops = wl.fixed(seed, TRACE_SHARE * seconds, workdir)
    ops[0].run()
    tally = Tally()
    tracer = spans.Tracer()
    plain = traced = 0.0
    items = 0
    for i, op in enumerate(ops):
        # alternate which pass goes first, so warm-cache effects of running
        # an op twice do not bias the overhead estimate
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_pass:
                gc.collect()
                with tracer.installed():
                    t0 = time.perf_counter()
                    results = tracer.run_op(i, op.run)
                    traced += time.perf_counter() - t0
                tally.add(op.label + "/traced", op.verdict(results), op.fragile)
            else:
                wall, _, results = timed(op)
                plain += wall
                tally.add(op.label, op.verdict(results), op.fragile)
        items += op.items

    summary = spans.layer_summary(tracer.spans)

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    derived = {
        "orlicz.phi_calls_per_norm": (calls("orlicz.NFunction.phi")
                                      / calls("orlicz.orlicz_norm")
                                      if calls("orlicz.orlicz_norm") else 0.0),
        "orlicz.phi_parses_per_trial": calls("orlicz.NFunction.from_json_dict") / items,
        "trace.self_coverage": spans.coverage(tracer.spans),
        "trace.overhead_ratio": traced / plain - 1.0,
        "trace.spans": len(tracer.spans),
    }
    computed = computed_counter_names()
    values = {}
    for name in metric_names:
        if name in derived:
            values[name] = derived[name]
        elif name in computed:
            values[name] = tracer.counters.get(name, 0)
        else:
            span_name, _, key = name.rpartition(".")
            values[name] = summary[span_name][key] if span_name in summary else 0
    notes = {n: "computed from argument shapes" for n in computed}
    report = [f"traced {len(ops)} ops ({items} items), each run plain and "
              f"traced, alternating which goes first: plain {plain:.3f} s, "
              f"traced {traced:.3f} s"]
    return values, notes, tally, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    manifest = json.loads(MANIFEST.read_text())
    seconds = args.seconds or manifest["run_seconds"]
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    specs = manifest["per_layer" if args.trace else "end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in specs}
    root = HERE.parent
    src = root / "src"
    if not (src / "specfact" / "cli.py").is_file():
        print(f"perfbench: no specfact source tree under {src}", file=sys.stderr)
        return 2
    if args.trace and not import_program(src):
        print(f"perfbench: specfact was not imported from {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    workdir = root / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, notes, tally, report = per_layer(
                wl, args.seed, seconds, workdir, units)
        else:
            values, notes, tally, report = end_to_end(
                wl, args.seed, seconds, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")

    print(f"# env {json.dumps(environment())}")
    print(f"# workload {wl.name} seed {args.seed} seconds {seconds} "
          f"trace {args.trace}")
    for line in report:
        print(f"# {line}")
    for reason in tally.reasons[:10]:
        print(f"# not ok: {reason}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name} = {values[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
