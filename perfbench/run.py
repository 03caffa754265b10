#!/usr/bin/env python3
"""socenv benchmark: one closed-loop client runs one workload in one process.

    python3 perfbench/run.py --workload avp-solve --seed 0 --seconds 30 --trace 0

Workloads: academic-table, avp-solve, avp-rollout (see README.md).  The run
builds its inputs from --seed, repeats passes for about --seconds seconds and
checks every case a pass produces.  --trace 0 reports the end-to-end metrics;
--trace 1 runs one untraced pass, then traced passes, and reports the
per-layer metrics.  The last line of standard output is the JSON result; the
full report (provenance, cases, span tables) goes to .perfbench_out/.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"   # before numpy is loaded, here and in the set-up children

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("academic-table", "avp-solve", "avp-rollout")
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import socenv from this checkout's src/, never from an installed copy."""
    package = SRC / "socenv"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a socenv checkout")
    sys.path.insert(0, str(SRC))
    import socenv
    if Path(socenv.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported socenv from {socenv.__file__}, not {package}")


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of SETUP_RUNS cold starts, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "cold_start.py"), workload, str(seed)],
                       cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_passes(workload, clock, seconds: float, body=None) -> list:
    """Passes, one after another, while the next is expected to end within ``seconds``.

    ``body(index, run_pass)`` runs one pass (the traced run puts it under a
    root span).  Returns one sample dict per pass.
    """
    from workloads import Case
    body = body or (lambda index, run_pass: run_pass())
    samples = []
    start = time.perf_counter()
    while True:
        clock.take()
        t0 = time.perf_counter()
        try:
            cases = body(len(samples), workload.run_pass)
        except Exception:   # noqa: BLE001 -- a crashed pass fails all of its cases
            error = traceback.format_exc(limit=3)
            cases = [Case("pass", failures=[error])] * workload.cases_per_pass
        pass_s = time.perf_counter() - t0
        tally = clock.take()
        samples.append({"pass_s": pass_s, "solve_s": tally.solve_s,
                        "verify_s": tally.verify_s, "cases": cases})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(s["pass_s"] for s in samples) > seconds:
            return samples


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, sample_counts: dict) -> dict:
    import numpy
    import scipy
    import sympy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "load": "closed loop, 1 client, 1 process, cases run one after another",
        "samples": sample_counts,
    }


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def timed_run(args, workload, clock):
    setup = measure_setup(args.workload, args.seed)
    samples = run_passes(workload, clock, args.seconds)
    solve = workload.solve_s_samples or [s["solve_s"] for s in samples]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": median_of(samples, "pass_s"),
        "solve_s": statistics.median(solve),
        "verify_s": median_of(samples, "verify_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setup), "pass_s": len(samples), "solve_s": len(solve),
              "verify_s": len(samples), "peak_rss_mb": 1}
    detail = {"setup_s": setup, "solve_s": solve,
              "passes": [{k: v for k, v in s.items() if k != "cases"} for s in samples]}
    return samples, metrics, END_TO_END, counts, detail


def traced_run(args, workload, clock):
    from layers import LAYER_METRICS, Tracer, layer_metrics
    t_start = time.perf_counter()
    untraced = run_passes(workload, clock, 0.0)
    tracer = Tracer()
    tracer.install()
    if getattr(workload, "ocp", None) is not None:
        tracer.instrument_ocp(workload.ocp)
    untraced_pass_s = untraced[0]["pass_s"]
    tables, per_pass = [], []

    def body(index, run_pass):
        cases, (lo, hi) = tracer.run_pass(f"pass{index}", run_pass)
        table = tracer.span_table(lo, hi)
        tables.append(table)
        per_pass.append(layer_metrics(table, tracer.counters, untraced_pass_s,
                                      workload.model_build_s))
        return cases

    remaining = args.seconds - (time.perf_counter() - t_start)
    samples = run_passes(workload, clock, remaining, body)
    tracer.write(OUT / f"spans-{args.workload}.npz")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in LAYER_METRICS}
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    counts = {"traced_passes": len(per_pass), "untraced_passes": len(untraced)}
    detail = {"span_tables": tables, "per_pass": per_pass}
    return untraced + samples, metrics, units, counts, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from clock import Clock
    from workloads import WORKLOADS

    clock = Clock()
    clock.install()
    workload = WORKLOADS[args.workload](args.seed, clock)
    workload.prepare()
    OUT.mkdir(exist_ok=True)
    run = traced_run if args.trace else timed_run
    samples, metrics, units, counts, detail = run(args, workload, clock)

    cases = [c for s in samples for c in s["cases"]]
    failed = [c for c in cases if c.failures]
    report = {
        "provenance": provenance(args, counts),
        "attempted": len(cases), "failed": len(failed),
        "fail_ratio": len(failed) / len(cases),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": [{"case": c.label, "why": c.failures} for c in failed],
        "cases": [{"case": c.label, "values": c.values} for c in cases[:len(samples[0]["cases"])]],
        "detail": detail,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print("provenance " + json.dumps(report["provenance"]))
    for c in failed:
        print(f"FAILED {c.label}: {'; '.join(c.failures)}")
    print(f"cases attempted {len(cases)} failed {len(failed)} "
          f"fail_ratio {report['fail_ratio']:.4g}")
    for name, m in report["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not failed, "attempted": len(cases), "failed": len(failed),
              "metrics": report["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
