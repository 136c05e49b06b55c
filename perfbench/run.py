"""causaltraj benchmark: training and sampling throughput, end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics (``scenes_per_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` measures untraced units first, then installs
the span tracer (``tracer.py``) and prints per-layer numbers per unit (a
training step or a sample pass) with the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a report with the
environment, the generating parameters and the metrics under the names a
user reads (``train_scenes_per_s``, ``sample_scenarios_per_s``,
``failed_share``). ``--workload all`` runs every workload in its own process
with both trace settings and prints one table. Records and spans land in
``.perfbench_out/``.

``scenes_per_s`` is scaled to a reference host speed by a probe timed
between units (see ``workloads``); the report line gives the wall-clock rate
under the user-facing name.

Each workload process uses one BLAS/OpenMP thread.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before numpy is imported: set-up counts imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("train_full", "train_small_ssm", "sample_small")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
MIN_UNITS = 3
UNTRACED_SHARE = 0.35     # of --seconds, in a traced run, before the tracer goes in
CHILD_TIMEOUT_S = 900


def limit_threads() -> int:
    """Pin BLAS/OpenMP to one thread; returns nproc.

    On a 2-vCPU shared host a second BLAS thread made train_full about 4%
    faster and train_small_ssm about 12% slower, and it makes every GEMM wait
    for the slower of two shared cores, which widens the run-to-run spread.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    nproc = limit_threads()
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads

    import_s = time.perf_counter() - T_START
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl, params = workloads.make(args.workload, args.size == "tiny", workdir)
        setup_times = []
        for _ in range(SETUP_REPS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
        tracer_mod.assert_untouched()
        tr = None
        if args.trace == 0:
            units = workloads.measure(wl, args.seconds, MIN_UNITS)
            timed = units
        else:
            untraced = workloads.measure(wl, args.seconds * UNTRACED_SHARE, 1)
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                timed = workloads.measure(wl, args.seconds * (1.0 - UNTRACED_SHARE), 1,
                                          tr.recording)
            finally:
                tr.uninstall()
            units = untraced + timed
        try:
            ok, detail = wl.final_check()
        except Exception as e:  # a raising check counts as a failed operation
            ok, detail = False, f"final check raised {e!r}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u.attempted for u in units) + 1
    failed = sum(u.failed for u in units) + (not ok)
    notes = [n for u in units for n in u.notes] + ([] if ok else [detail])
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    host_exponent = workloads.WORKLOADS[args.workload]["host_exponent"]
    scenes_per_s = workloads.rate(timed, host_exponent)
    named = {}
    if tr is None:
        metrics = {
            "scenes_per_s": metric(scenes_per_s, "scenes/s"),
            "setup_s": metric(import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        wall_rate = workloads.rate(timed, 0.0)
        if workloads.WORKLOADS[args.workload]["kind"] == "train":
            named["train_scenes_per_s"] = metric(wall_rate, "scenes/s")
        else:
            named["sample_scenarios_per_s"] = metric(wall_rate, "scenarios/s")
        named.update(setup_s=metrics["setup_s"], peak_rss_mb=metrics["peak_rss_mb"],
                     failed_share=metric(failed / attempted, "share"))
    else:
        untraced_rate = workloads.rate(untraced, host_exponent)
        layer = tr.summary(sum(u.steps for u in timed if not u.raised))
        layer["trainer.skipped"] = wl.skipped
        layer["trace.scenes_per_s"] = scenes_per_s
        layer["trace.untraced_scenes_per_s"] = untraced_rate
        layer["trace_overhead_pct"] = (untraced_rate / scenes_per_s - 1.0) * 100.0
        metrics = {k: metric(v, tracer_mod.UNITS[k]) for k, v in layer.items()}
        tr.write_spans(OUT / f"{args.workload}-trace1.spans.jsonl")

    seconds = [u.seconds for u in timed if not u.raised]
    report = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload]["why"],
        "params": params,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "units": len(seconds),
        "unit_seconds": {"median": statistics.median(seconds), "min": min(seconds),
                         "max": max(seconds), "all": seconds},
        "host_probe_s": {"median": statistics.median(u.probe_s for u in timed),
                         "reference": workloads.PROBE_REF_S, "exponent": host_exponent},
        "setup_reps_s": setup_times,
        "import_s": import_s,
        "named": named,
        "checks": {"rollout_consistency": detail, "failures": notes},
        "env": environment(nproc),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    rows, all_ok = [], True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            all_ok &= result["correct"]
            shown = report["named"] if trace == 0 else result["metrics"]
            rows += [(name, trace, k, m["value"], m["unit"]) for k, m in shown.items()]
            if trace == 0:
                env = report["env"]
    print(f"environment: {json.dumps(env)}")
    print(f"{'workload':<16} {'trace':>5}  {'metric':<32} {'value':>14}  unit")
    for name, trace, k, v, u in rows:
        print(f"{name:<16} {trace:>5}  {k:<32} {v:>14.6g}  {u}")
    return 0 if all_ok else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the smoke test's reduced inputs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "causaltraj" / "__init__.py").is_file():
        print(f"perfbench: no causaltraj sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
