"""chainsim benchmark: one workload per invocation, result as a JSON line.

    python3 bench/run.py --workload recovery --seed 3 --seconds 30 --trace 0

With ``--trace 0`` the workload's jobs repeat until ``--seconds`` have
passed and the end-to-end metrics are reported; a fixed probe runs
between jobs, and every timing is scaled to the probe's reference speed
(``bench/hostspeed.py``). With ``--trace 1`` a fixed amount of work runs
twice, plain and then traced, and the per-layer metrics are reported;
the spans are written to ``.bench_out/``. Output checks run outside
every timed region. The last line of standard output is the result
object; the lines before it give every metric with its unit, the
provenance and the output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".bench_out"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import chainsim.cli; "
                "print(time.perf_counter() - t)")
# Workload figures reported beside the layer counters of a traced run.
STAGE_METRICS = ("generate_s", "calibrate_s", "cascade_s", "simulate_s",
                 "cascades_per_s", "cascade_ms_p50", "cascade_ms_p99",
                 "recovered_frac", "failed_frac")


def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout)


def _setup_seconds(workload) -> float:
    t0 = perf_counter()
    workload.setup()
    return perf_counter() - t0


def _repeated(timed, repeats: int, probes: list) -> list:
    """Seconds of ``repeats`` calls of ``timed()``; the host-speed probe
    runs after each and its time goes to ``probes``."""
    from bench import hostspeed

    times = []
    for _ in range(repeats):
        times.append(timed())
        probes.append(hostspeed.probe())
    return times


def _measure(workload, seconds: float, span, probes: list):
    """Untimed warm-up jobs, then jobs while they fit in ``seconds``.

    The host-speed probe runs before the first job and after every job,
    and its times go to ``probes``. A job starts only if a job of the
    mean length so far would end in time, but at least
    ``workload.min_jobs`` jobs run, and a run ends on a multiple of
    ``workload.pass_jobs``. A job that raises ends the loop: the result
    then reports it as a failed operation.
    """
    from bench import hostspeed

    jobs, raised = [], 0
    try:
        for i in range(workload.warmup_jobs):
            workload.job(i, span)
    except Exception:
        traceback.print_exc()
        return jobs, 1
    t0 = perf_counter()
    probes.append(hostspeed.probe())
    while (len(jobs) < workload.min_jobs or len(jobs) % workload.pass_jobs
           or (perf_counter() - t0) * (len(jobs) + 1) / len(jobs) < seconds):
        try:
            jobs.append(workload.job(len(jobs), span))
        except Exception:
            traceback.print_exc()
            raised = 1
            break
        probes.append(hostspeed.probe())
    return jobs, raised


def _paired(workload, tracer):
    """The fixed work, each job run plain and then traced, in turn.

    Pairing the two runs of every job keeps the host's drifting speed
    out of their ratio as far as it can. Each traced job is one root
    span.
    """
    from bench import tracing, workloads

    plain, traced = [], []
    plain_wall = 0.0
    try:
        for i in range(workload.fixed_jobs):
            t0 = perf_counter()
            plain.append(workload.job(i, workloads.no_span))
            plain_wall += perf_counter() - t0
            with tracing.installed(tracer), tracer.span(tracing.ROOT):
                traced.append(workload.job(i, tracer.span))
            for job in plain[-1], traced[-1]:
                job.norm = job.wall   # layer figures are in plain seconds
    except Exception:
        traceback.print_exc()
        return plain, traced, plain_wall, 1
    return plain, traced, plain_wall, 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes=None) -> dict:
    """Run one workload and return metrics, checks and provenance."""
    from bench import hostspeed, tracing, workloads

    sizes = sizes or workloads.FULL
    os.makedirs(WORK_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[workload_name](sizes, seed, str(WORK_DIR))
    result = {"workload": workload_name, "seed": seed, "trace": trace,
              "problems": [], "samples": {}}

    if not trace:
        # every time of the run at the reference speed
        setup_probes, probes = [], []
        imports = _repeated(_import_seconds, sizes.setup_repeats,
                            setup_probes)
        inputs = _repeated(lambda: _setup_seconds(workload),
                           sizes.setup_repeats, setup_probes)
        setup_scale = hostspeed.REFERENCE_S / statistics.mean(setup_probes)
        import_s = statistics.median(imports) * setup_scale
        setup_s = statistics.median(inputs) * setup_scale
        jobs, raised = _measure(workload, seconds, workloads.no_span, probes)
        for job, scale in zip(jobs, hostspeed.job_scales(probes)):
            job.norm = job.wall * scale
        summary = workload.summary(jobs) if jobs else {}
        result["problems"] += workload.check(jobs) if jobs else ["no job ran"]
        result["metrics"] = {
            "setup_s": import_s + setup_s,
            "wall_s": summary.get("wall_s", 0.0),
            "peak_rss_mb": _peak_rss_mb(),
            "firms_per_s": summary.get("firms_per_s", 0.0),
        }
        attempted, failed = workload.operations(jobs)
        result["attempted"] = attempted + raised
        result["failed"] = failed + raised
        result["samples"]["jobs"] = len(jobs)
        result["extra"] = dict(summary, import_s=import_s, inputs_s=setup_s,
                               job_wall_s=[j.wall for j in jobs],
                               probe_s=probes, setup_probe_s=setup_probes)
    else:
        workload.setup()
        tracer = tracing.Tracer()
        plain, traced, plain_wall, raised = _paired(workload, tracer)
        # one check over both passes: tracing must not change any output
        result["problems"] += (workload.check(plain + traced) if traced
                               else ["no traced job ran"])
        traced_wall = sum(end - start for name, _, start, end, _
                          in tracer.spans if name == tracing.ROOT) / 1e9
        summary = workload.summary(plain) if plain else {}
        metrics = tracing.layer_metrics(tracer)
        metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1.0
                                          if traced else 0.0)
        for name in STAGE_METRICS:
            metrics[name] = summary.get(name, 0.0)
        result["metrics"] = metrics
        ops = [workload.operations(plain), workload.operations(traced)]
        result["attempted"] = sum(a for a, _ in ops) + raised
        result["failed"] = sum(f for _, f in ops) + raised
        result["samples"]["jobs"] = len(plain)
        result["extra"] = dict(summary, traced_wall_s=traced_wall,
                               untraced_wall_s=plain_wall)
        result["trace"] = tracer.dump()
    if "cascade_samples" in result["extra"]:
        result["samples"]["cascade_ms_p50"] = result["extra"]["cascade_samples"]
        result["samples"]["cascade_ms_p99"] = result["extra"]["cascade_samples"]
    return result


def provenance(seed: int, workload: str, trace: bool) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    if commit is None:
        # a checkout that is not a git repository: name the code by content
        source = hashlib.sha256()
        for path in sorted((SRC / "chainsim").glob("*.py")):
            source.update(path.name.encode() + path.read_bytes())
        commit = "none; src/chainsim sha256 " + source.hexdigest()
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "git_commit": commit,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS},
    }


def _declared() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("recovery", "pipeline", "cascade_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREADS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import chainsim
    except ImportError as exc:
        print(f"bench: cannot import chainsim from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if Path(chainsim.__file__).resolve().parent.parent != SRC:
        print(f"bench: chainsim imported from {chainsim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    declared = _declared()["per_layer" if args.trace else "end_to_end"]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        print(f"bench: metrics {sorted(set(metrics) ^ set(declared))} are "
              "not both computed and declared", file=sys.stderr)
        return 2

    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]!r} {declared[name]}")
    info = provenance(args.seed, args.workload, bool(args.trace))
    info["samples"] = result["samples"]
    info["extra"] = result["extra"]
    if args.trace:
        info["exact_counts"] = sorted(n for n, u in declared.items()
                                      if u in ("count", "bytes"))
        info["wait_time"] = ("not applicable: single-threaded, no queues, "
                             "nothing waits")
        path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": info, **result["trace"]}, fh)
        print(f"trace written to {path.relative_to(ROOT)}")
    print("provenance " + json.dumps(info, sort_keys=True))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    correct = not result["problems"]
    print(f"checks {'passed' if correct else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
