"""Benchmark of the ionchain pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload {cli,chain_sweep,calibration} \
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
"""Set-ups per run of an in-process workload; setup_s is their median."""
FIT_SPANS = {"beam": "fit_beam_profile", "rabi": "fit_rabi_trace",
             "theta_growth": "fit_theta_growth", "power_law": "fit_theta_power_law"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def pin_threads():
    """One BLAS/OpenMP thread per process (at most nproc): a closed loop with
    one client, whose CPU time then counts work and no spin-waiting."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(CHECKOUT / "src")
    os.environ.pop("IONCHAIN_LOG", None)


def in_process_run(name, seed, seconds, workdir):
    """Spawn the workload's process SETUP_REPEATS times; the last one runs."""
    from harness import RunStats, run_child

    setups = []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds)]
        if k < SETUP_REPEATS - 1:
            argv.append("--setup-only")
        spawned = time.monotonic()
        child = run_child(argv, workdir, workdir / "worker.out", workdir / "worker.err")
        err = (workdir / "worker.err").read_text(errors="replace")
        sys.stderr.write(err)
        if child.output != 0:
            raise RuntimeError(f"worker exited {child.output}")
        lines = (workdir / "worker.out").read_text().strip().splitlines()
        record = json.loads(lines[-1])
        setups.append(record.pop("ready") - spawned)
    stats = RunStats(**record)
    return stats, statistics.median(setups), child.rss_mb


def cli_run(seed, seconds, workdir):
    """Set-up (writing inputs, one warm-up pass) and the timed loop."""
    from harness import measure
    from workloads import make

    start = time.monotonic()
    cli = make("cli", seed, workdir, CHECKOUT)
    cli.warm_up()
    setup = time.monotonic() - start
    stats = measure(cli, seconds)
    return stats, setup, max(stats.rss)


def traced_run(name, seed, seconds, workdir):
    """Traced loop of the named workload, then one layer pass of each other
    workload, so that every traced run reports every per-layer metric."""
    from harness import RunStats, measure
    from tracing import Tracer
    from workloads import ALL, make

    tracer = Tracer()
    runs = {n: make(n, seed, workdir, CHECKOUT) for n in ALL}
    if name == "cli":
        runs[name].warm_up()
    stats = measure(runs[name], seconds, tracer)
    extra = RunStats()  # keeps the other workloads' ops out of the overhead figure
    for other, workload in runs.items():
        if other != name:
            workload.layer_pass(tracer, extra)
    stats.attempted += extra.attempted
    stats.failed += extra.failed
    stats.wrong += extra.wrong
    tracer.write(OUT / f"trace-{name}-{seed}.jsonl")
    return stats, tracer


def per_layer(tracer, stats) -> dict:
    from tracing import annotated, layer_metrics

    metrics = layer_metrics(tracer)
    spans = tracer.spans
    interp = [s["end"] - s["start"] for s in spans if s["name"] == "cli.interp_start"]
    imports = [s["end"] - s["start"] for s in spans if s["name"] == "cli.import_process"]
    del metrics["cli.import_process_ms"], metrics["cli.import_process.calls"]
    metrics["cli.import_ms"] = (1e3 * statistics.median(i - p for i, p in zip(imports, interp)), "ms")
    metrics["cli.import.calls"] = (len(imports), "count")
    for recipe, fit in FIT_SPANS.items():
        nfev = annotated(tracer, f"fitting.{fit}", "nfev")
        metrics[f"fitting.nfev.{recipe}"] = (statistics.median(nfev), "count")
    mc = [s for s in spans if s["name"] == "decoherence.rabi_trace_monte_carlo"]
    metrics["decoherence.mc_samples_per_s"] = (
        statistics.median(s["work"] / (s["end"] - s["start"]) for s in mc), "1/s")
    overhead = statistics.median(stats.traced_walls) - statistics.median(stats.walls)
    metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = CHECKOUT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if not (CHECKOUT / "src" / "ionchain" / "__init__.py").is_file():
        return fail("no ionchain sources under src/ in this checkout")
    if not (CHECKOUT / "configs").is_dir():
        return fail("no configs/ directory in this checkout")

    pin_threads()
    sys.path[:0] = [str(BENCH), str(CHECKOUT / "src")]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            stats, tracer = traced_run(args.workload, args.seed, args.seconds, workdir)
            metrics = per_layer(tracer, stats)
            declared = spec["per_layer"]
        else:
            if args.workload == "cli":
                stats, setup, rss = cli_run(args.seed, args.seconds, workdir)
            else:
                stats, setup, rss = in_process_run(args.workload, args.seed, args.seconds, workdir)
            from workloads import CLASSES

            metrics = stats.end_to_end(CLASSES[args.workload].tail_pct)
            metrics["setup_s"] = (setup, "s")
            metrics["peak_rss_mb"] = (rss, "MiB")
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared
        },
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for m in declared:
        print(f"{args.workload:12s} {m['name']:40s} {metrics[m['name']][0]:14.6g} {m['unit']}")
    print(f"{args.workload:12s} attempted {stats.attempted}, failed {stats.failed}, correct {stats.correct}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
