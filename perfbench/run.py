"""srlab benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. srlab is imported from ./src. Workloads:

- gb_shipped: `gauss-bonnet` on each shipped scene, then
  `measures.stokes_consistency_gap` on it as a separate operation. Region
  quadrature at 16384 + 65536 nodes per pass; most jet coefficient pairs are
  structural zeros, and one node set is rebuilt for every pass and L row.
- gb_dense: the same two operations on an inline-frame scene whose frame
  and surface components all vary. Same node counts and code path, far
  fewer zero pairs.
- queries: a seeded stream of single-point CLI calls (validate,
  frame-report, curvature, sweep K/kn, oracle-check, typed errors) on both
  shipped scenes. Scalar jets, no region quadrature, a scene reload per call.

With --trace 0 the run measures for about --seconds (gb workloads run
whole cycles and start none that would end well past it) and reports the
end-to-end metrics. With --trace 1 it
runs a fixed amount of work under the per-layer tracer, so counts repeat
exactly, then the fixed-node-set layer timings, and reports the per-layer
metrics. The last line of stdout is the JSON result; details, including a
run record, go to perfbench/out/.
"""

import argparse
import glob
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import workloads as wl  # noqa: E402

WORKLOADS = ("gb_shipped", "gb_dense", "queries")
# per-operation wall-clock limit, several times the slowest operation seen
OP_LIMIT_S = {"gb_shipped": 90, "gb_dense": 90, "queries": 10}
# no new cycle or call starts after this much measuring, so a run ends in time
HARD_STOP_S = 110
# fresh-interpreter set-up samples taken before and after the measured loop,
# so the median spans the run rather than one moment of machine load
SETUP_SAMPLES = (4, 3)
TRACED_QUERY_OPS = 120

UNITS = {
    "latency_p50_s": "s", "latency_p90_s": "s", "throughput_ops_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_srlab():
    if not os.path.isfile(os.path.join(SRC, "srlab", "__init__.py")):
        raise SystemExit(f"srlab sources not found under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import srlab
    from srlab import cli, measures, scenes

    if not os.path.abspath(srlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported srlab from {srlab.__file__}, not from {SRC}")
    return cli, measures, scenes


def measure_setup(scene_refs, count) -> list:
    """Wall time of fresh interpreters that import srlab and load the scenes."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import srlab; "
            "from srlab.scenes import resolve_scene; "
            "[resolve_scene(s) for s in sys.argv[2:]]")
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, SRC, *scene_refs], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return samples


def run_op(op, limit, tracer=None, op_id=None):
    """Run one operation under a wall-clock limit: (seconds, error or None)."""
    if tracer is not None:
        tracer.begin_op(op_id)
    error = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        error = op.check(result)
    except OpTimeout:
        elapsed = time.perf_counter() - t0
        error = f"no result within {limit} s"
    except Exception as exc:  # any exception is a failed operation; the run goes on
        elapsed = time.perf_counter() - t0
        error = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.end_op()
    return elapsed, error


def probe_graph_surface(cli, workdir) -> dict:
    """`validate` on a valid graph-surface scene; the expected exit is 0."""
    path = wl.write_scene(os.path.join(workdir, "graph_surface.json"), wl.GRAPH_SCENE)
    code, _, err = wl.call_cli(cli, ["validate", "--scene", path])
    return {"argv": ["validate", "--scene", "graph_surface.json"], "exit": code,
            "expected_exit": 0, "stderr": err.strip()[:300]}


def machine_info() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def percentile_block(latencies) -> dict:
    block = {"ops": len(latencies), "p50_s": statistics.median(latencies)}
    if len(latencies) >= 2:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        block.update(p90_s=p90, ops_beyond_p90=sum(x > p90 for x in latencies))
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    srlab_mods = import_srlab()
    cli, _, scenes = srlab_mods
    workdir = os.path.join(OUT, "work")
    os.makedirs(workdir, exist_ok=True)
    ref = wl.load_reference()
    rng = wl.make_rng(args.seed, args.workload)
    limit = OP_LIMIT_S[args.workload]

    if args.workload == "queries":
        stream = wl.QueryStream(cli, ref, rng)
        next_ops = lambda: [stream.next()]  # noqa: E731
        setup_refs = list(wl.SHIPPED)
    else:
        build = wl.gb_shipped_cycle if args.workload == "gb_shipped" else wl.gb_dense_cycle
        cycle, setup_refs = build(srlab_mods, ref, rng, workdir)
        next_ops = lambda: cycle  # noqa: E731

    setup_samples = [] if args.trace else measure_setup(setup_refs, SETUP_SAMPLES[0])
    probe = probe_graph_surface(cli, workdir)
    if args.workload == "queries":
        for op in stream.warmup_ops():   # fill lazy tables and caches untimed
            run_op(op, limit)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []   # (kind, label, seconds, error)
    t_start = time.perf_counter()
    try:
        while True:
            t_cycle = time.perf_counter()
            for op in next_ops():
                seconds, error = run_op(op, limit, tracer, len(results))
                results.append((op.kind, op.label, seconds, error))
            now = time.perf_counter()
            elapsed = now - t_start
            if args.trace:
                if args.workload != "queries" or len(results) >= TRACED_QUERY_OPS:
                    break
            # whole gb cycles only, and none that would end well past --seconds
            elif elapsed + (now - t_cycle) > args.seconds or elapsed >= HARD_STOP_S:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    if not args.trace:
        setup_samples += measure_setup(setup_refs, SETUP_SAMPLES[1])
    latencies = [r[2] for r in results]
    failures = [{"kind": k, "op": label, "error": e} for k, label, _, e in results if e]
    by_kind = {}
    for kind, _, seconds, _ in results:
        by_kind.setdefault(kind, []).append(seconds)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, **machine_info(),
        "latency": percentile_block(latencies),
        "latency_by_kind": {k: percentile_block(v) for k, v in sorted(by_kind.items())},
        "failed_frac": len(failures) / len(results), "failures": failures,
        "known_defect_probes": [probe],
    }
    if probe["exit"] != probe["expected_exit"]:
        print(f"known defect: graph-surface validate exited {probe['exit']}, expected 0: "
              f"{probe['stderr']}", file=sys.stderr)

    if args.trace:
        metrics = tracer.metrics()
        record["trace_missing_hooks"] = tracer.missing
        record["trace_hook_errors"] = tracer.hook_errors
        if tracer.missing or tracer.hook_errors:
            print(f"tracing incomplete: missing {tracer.missing}, hook errors "
                  f"{tracer.hook_errors}", file=sys.stderr)
        metrics["measures.integrand_evals_per_s"] = (
            metrics["measures.integrand_evals"][0] / elapsed, "1/s")
        metrics["scenes.graph_surface_probe_exit"] = (float(probe["exit"]), "code")
        micro_scenes = {"rt_disk": scenes.builtin_scene("rt_disk"),
                        "dense": scenes.load_scene(wl.write_scene(
                            os.path.join(workdir, "dense_0.json"), wl.dense_scene_config(0)))}
        from micro import layer_timings

        for key, value in layer_timings(srlab_mods, micro_scenes).items():
            metrics[key] = (value, "us/node")
        # against the latest untraced run of this workload in this checkout
        untraced = sorted(glob.glob(os.path.join(OUT, f"record_{args.workload}_seed*_trace0.json")),
                          key=os.path.getmtime)
        record["tracing_overhead_p50_s"] = None
        if untraced:
            with open(untraced[-1], encoding="utf-8") as fh:
                untraced_p50 = json.load(fh)["latency"]["p50_s"]
            record["tracing_overhead_p50_s"] = record["latency"]["p50_s"] - untraced_p50
        tracer.dump(os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.json"))
    else:
        metrics = {
            "latency_p50_s": record["latency"]["p50_s"],
            "latency_p90_s": record["latency"].get("p90_s", latencies[0]),
            "throughput_ops_s": len(results) / elapsed,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
        record["setup_samples_s"] = setup_samples

    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    record_path = os.path.join(
        OUT, f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for f in failures[:5]:
        print(f"failed {f['kind']}: {f['op']}: {f['error']}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.exit(main())
