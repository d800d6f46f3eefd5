"""delaytrack benchmark: closed-loop sweep workloads with an outside-in trace.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload small_sweeps --seed 1 --seconds 20 --trace 0

One process, one caller: the workload's operations run one after another
until ``--seconds`` of operation time is used (at least one pass).  With
``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics, each a stage's total time over the run divided by the
number of passes; with
``--trace 1`` passes alternate untraced and traced and it carries the
per-layer metrics.  Every operation is checked by the gate in
``workloads.check``; ``failed`` counts those that did not pass it.  A
result file (and, traced, a span file) is written to ``bench/out/``.
Exit status 2 means nothing was measured: the package sources are missing
or the inputs do not form the workload.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# setup is built this many times and setup_s takes the median build
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOADS = ("small_sweeps", "mid_dense", "sparse_complex")
END_TO_END = (("solve_s", "s"), ("init_s", "s"), ("sweep_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def pin_threads():
    """Pin BLAS to one thread; must run before numpy is imported.

    One caller runs one operation at a time.  With 2 threads on 2 CPUs the
    mid_dense sweep ran 3.9-7.3 s per pass against 0.8-1.0 s with one, and
    the r=5000 LU did not change."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--model-seed", type=int, default=None,
                    help="rand_ddae seed replacing the workload's default "
                         "(mid_dense 11, sparse_complex 123)")
    return ap.parse_args(argv)


class Abort(Exception):
    """Nothing can be measured; the message says why."""


def import_package():
    """Import the package from this checkout's sources, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "delaytrack", "__init__.py")):
        raise Abort(f"package sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import delaytrack
    if not os.path.abspath(delaytrack.__file__).startswith(SRC + os.sep):
        raise Abort(f"imported delaytrack from {delaytrack.__file__}, "
                    f"not from {SRC}")


def environment(threads, workload, seed, model_seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "model_seed": model_seed,
    }


def measure(run_pass, workload, seconds, tracer, modules):
    """Run passes until ``seconds`` of operation time is used.

    Returns the untraced and the traced passes; a pass is a list of
    (Outcome, gate failures) per case."""
    memo = {}
    plain, traced = [], []
    durations = []
    n_cases = len(workload.cases)

    def traced_op(i, case):
        tracer.op = len(traced) * n_cases + i
        return tracer.installed(modules, [case.family])

    while True:
        if tracer is not None and len(plain) > len(traced):
            results = run_pass(workload.cases, memo, around=traced_op)
            traced.append(results)
        else:
            results = run_pass(workload.cases, memo)
            plain.append(results)
        durations.append(sum(out.solve_s for out, _ in results))
        used = sum(durations)
        done = tracer is None or traced
        if done and used + statistics.median(durations) > seconds:
            break
    return plain, traced


def stage_means(passes):
    """Each stage's time per pass, averaged over all passes of the run.

    The host's speed swings by about 25 % within a second or two, so a pass
    of a few seconds is one draw from that noise.  The mean over the whole
    run averages all of it; a median of 2-6 passes averages less.  Over two
    sets of ten runs per workload, the run-to-run quartile spread of the
    per-pass solve time was 0.04-0.09 with the mean and 0.04-0.12 with
    the median."""
    return {
        stage: sum(getattr(o, stage) for p in passes for o, _ in p)
        / len(passes)
        for stage in ("init_s", "sweep_s", "margin_s", "solve_s")
    }


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    threads = pin_threads()
    try:
        import_package()
        if args.workload not in WORKLOADS:
            raise Abort(f"unknown workload {args.workload!r}; choose from "
                        f"{', '.join(WORKLOADS)}")
    except Abort as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads
    from delaytrack import charfun, manifest, oracle, spectral, track
    import_s = time.perf_counter() - t_start
    modules = {"charfun": charfun, "manifest": manifest, "oracle": oracle,
               "spectral": spectral, "track": track}
    # traced runs report no setup_s; their first build is traced instead, and
    # only its manifest.load_manifest spans (operation id -1) are reported
    tracer = tracing.Tracer() if args.trace else None
    builds = []
    try:
        for i in range(SETUP_REPEATS):
            traced_build = tracer is not None and i == 0
            t0 = time.perf_counter()
            with (tracer.installed(modules) if traced_build
                  else contextlib.nullcontext()):
                wl = workloads.build(args.workload, ROOT, args.model_seed)
            builds.append(time.perf_counter() - t0)
    except workloads.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    setup_s = import_s + statistics.median(builds)
    env = environment(threads, args.workload, args.seed, wl.model_seed)

    plain, traced = measure(workloads.run_pass, wl, args.seconds, tracer,
                            modules)
    attempted, failed, failures = workloads.tally(wl.cases, plain + traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = stage_means(plain)
    summary = {"solve_s": untraced["solve_s"], "init_s": untraced["init_s"],
               "sweep_s": untraced["sweep_s"], "setup_s": setup_s,
               "peak_rss_mb": peak_rss_mb}
    if args.trace:
        steps = sum(o.steps for p in traced for o, _ in p)
        crossings = sum(len(o.crossings) for p in traced for o, _ in p)
        ops = set(range(len(traced) * len(wl.cases)))
        layer = tracer.layer_metrics(ops, len(traced), steps, crossings)
        setup_layer = tracer.layer_metrics({-1})
        for stat in ("calls", "total_s", "self_s"):
            key = f"manifest.load_manifest.{stat}"
            layer[key] = setup_layer[key]
        layer["trace.overhead_frac"] = (
            stage_means(traced)["solve_s"] / untraced["solve_s"] - 1.0
        )
        units = dict(tracing.per_layer_spec())
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u}
                   for k, u in END_TO_END}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    record = {"env": env, "metrics": metrics, "margin_s": untraced["margin_s"],
              "import_s": import_s, "setup_builds_s": builds,
              "untraced_pass_solve_s": [sum(o.solve_s for o, _ in p)
                                        for p in plain],
              "traced_pass_solve_s": [sum(o.solve_s for o, _ in p)
                                      for p in traced],
              "attempted": attempted, "failed": failed,
              "failures": failures[:20],
              "skipped": tracer.skipped if tracer else []}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl.gz")

    print("env " + json.dumps(env))
    for name, unit in END_TO_END:
        print(f"  {name:<12} {summary[name]:12.6f} {unit}")
    print(f"  {'margin_s':<12} {untraced['margin_s']:12.6f} s "
          "(time in find_crossing; included in solve_s)")
    print(f"  {'fail_frac':<12} {failed / attempted:12.6f} ratio "
          f"({failed} of {attempted} operations, "
          f"{len(plain)} untraced + {len(traced)} traced passes)")
    for case, why in failures[:20]:
        print(f"  FAILED {case}: {why}")
    if tracer is not None and tracer.skipped:
        print("  trace skipped missing names: " + ", ".join(tracer.skipped))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
