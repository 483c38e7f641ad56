"""Benchmark of `qglab check`, `qglab validate` and `qglab dual`.

    python3 perfbench/run.py --workload kp8-check --seed 1 --seconds 20 --trace 0

qglab is imported from the checkout's src/ and every operation goes through
`qglab.cli.main` in this process, exactly as the command line runs it.  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer ones.  Inputs, results and span files go to perfbench/_out/.
See perfbench/README.md.
"""
import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: on a 2-core host the default of two threads burnt ~30 %
# more CPU on the Kac-Paljutkin check with no shorter wall time.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "_out")

sys.path.insert(0, SRC)
try:
    import numpy
    import qglab
    import tracing
    import verify
    import workloads
except ImportError as _exc:
    sys.exit(f"perfbench: cannot import qglab from {SRC}: {_exc}")
if not os.path.abspath(qglab.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: qglab was imported from {qglab.__file__}, not from {SRC}")

IMPORT_S = time.perf_counter() - START
SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="passed to qglab as its search seed (--seed)")
    p.add_argument("--seconds", type=float, required=True,
                   help="timed passes stop before this much time is spent")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics_match() -> bool:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return ([m["name"] for m in doc["end_to_end"]] == list(END_TO_END)
            and [m["name"] for m in doc["per_layer"]] == tracing.metric_names())


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": BLAS_THREADS, "python": sys.version.split()[0],
            "cpus": os.cpu_count()}


def set_up(workload, workdir):
    """Write the inputs, read back what the checks need, run a tiny `qglab check`."""
    groups = workload.build(workdir)
    tensors = {g.name: verify.load_tensors(g.path) for g in groups}
    n_states = {g.name: verify.expected_states(tensors[g.name], g.family)
                for g in groups if workload.checks_states}
    warm = os.path.join(workdir, "warm_c_z2.json")
    workloads.run_cli(["examples", "c_z2", "--out", warm])
    workloads.run_cli(["check", "--format", "json", warm])
    return groups, tensors, n_states


def main() -> int:
    args = parse_args()
    if not declared_metrics_match():
        sys.exit("perfbench: metric names differ from BENCHMARK.json")
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "inputs")
    os.makedirs(workdir, exist_ok=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        groups, tensors, n_states = set_up(workload, workdir)
        setups.append(time.perf_counter() - t)
    ops = workload.ops(groups, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    passes, attempted, failed, first = [], 0, 0, None
    while True:
        t = time.perf_counter()
        if tracer:
            outputs = tracing.traced_pass(tracer, workload, groups, ops, args.seed)
        else:
            outputs = [workloads.run_op(op) for op in ops]
        passes.append(time.perf_counter() - t)
        for op, (code, out) in zip(ops, outputs):
            attempted += 1
            found = ([f"exit code {code}"] if code else verify.check_output(
                op.command, out, op.group.family, tensors[op.group.name],
                n_states.get(op.group.name)))
            if found:
                failed += 1
                sys.stderr.write(f"FAILED {' '.join(op.argv)}: {found}\n")
        first = first or outputs
        if sum(passes) + statistics.median(passes) > args.seconds:
            break

    # once per run, outside the timed passes: the states, then the self-test
    problems = []
    samples = [(op.command, out, op.group) for op, (code, out) in zip(ops, first)
               if code == 0 and op.group.dim <= 8]
    if workload.checks_states:
        for g in groups:
            code, out = workloads.run_op(workloads.states_op(g, args.seed))
            found = ([f"exit code {code}"] if code else verify.check_output(
                "idempotents", out, g.family, tensors[g.name]))
            problems += [f"{g.name} states: {p}" for p in found]
            samples.append(("idempotents", out, g))
    tried, rejected = verify.self_test(samples, tensors, n_states)
    sys.stderr.write(f"self-test: {len(rejected)} of {len(tried)} corrupted outputs rejected\n")
    problems += [f"self-test accepted {label}" for label in tried if label not in rejected]

    if tracer:
        metrics = tracing.layer_metrics(tracer)
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        metrics = {"setup_s": IMPORT_S + statistics.median(setups),
                   "wall_s": statistics.median(passes),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "problems": problems, "environment": environment(),
                   "import_s": IMPORT_S, "setup_repeats_s": setups,
                   "pass_s": passes}, fh, indent=1)
    if tracer:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans,
                       "self_s": tracing.self_times(tracer.spans)}, fh, indent=1)
    for p in problems:
        sys.stderr.write(f"PROBLEM {p}\n")
    sys.stderr.write(f"{args.workload}: {len(passes)} passes {[round(p, 3) for p in passes]}, "
                     f"environment {environment()}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
