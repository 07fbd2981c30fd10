"""Benchmark of the sqgt toolkit: one workload per run, metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 101 --seconds 30 --trace 0

Workloads: sweep, exhaustive, oneshot (see README.md). With --trace 0 the
last line of stdout holds the end-to-end metrics named in BENCHMARK.json;
with --trace 1 the run wraps the library's layer boundaries and reports the
per-layer metrics instead. The lines before it give the workload's own
figures by name and unit, the environment and, for a traced run, the self
time of every layer. Exit status 0 means the run finished; "correct" in the
JSON says whether every output check passed.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

# load hygiene: one BLAS/OpenMP thread, and no inherited sweep thread cap
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SQGT_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_PASSES = 2  # a second pass is what the determinism checks compare against
SETUP_PROBES = 7  # fewest set-up probes per timed run
# Host-speed calibration of timed runs: a fresh interpreter importing numpy
# (process start and library loading) and a pure-Python loop (interpreter
# speed). Both are benchmark code, untouched by any change to sqgt. Timed
# figures are scaled by REF_CAL_S over the geometric mean of their medians,
# which cancels most of the drift of a shared host's speed between runs.
CAL_LOOP = 500_000
REF_CAL_S = 0.1  # the calibration's time on the README's baseline VM when quiet

FAILED = object()

# span name -> per-layer metric holding its self time per pass
SELF_METRICS = {
    "pass": "trace.harness_s",
    "simulate": "simulate.self_s",
    "construct": "construct.s",
    "model.encode": "model.encode_s",
    "decode.bp": "decode.bp_s",
    "decode.select": "decode.select_s",
    "decode.bp_single": "decode.bp_single_s",
    "verify.tall": "verify.tall_s",
    "verify.pairscan": "verify.pairscan_s",
    "verify.disjunct": "verify.disjunct_s",
    "verify.witness": "verify.witness_s",
    "model.quantize": "model.quantize_s",
    "decode.ml": "decode.ml_s",
    "capacity.grid_case": "capacity.grid_case_s",
    "capacity.refine_case": "capacity.refine_case_s",
    "capacity.objective": "capacity.objective_s",
    "capacity.mi": "capacity.mi_s",
    "cli": "cli.self_s",
    "fileio.read": "fileio.read_s",
    "fileio.write": "fileio.write_s",
}
# probe spans are reported per invocation rather than per pass
PROBE_SPANS = ("cli.interp", "cli.import")
# work counts a workload computes from its inputs (zero where it has none)
COMPUTED_COUNTS = ("verify.sets", "verify.pairs", "verify.rows", "verify.distinct_rows",
                   "verify.table_bytes", "decode.ml_sets", "capacity.grid_evals")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "exhaustive", "oneshot"))
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and build the inputs, then exit (times setup_s)")
    return ap.parse_args(argv)


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def time_setup(args, run_child):
    """Wall time of one fresh process that imports sqgt and builds the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    t0 = time.perf_counter()
    code, _ = run_child(cmd, ROOT)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe exited with status {code}")
    return elapsed


def calibrate(run_child):
    """Wall times of one calibration pair: (import numpy in a fresh
    interpreter, CAL_LOOP iterations of a pure-Python loop)."""
    t0 = time.perf_counter()
    code, _ = run_child([sys.executable, "-c", "import numpy"], ROOT)
    t1 = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"calibration probe exited with status {code}")
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    return t1 - t0, time.perf_counter() - t1


def run_passes(ops, seconds, tracer, between=None):
    """Run the operation list in whole passes: at least MIN_PASSES, then
    while another pass of median length still ends inside `seconds`.
    `between(pass_times)`, if given, runs untimed before every pass."""
    samples = {op.name: [] for op in ops}
    outputs = {op.name: [] for op in ops}
    pass_times = []
    start = time.perf_counter()
    while len(pass_times) < MIN_PASSES or (
        time.perf_counter() + median(pass_times) <= start + seconds
    ):
        if between:
            between(pass_times)
        p0 = time.perf_counter()
        with tracer.span("pass") if tracer else nullcontext():
            for op in ops:
                t0 = time.perf_counter()
                try:
                    with tracer.span(op.span) if tracer else nullcontext():
                        out = op.fn()
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    out = FAILED
                samples[op.name].append(time.perf_counter() - t0)
                outputs[op.name].append(out)
        pass_times.append(time.perf_counter() - p0)
    return samples, outputs, pass_times


def check_outputs(ops, outputs):
    """(attempted, failed): an execution fails when it raised, differs from
    the operation's first output, or that first output fails its check."""
    attempted = failed = 0
    for op in ops:
        outs = outputs[op.name]
        ref = outs[0]
        try:
            ok = ref is not FAILED and (op.expect is None or bool(op.expect(ref)))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            shown = "raised" if ref is FAILED else repr(ref)[:200]
            print(f"check failed: {op.name}: {shown}", file=sys.stderr)
        for out in outs:
            attempted += 1
            failed += not ok or out is FAILED or out != ref
    return attempted, failed


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children covers the CLI and setup processes
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment():
    import numpy

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or sha
        except OSError:  # no git on this machine
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "sweep_threads": "2 (traced run: 1)",
    }


def layer_metrics(wl, tracer, samples, outputs, passes):
    from tracing import self_times, span_cost

    table = self_times(tracer.spans)
    wall = table["pass"][1]
    unknown = set(table) - set(SELF_METRICS) - set(PROBE_SPANS)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    values = {metric: 0.0 for metric in SELF_METRICS.values()}
    for span, (calls, total, own) in table.items():
        if span in SELF_METRICS:
            values[SELF_METRICS[span]] = own / passes
    probes = {span: [t for op in wl.ops if op.span == span for t in samples[op.name]]
              for span in PROBE_SPANS}
    interp = median(probes["cli.interp"]) if probes["cli.interp"] else 0.0
    values["cli.interp_s"] = interp
    values["cli.import_s"] = median(probes["cli.import"]) - interp if probes["cli.import"] else 0.0

    cells = edges = trials = iters = state = 0
    for C, T, it in tracer.bp_calls:
        nz = C > 0
        k = nz.sum(axis=1)
        S = C.sum(axis=1)
        cells += T * it * int((k * (S + 1)).sum())
        edges += int(nz.sum())
        trials += T
        iters += it
        # messages V and F (T x E x 2) and the per-factor likelihood tables
        state = max(state, 8 * T * (4 * int(nz.sum()) + int((S + 1).sum())))
    bp_time = table.get("decode.bp", (0, 0.0, 0.0))[1]
    mi_calls, mi_time, _ = table.get("capacity.mi", (0, 0.0, 0.0))
    values.update({
        "decode.bp_calls": table.get("decode.bp", (0,))[0] / passes,
        "decode.bp_trials": trials / passes,
        "decode.bp_iterations": iters / passes,
        "decode.bp_edges": edges / passes,
        "decode.bp_dp_cells": cells / passes,
        "decode.bp_state_bytes": state,
        "decode.bp_cells_per_s": cells / bp_time if bp_time else 0.0,
        "capacity.objective_calls": table.get("capacity.objective", (0,))[0] / passes,
        "capacity.mi_calls": mi_calls / passes,
        "capacity.mi_per_s": mi_calls / mi_time if mi_time else 0.0,
        "fileio.bytes": tracer.file_bytes / passes,
        "trace.wall_s": wall / passes,
        "trace.overhead_share": len(tracer.spans) * span_cost() / wall,
    })
    counts = dict.fromkeys(COMPUTED_COUNTS, 0)
    counts.update(wl.counts(outputs))
    values.update(counts)
    computed = {"decode.bp_edges", "decode.bp_dp_cells", "decode.bp_state_bytes", *counts}
    lines = [f"layer {span:22s} calls/pass {calls / passes:12.1f}  self/pass {own / passes:10.4f} s"
             f"  share {own / wall:7.2%}"
             for span, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2])]
    lines.append(f"layer self times sum to {sum(v[2] for v in table.values()) / wall:.6f} of the"
                 f" traced wall time ({wall:.3f} s over {passes} passes)")
    return values, computed, lines


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sqgt", "__init__.py")):
        print(f"error: no sqgt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            workloads.BUILDERS[args.workload](args.seed, args.size, workdir, False)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # set-up probes and calibration pairs run between the passes, so their
    # medians span the whole run: about one pair per second of timed work
    setup_times, cal_times = [], []

    def probe(pass_times):
        setup_times.append(time_setup(args, workloads.run_child))
        for _ in range(max(2, round(pass_times[-1] if pass_times else 0))):
            cal_times.append(calibrate(workloads.run_child))

    if args.trace:
        probe = None
    tracer = None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl = workloads.BUILDERS[args.workload](args.seed, args.size, workdir, bool(args.trace))
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            samples, outputs, pass_times = run_passes(wl.ops, args.seconds, tracer, probe)
        finally:
            if tracer:
                tracer.uninstall()
        while probe and len(setup_times) < SETUP_PROBES:
            setup_times.append(time_setup(args, workloads.run_child))
        attempted, failed = check_outputs(wl.ops, outputs)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    # a traced run's latencies include the wrappers and, in oneshot, skip the
    # interpreter start, so only a timed run reports the workload's figures
    timed = not args.trace and failed == 0
    summary = wl.summary(samples, outputs) if timed else []
    for name, value, unit, note in summary:
        print(f"{args.workload} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    scaling = {}
    if args.trace:
        values, computed, lines = layer_metrics(wl, tracer, samples, outputs, len(pass_times))
        print("\n".join(lines))
        wanted = spec["per_layer"]
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz"))
    else:
        cal_import = median([a for a, _ in cal_times])
        cal_loop = median([b for _, b in cal_times])
        speed = REF_CAL_S / (cal_import * cal_loop) ** 0.5
        raw = {"setup_s": median(setup_times),
               "pass_s": sum(median(samples[op.name]) for op in wl.ops)}
        scaling = {"import_numpy_s": cal_import, "loop_s": cal_loop, "pairs": len(cal_times),
                   "scale": speed, "unscaled": raw}
        print(f"calibration import_numpy = {cal_import:.6g} s, loop = {cal_loop:.6g} s"
              f" (n={len(cal_times)}), scale = {speed:.6g}")
        for name, value in raw.items():
            print(f"unscaled {name} = {value:.6g} s")
        values = {
            "setup_s": raw["setup_s"] * speed,
            "peak_rss_mb": peak_rss_mb(),
            "pass_s": raw["pass_s"] * speed,
        }
        computed = set()
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
        label = "  (computed)" if name in computed else ""
        print(f"metric {name} = {values[name]:.6g} {entry['unit']}{label}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, size=args.size,
                  seconds=args.seconds, trace=args.trace, passes=len(pass_times),
                  env=env, summary=[list(s) for s in summary], scaling=scaling)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
