"""The three benchmark workloads: their inputs, operations and output checks.

Each workload is a fixed list of operations built from the workload seed. The
runner executes the list in passes; every operation returns a value that
must repeat exactly on every pass, and `Op.expect` checks the first value
against pinned results (full size, default seed) or against a second path
through the library (any seed). Why each workload exists is in README.md.
"""

import contextlib
import io
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

import sqgt.cli
from sqgt.capacity import capacity_search
from sqgt.construct import concat_disjunct, random_binary_separable, random_disjunct
from sqgt.decode import BpConfig, Marginals, bp_decode, bp_decode_batch, decode_ml, select_topd
from sqgt.fileio import read_matrix, write_matrix
from sqgt.model import CodeParams, NoiseModel, apply_noise, syndrome
from sqgt.rng import derive_seed, make_rng
from sqgt.simulate import SweepConfig, parse_config, rows_to_csv, run_simulation
from sqgt.verify import is_sq_disjunct, is_sq_separable

DEFAULT_SEED = 101
SWEEP_THREADS = 2
CHILD_TIMEOUT_S = 120
BASE_CODE = os.path.join("tests", "data", "base_2disjunct_9x12.sqgt")

# Results of the parent commit for --size full --seed 101.
PIN_SWEEP_PE = (
    "0.3916666667", "0.4375049145", "0.4613333333", "0.5636620169",
    "0.0345", "0.03247408541", "0.06516666667", "0.06391641041",
    "0.01716666667", "0.01965654078", "0.02033333333", "0.02389697603",
)
PIN_VERDICTS = {
    "tall0": "PASS", "tall1": "PASS", "tall2": "PASS", "pairscan": "PASS", "disjunct": "PASS",
    "witness": "sq-disjunct: {1,29,30} vs {29}: column 29 beats the other 2 on 0 coordinates,"
               " needs 1",
    "ml": (6, 28, 29),
}
PIN_CAPACITY = {
    (2, 3, 3, 0.02): ((0.334, 0.332, 0.334), "{0,1}{2}{3,4}", 0.7924812503490365),
    (2, 3, 3, 0.1): ((0.33, 0.34, 0.33), "{0,1}{2}{3,4}", 0.7924812431473434),
}
PIN_CLI = {
    "construct": "wrote 9x24 code [7;7;(0,2,4,6,8,10,12,14);(1:2);0] to <work>/construct-out.sqgt\n",
    "verify": "PASS\n",
    "encode": "0 0 1 4 3 0 3 0 1\n",
    "decode-concat": "2,24\n",
    "decode-bp": "1,3,10,14,21,23,35,41,53,81,85,86,89,92,98\n",
    "simulate": (
        "seed,n,m,d,q,eta,gamma_p,gamma_n,trials,iters,method,P_e,P_FN,P_FP\n"
        "101,20,12,2,5,0|2|4|6|8|10,0,0,20,10,top-d,0,0,0\n"
        "101,20,12,2,5,0|2|4|6|8|10,0,0,20,10,threshold,0.03333333333,0.05,0\n"
        "101,20,12,2,5,0|2|4|6|8|10,0.02,0.02,20,10,top-d,0.05,0.05,0.05\n"
        "101,20,12,2,5,0|2|4|6|8|10,0.02,0.02,20,10,threshold,0.1023809524,0.05,0.08166666667\n"
    ),
    "capacity": "P_T = [0.3 0.4 0.3]  quantizer = {0,1}{2}{3,4}  alpha = 0.792409 bits\n",
}


@dataclass
class Op:
    """One operation: `fn` returns a comparable value; `expect` vets it."""

    name: str
    group: str  # which summary figure the operation's latency feeds
    span: str  # layer name of the operation's span in a traced run
    fn: Callable[[], object]
    expect: Callable[[object], bool] | None = None


@dataclass
class Workload:
    ops: list[Op]
    # the workload's own figures from (samples, outputs) of a timed run,
    # as (name, value, unit, note)
    summary: Callable[[dict, dict], list]
    # per-pass work counts computed from the inputs, for traced runs
    counts: Callable[[dict], dict] = lambda outputs: {}


def _planted(rng, n, d):
    return sorted(int(x) + 1 for x in rng.choice(n, d, replace=False))


# ---------------------------------------------------------------------------
# sweep: run_simulation at the paper's sweep-point shape
# ---------------------------------------------------------------------------

def _sweep_config(seed, size):
    if size == "full":
        return SweepConfig(
            n=100, d=15, m=50, eta_step=2, q_values=(2, 5, 11),
            gammas=((0.0, 0.0), (0.04, 0.04)), trials=400, iterations=20,
            methods=("top-d", "threshold"), seed=seed, damping=0.5,
        )
    return SweepConfig(
        n=30, d=3, m=20, eta_step=2, q_values=(2, 5),
        gammas=((0.0, 0.0), (0.04, 0.04)), trials=20, iterations=5,
        methods=("top-d", "threshold"), seed=seed, damping=0.5,
    )


def _csv_column(text, column):
    lines = text.splitlines()
    idx = lines[0].split(",").index(column)
    return [line.split(",")[idx] for line in lines[1:]]


def build_sweep(seed, size, workdir, traced):
    cfg = _sweep_config(seed, size)
    # the traced run uses one thread, so its self times add up to its wall time
    threads = 1 if traced else SWEEP_THREADS
    pinned = size == "full" and seed == DEFAULT_SEED

    def expect(csv):
        rows = _csv_column(csv, "P_e")
        points = len(cfg.q_values) * len(cfg.gammas)
        if len(rows) != points * len(cfg.methods):
            return False
        return not pinned or tuple(rows) == PIN_SWEEP_PE

    def summary(samples, outputs):
        csv = outputs["sweep"][0]
        methods = _csv_column(csv, "method")
        pe = [float(x) for x in _csv_column(csv, "P_e")]

        def mean_pe(method):
            vals = [p for p, m in zip(pe, methods) if m == method]
            return sum(vals) / len(vals)

        trials = cfg.trials * len(cfg.q_values) * len(cfg.gammas)
        return [
            ("trials_per_s", trials / float(np.median(samples["sweep"])), "1/s", ""),
            ("p_e_topd", mean_pe("top-d"), "ratio", "mean P_e over the top-d rows"),
            ("p_e_threshold", mean_pe("threshold"), "ratio", "mean P_e over the threshold rows"),
        ]

    op = Op("sweep", "sweep", "simulate",
            lambda: rows_to_csv(run_simulation(cfg, threads=threads)), expect)
    return Workload([op], summary)


# ---------------------------------------------------------------------------
# exhaustive: certifiers, the ML oracle and the capacity grid search
# ---------------------------------------------------------------------------

def _colex_rank(subset):
    return sum(comb(c, i + 1) for i, c in enumerate(sorted(subset)))


def build_exhaustive(seed, size, workdir, traced):
    full = size == "full"
    pinned = full and seed == DEFAULT_SEED
    cases = []  # (name, span, checker, C, params)
    for i in range(3):
        C, p = random_binary_separable(
            12, 3, (0, 2, 4, 5), 1, seed=derive_seed(seed, "tall", i),
            **({"m_multiplier": 4.0} if full else {"m": 200}),
        )
        cases.append((f"tall{i}", "verify.tall", is_sq_separable, C, p))
    C, p = random_disjunct(24 if full else 12, 3 if full else 2, 2, 1, e=1,
                           seed=derive_seed(seed, "pairscan"))
    cases.append(("pairscan", "verify.pairscan", is_sq_separable, C, p))
    C, p = random_disjunct(40 if full else 14, 3 if full else 2, 2, 1,
                           m_multiplier=1.5, seed=derive_seed(seed, "disjunct"))
    cases.append(("disjunct", "verify.disjunct", is_sq_disjunct, C, p))
    # a repeated column guarantees a violation, found near the end of the scan
    C, p = random_disjunct(30 if full else 12, 2, 2, 1, seed=derive_seed(seed, "witness"))
    C[:, -1] = C[:, -2]
    cases.append(("witness", "verify.witness", is_sq_disjunct, C, p))

    n_ml, u_ml = (30, 3) if full else (12, 2)
    C_ml, p_ml = random_disjunct(n_ml, u_ml, 2, 1, seed=derive_seed(seed, "ml"))
    rng = make_rng(derive_seed(seed, "ml-syndrome"))
    noise_ml = NoiseModel(0.02, 0.02)
    z_ml = apply_noise(syndrome(C_ml, _planted(rng, n_ml, u_ml), p_ml.eta), p_ml.Q, noise_ml, rng)

    searches = [(2, 3, 3, 0.02), (2, 3, 3, 0.1)] if full else [(2, 3, 3, 0.1), (2, 3, 2, 0.1)]
    witnesses = {}

    def certify(name, check, C, p):
        def run():
            w = check(C, p)
            witnesses[name] = w
            return "PASS" if w is None else str(w)
        return run

    def verdict_ok(name):
        return lambda out: not pinned or PIN_VERDICTS.get(name) == out

    def capacity_ok(key):
        def ok(out):
            if not full:
                return True
            pt, quant, bits = PIN_CAPACITY[key]
            return out[0] == pt and out[1] == quant and abs(out[2] - bits) <= 1e-12
        return ok

    def search(d, q, Q, step):
        pt, quant, bits = capacity_search(d, q, Q, grid_step=step)
        return tuple(pt), str(quant), float(bits)

    ops = [Op(name, "certify", span, certify(name, check, C, p), verdict_ok(name))
           for name, span, check, C, p in cases]
    ops.append(Op("ml", "certify", "decode.ml",
                  lambda: decode_ml(C_ml, p_ml, z_ml, noise_ml), verdict_ok("ml")))
    for key, span in zip(searches, ("capacity.grid_case", "capacity.refine_case")):
        ops.append(Op(f"capacity{key}", "capacity", span,
                      lambda key=key: search(*key), capacity_ok(key)))

    def counts(outputs):
        sets = pairs = rows = distinct = table = 0
        for name, _, check, C, p in cases:
            m, n = C.shape
            rows += m
            distinct += len(np.unique(C, axis=0))
            w = witnesses.get(name)
            if check is is_sq_disjunct:
                sets += comb(n, p.u + 1) if w is None else _colex_rank(
                    [x - 1 for x in w.sets[0]]) + 1
                continue
            N = sum(comb(n, s) for s in range(p.l, p.u + 1))
            sets += N
            table = max(table, N * m * 8)
            if p.e > 0:
                if w is None:
                    pairs += N * (N - 1) // 2
                else:
                    j = _colex_rank([x - 1 for x in w.sets[1]]) + sum(
                        comb(n, s) for s in range(p.l, len(w.sets[1])))
                    pairs += j * (j + 1) // 2
        grid = 0
        for d, q, Q, step in searches:
            resolution = round(1.0 / step)
            grid += comb(resolution + q - 1, q - 1) * comb((q - 1) * d, Q - 1)
        return {
            "verify.sets": sets, "verify.pairs": pairs, "verify.rows": rows,
            "verify.distinct_rows": distinct, "verify.table_bytes": table,
            "decode.ml_sets": sum(comb(n_ml, s) for s in range(p_ml.l, p_ml.u + 1)),
            "capacity.grid_evals": grid,
        }

    def summary(samples, outputs):
        def total(group):
            return sum(float(np.median(samples[op.name])) for op in ops if op.group == group)

        return [
            ("certify_s", total("certify"), "s", "sum of per-case medians"),
            ("capacity_s", total("capacity"), "s", "sum of per-case medians"),
        ]

    return Workload(ops, summary, counts)


# ---------------------------------------------------------------------------
# oneshot: CLI requests one at a time, and single-syndrome BP decodes
# ---------------------------------------------------------------------------

def run_child(cmd, cwd, env=None):
    """Run a process to completion; (exit status, stdout).

    It waits in a blocking call, because `subprocess.run(timeout=...)` polls
    with sleeps of up to 50 ms and would round the latency it adds to. A
    timer kills a process that outlives CHILD_TIMEOUT_S.
    """
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out


def _cli_inprocess(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sqgt.cli.main(list(argv))
    return code, buf.getvalue()


def build_oneshot(seed, size, workdir, traced):
    full = size == "full"
    pinned = full and seed == DEFAULT_SEED
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    C_cat, spec = concat_disjunct(read_matrix(BASE_CODE)[0], 2, 0, 7, 2)
    concat_path = os.path.join(workdir, "concat.sqgt")
    write_matrix(concat_path, C_cat, spec.params.q, spec.params.Q, spec.params.eta)
    planted_cat = _planted(make_rng(derive_seed(seed, "oneshot-concat")), C_cat.shape[1], 2)
    y_cat = syndrome(C_cat, planted_cat, spec.params.eta)

    n, d, m = (100, 15, 50) if full else (30, 3, 20)
    C_bp, p_bp = random_disjunct(n, d, 3, 2, q=7, m=m, seed=derive_seed(seed, "oneshot-code"))
    bp_path = os.path.join(workdir, "bp.sqgt")
    write_matrix(bp_path, C_bp, p_bp.q, p_bp.Q, p_bp.eta)
    noise = NoiseModel(0.04, 0.04)
    bp_cfg = BpConfig(max_iters=20, damping=0.5)
    Z = []
    for b in range(10 if full else 3):
        rng = make_rng(derive_seed(seed, "oneshot-syndrome", b))
        Z.append(apply_noise(syndrome(C_bp, _planted(rng, n, d), p_bp.eta), p_bp.Q, noise, rng))
    Z = np.array(Z)

    sim_path = os.path.join(workdir, "tiny.cfg")
    sim_text = (f"n=20\nd=2\nm=12\neta=2\nq=5\ngammas=0:0,0.02:0.02\ntrials=20\n"
                f"iterations=10\nseed={seed}\nmethods=top-d,threshold\n")
    with open(sim_path, "w") as fh:
        fh.write(sim_text)

    def decode_single(z):
        marg = bp_decode(C_bp, p_bp, z, noise, d=d, cfg=bp_cfg)
        return select_topd(marg, d), marg.iterations, tuple(marg.p1.tolist())

    batch = []

    def agrees_with_batch(out, b):
        if not batch:
            marg = bp_decode_batch(C_bp, p_bp, Z, noise, d=d, cfg=bp_cfg)
            batch.extend(Marginals(row, marg.iterations) for row in marg.p1)
        topd, iterations, p1 = out
        return (topd == select_topd(batch[b], d) and iterations == batch[b].iterations
                and np.allclose(p1, batch[b].p1, rtol=0.0, atol=1e-12))

    def fmt(values):
        return ",".join(str(int(v)) for v in values)

    def verify_cat():
        params = CodeParams(spec.params.q, spec.params.Q, spec.params.eta, 1, 2, 0)
        return "PASS\n" if is_sq_separable(C_cat, params) is None else "WITNESS"

    def capacity_line():
        pt, quant, bits = capacity_search(2, 3, 3, grid_step=0.1, refine=False)
        probs = " ".join(f"{p:.6g}" for p in pt)
        return f"P_T = [{probs}]  quantizer = {quant}  alpha = {bits:.6f} bits\n"

    out_path = os.path.join(workdir, "construct-out.sqgt")
    commands = {
        "construct": (
            ["construct", "--method", "concat-disjunct", "--base", BASE_CODE, "--d", "2",
             "--e", "0", "--q", "7", "--eta", "2", "--out", out_path],
            lambda: f"wrote 9x24 code {spec.params} to <work>/construct-out.sqgt\n",
        ),
        "verify": (
            ["verify", "--code", concat_path, "--property", "sq-separable", "--d", "2"],
            verify_cat,
        ),
        "encode": (
            ["encode", "--code", concat_path, "--defectives", fmt(planted_cat)],
            lambda: " ".join(str(int(v)) for v in y_cat) + "\n",
        ),
        "decode-concat": (
            ["decode", "--code", concat_path, "--syndrome", fmt(y_cat), "--algorithm",
             "concat", "--d", "2"],
            lambda: fmt(planted_cat) + "\n",
        ),
        "decode-bp": (
            ["decode", "--code", bp_path, "--syndrome", fmt(Z[0]), "--algorithm", "bp",
             "--d", str(d), "--gamma-p", "0.04", "--gamma-n", "0.04", "--iterations", "20",
             "--damping", "0.5", "--select", "top-d"],
            lambda: fmt(decode_single(Z[0])[0]) + "\n",
        ),
        "simulate": (
            ["simulate", "--config", sim_path, "--threads", "1"],
            lambda: rows_to_csv(run_simulation(parse_config(sim_text), threads=1)),
        ),
        "capacity": (
            ["capacity", "--d", "2", "--q", "3", "--Q", "3", "--grid-step", "0.1", "--no-refine"],
            capacity_line,
        ),
    }

    def cli_op(name, argv, second_path):
        def run():
            if traced:
                code, out = _cli_inprocess(argv)
            else:
                code, out = run_child([sys.executable, "-m", "sqgt", *argv], root, env)
            return code, out.replace(workdir, "<work>")

        def expect(out):
            if out != (0, second_path()):
                return False
            return not pinned or PIN_CLI.get(name) == out[1]

        return Op(f"cli-{name}", "cli", "cli", run, expect)

    ops = []
    if traced:
        # interpreter start and package import, which the in-process CLI skips
        ops.append(Op("probe-interp", "probe", "cli.interp",
                      lambda: run_child([sys.executable, "-c", "pass"], root, env),
                      lambda out: out[0] == 0))
        ops.append(Op("probe-import", "probe", "cli.import",
                      lambda: run_child([sys.executable, "-c", "import sqgt.cli"], root, env),
                      lambda out: out[0] == 0))
    cli_ops = [cli_op(name, argv, second) for name, (argv, second) in commands.items()]
    bp_ops = [
        Op(f"bp1-{b}", "bp1", "decode.bp_single", lambda b=b: decode_single(Z[b]),
           lambda out, b=b: agrees_with_batch(out, b))
        for b in range(len(Z))
    ]
    # interleave the two request kinds so both see the same machine state
    for i in range(max(len(cli_ops), len(bp_ops))):
        ops.extend(cli_ops[i:i + 1] + bp_ops[i:i + 1])
    def summary(samples, outputs):
        out = []
        for group in ("cli", "bp1"):
            vals = [t for op in ops if op.group == group for t in samples[op.name]]
            value, pct, count = tail(vals)
            out.append((f"{group}_p50_s", float(np.median(vals)), "s", f"n={count}"))
            out.append((f"{group}_tail_s", value, "s", f"p{pct:.1f}, n={count}"))
        return out

    return Workload(ops, summary)


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum when there are too few."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, len(ordered)
    rank = len(ordered) - 10  # 1-based rank of the value with ten samples above
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


BUILDERS = {"sweep": build_sweep, "exhaustive": build_exhaustive, "oneshot": build_oneshot}
