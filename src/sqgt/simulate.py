"""Deterministic error-rate sweeps over the BP decoding pipeline.

A sweep point is one (q, noise) pair: it builds a code from a seed derived
from (master seed, point index), plants a uniform defective subset per
trial, encodes, adds noise, BP-decodes the whole batch of trials at once,
and tallies subject-level error rates for both selection rules. Identical
config and seed give byte-identical CSV output however many worker
processes run the points.

Rate conventions per trial, with D the planted set and Dhat the decoded
one: P_FN = |D \\ Dhat| / d, P_FP = |Dhat \\ D| / max(|Dhat|, 1), and
P_e = |D symm-diff Dhat| / (d + |Dhat|). Under top-d selection |Dhat| = d,
so all three coincide exactly.
"""

import math
import os
from dataclasses import dataclass
from functools import partial
from numbers import Integral

import numpy as np

from .construct import MAX_CELLS, _rows_per_block, random_disjunct
from .decode import BpConfig, bp_decode_batch, select_threshold, select_topd, Marginals
from .errors import BadRange, ConfigError
from .fileio import CSV_HEADER
from .model import CodeParams, NoiseModel, _check_integer, _check_real, apply_noise, syndrome
from .rng import derive_seed, make_rng

__all__ = ["SweepConfig", "SimulationRow", "parse_config", "run_simulation", "rows_to_csv"]

_METHODS = ("top-d", "threshold")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep's settings; building one checks every value (ConfigError)."""

    n: int
    d: int
    m: int
    eta_step: int
    q_values: tuple[int, ...]
    gammas: tuple[tuple[float, float], ...]
    trials: int
    iterations: int
    methods: tuple[str, ...]
    seed: int
    bp_tol: float | None = None
    damping: float = 0.0

    def __post_init__(self):
        for meth in self.methods:
            if meth not in _METHODS:
                raise ConfigError(f"unknown method {meth!r}, choose from {_METHODS}")
        try:
            for name, value in (("n", self.n), ("d", self.d), ("m", self.m), ("eta", self.eta_step),
                                ("trials", self.trials), ("iterations", self.iterations),
                                ("seed", self.seed), *(("q", q) for q in self.q_values)):
                _check_integer(name, value)
            # text or None would end the range checks below in a bare TypeError
            _check_real("damping", self.damping)
            if self.bp_tol is not None:
                _check_real("bp_tol", self.bp_tol)
        except BadRange as err:
            raise ConfigError(str(err)) from None
        sizes = (self.n, self.d, self.m, self.eta_step, self.trials, self.iterations)
        if min(sizes) < 1 or self.d >= self.n:
            raise ConfigError("need n > d >= 1 and m, eta, trials, iterations >= 1")
        if self.trials * self.m > MAX_CELLS:
            raise ConfigError(f"trials={self.trials} x m={self.m} results exceed {MAX_CELLS} cells")
        if min(self.q_values, default=0) < 2:
            raise ConfigError(f"q: every alphabet size must be >= 2, got {self.q_values}")
        # a repeated point would run twice on the same derived seeds
        for key, values in (("q", self.q_values), ("gammas", self.gammas), ("methods", self.methods)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"{key}: {value!r} is repeated")
        for gamma_p, gamma_n in self.gammas:
            try:
                NoiseModel(gamma_p, gamma_n)
            except BadRange as err:
                raise ConfigError(f"gammas: {err}") from None
        if not 0.0 <= self.damping < 1.0:
            raise ConfigError(f"damping must lie in [0, 1), got {self.damping}")
        if self.bp_tol is not None and not 0.0 < self.bp_tol < math.inf:
            raise ConfigError(f"bp_tol must be positive and finite, got {self.bp_tol}")


@dataclass(frozen=True)
class SimulationRow:
    """One CSV row: a (q, noise, selection-method) cell of the sweep."""

    seed: int
    n: int
    m: int
    d: int
    q: int
    eta: tuple[int, ...]
    gamma_p: float
    gamma_n: float
    trials: int
    iters: int
    method: str
    p_e: float
    p_fn: float
    p_fp: float


def parse_config(text: str) -> SweepConfig:
    """Parse the flat key=value sweep config format."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        values[key] = val.strip()

    def need(key):
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
        return values.pop(key)

    def as_int(key, raw):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: bad integer {raw!r}") from None

    def as_float(key, raw):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: bad number {raw!r}") from None

    n = as_int("n", need("n"))
    d = as_int("d", need("d"))
    m = as_int("m", need("m"))
    eta_step = as_int("eta", need("eta"))
    q_values = tuple(as_int("q", x) for x in need("q").split(","))
    trials = as_int("trials", need("trials"))
    iterations = as_int("iterations", need("iterations"))
    seed = as_int("seed", need("seed"))
    gammas = []
    for pair in values.pop("gammas", "0:0").split(","):
        p, _, nn = pair.partition(":")
        try:
            gammas.append((float(p), float(nn)))
        except ValueError:
            raise ConfigError(f"gammas: bad pair {pair!r}") from None
    methods = tuple(x.strip() for x in values.pop("methods", "top-d,threshold").split(","))
    bp_tol = as_float("bp_tol", values.pop("bp_tol")) if "bp_tol" in values else None
    damping = as_float("damping", values.pop("damping", "0"))
    if values:
        raise ConfigError(f"unknown keys {sorted(values)}")
    return SweepConfig(
        n=n, d=d, m=m, eta_step=eta_step, q_values=q_values, gammas=tuple(gammas),
        trials=trials, iterations=iterations, methods=methods, seed=seed,
        bp_tol=bp_tol, damping=damping,
    )


def _build_code(cfg: SweepConfig, q: int) -> tuple[np.ndarray, CodeParams]:
    code_seed = derive_seed(cfg.seed, "code", q)
    levels = (q - 1) // cfg.eta_step
    if levels >= 1:
        return random_disjunct(
            cfg.n, cfg.d, levels, cfg.eta_step, q=q, m=cfg.m, seed=code_seed
        )
    # the multi-level alphabet is empty (q-1 below the step): fall back to a
    # plain Bernoulli binary matrix at the classical density, under the same cap
    rng = make_rng(code_seed)
    C = (rng.random((_rows_per_block(cfg.m, cfg.n), cfg.n)) < 1.0 / (cfg.d + 1)).astype(np.int64)
    return C, CodeParams.equidistant(q, cfg.eta_step, 1, cfg.d)


def _select(method: str, marq: Marginals, d: int) -> tuple[int, ...]:
    if method == "top-d":
        return select_topd(marq, d)
    return select_threshold(marq)


def _run_point(cfg: SweepConfig, q: int, gp: float, gn: float) -> list[SimulationRow]:
    # seeds hang off q alone, so every noise setting at one q is a paired
    # experiment: same code, same planted sets, same base uniforms
    C, params = _build_code(cfg, q)
    noise = NoiseModel(gp, gn)
    planted: list[set[int]] = []
    Z = np.empty((cfg.trials, cfg.m), dtype=np.int64)
    for t in range(cfg.trials):
        rng = make_rng(derive_seed(cfg.seed, "trial", q, t))
        subjects = sorted(int(x) + 1 for x in rng.choice(cfg.n, cfg.d, replace=False))
        planted.append(set(subjects))
        y = syndrome(C, subjects, params.eta)
        Z[t] = apply_noise(y, params.Q, noise, rng)
    bp_cfg = BpConfig(max_iters=cfg.iterations, damping=cfg.damping, tol=cfg.bp_tol)
    marg = bp_decode_batch(C, params, Z, noise, d=cfg.d, cfg=bp_cfg)

    rows = []
    for method in cfg.methods:
        fn = fp = pe = 0.0
        for t in range(cfg.trials):
            got = set(_select(method, Marginals(marg.p1[t], marg.iterations), cfg.d))
            miss = len(planted[t] - got)
            extra = len(got - planted[t])
            fn += miss / cfg.d
            fp += extra / max(len(got), 1)
            pe += (miss + extra) / (cfg.d + len(got))
        rows.append(
            SimulationRow(
                seed=cfg.seed, n=cfg.n, m=cfg.m, d=cfg.d, q=q, eta=params.eta,
                gamma_p=gp, gamma_n=gn, trials=cfg.trials, iters=marg.iterations,
                method=method, p_e=pe / cfg.trials, p_fn=fn / cfg.trials,
                p_fp=fp / cfg.trials,
            )
        )
    return rows


def run_simulation(cfg: SweepConfig, threads: int | None = None) -> list[SimulationRow]:
    """Run every sweep point; rows come back in deterministic sweep order
    (q outer, noise pair inner, then selection method) regardless of the
    worker count. threads caps the workers: None means the cpu count, and
    anything but an integer >= 1 raises ConfigError. One worker runs in
    process; more run as forked processes, all joined before the call
    returns. Without fork (Windows) every point runs in process."""
    if threads is None:
        threads = os.cpu_count() or 1
    elif isinstance(threads, bool) or not isinstance(threads, Integral) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    points = [(q, gp, gn) for q in cfg.q_values for (gp, gn) in cfg.gammas]
    threads = min(threads, len(points))
    if threads > 1:
        import multiprocessing  # only here, like the pool: they load socket and logging

        if "fork" not in multiprocessing.get_all_start_methods():
            threads = 1
    if threads <= 1:  # also no points at all
        buckets = [_run_point(cfg, *pt) for pt in points]
    else:
        # rng loads these on first use; loaded here, before the fork, their
        # pages are shared by every worker instead of loaded by each (4-5 MB)
        import hashlib  # noqa: F401
        import numpy.random  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor

        # fork, not forkserver or spawn: those leave a fork server or a
        # resource tracker running after the pool has closed. A fork pool
        # starts every worker before its manager thread, so none of the
        # pool's threads exists yet when the workers fork.
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as pool:
            buckets = list(pool.map(partial(_run_point, cfg), *zip(*points)))
    return [row for bucket in buckets for row in bucket]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        eta = "|".join(str(t) for t in r.eta)
        lines.append(
            ",".join(
                [
                    str(r.seed), str(r.n), str(r.m), str(r.d), str(r.q), eta,
                    _fmt(r.gamma_p), _fmt(r.gamma_n), str(r.trials), str(r.iters),
                    r.method, _fmt(r.p_e), _fmt(r.p_fn), _fmt(r.p_fp),
                ]
            )
        )
    return "\n".join(lines) + "\n"
