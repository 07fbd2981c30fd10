import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sqgt.cli import main
from sqgt.errors import ConfigError
from sqgt.fileio import CSV_HEADER
from sqgt.simulate import SweepConfig, parse_config, rows_to_csv, run_simulation

TINY = """
# tiny smoke sweep
n=12
d=2
m=12
eta=2
q=3,5
gammas=0:0,0.05:0.05
trials=20
iterations=10
seed=99
"""

BAD_NOISE = ["2:0", "-0.1:0", "nan:0", "0.6:0.6"]


def test_parse_config_round_trip():
    cfg = parse_config(TINY)
    assert cfg == SweepConfig(
        n=12, d=2, m=12, eta_step=2, q_values=(3, 5),
        gammas=((0.0, 0.0), (0.05, 0.05)), trials=20, iterations=10,
        methods=("top-d", "threshold"), seed=99,
    )


@pytest.mark.parametrize(
    "broken",
    [
        TINY.replace("q=3,5", ""),
        TINY + "bogus=1\n",
        TINY.replace("methods", "x") + "methods=best\n",
        TINY.replace("trials=20", "trials=zero"),
        TINY + "damping=abc\n",
        TINY + "damping=1.5\n",
        TINY + "damping=-0.1\n",
        TINY + "bp_tol=x\n",
        TINY + "bp_tol=0\n",
        TINY + "bp_tol=-1e-3\n",
        TINY + "bp_tol=nan\n",
        TINY + "bp_tol=inf\n",
        TINY.replace("q=3,5", "q=1,5"),
        *(TINY.replace("gammas=0:0,0.05:0.05", f"gammas=0:0,{pair}") for pair in BAD_NOISE),
    ],
)
def test_parse_config_errors(broken):
    with pytest.raises(ConfigError):
        parse_config(broken)


@pytest.mark.parametrize(
    "change,message",
    [
        ({"trials": 0}, "need n > d >= 1"),
        ({"trials": -1}, "need n > d >= 1"),
        ({"d": 13}, "need n > d >= 1"),
        ({"methods": ("best",)}, "unknown method 'best'"),
        ({"q_values": (3, 1)}, "q: every alphabet size must be >= 2, got (3, 1)"),
        ({"q_values": ()}, "q: every alphabet size must be >= 2, got ()"),
        ({"damping": 1.0}, "damping must lie in [0, 1)"),
        ({"bp_tol": float("nan")}, "bp_tol must be positive and finite"),
        ({"d": 12}, "need n > d >= 1"),
        ({"gammas": ((0.0, 0.0), (0.6, 0.6))}, "gammas: need gamma_p, gamma_n >= 0"),
    ],
)
def test_sweep_config_checks_itself(change, message):
    # a config built in code gets the checks and messages of parse_config
    fields = {**vars(parse_config(TINY)), **change}
    with pytest.raises(ConfigError) as err:
        SweepConfig(**fields)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("pair", BAD_NOISE)
def test_simulate_cli_refuses_a_bad_noise_pair(tmp_path, capsys, pair):
    # the pair follows a good one: it is refused before any sweep point runs
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY.replace("gammas=0:0,0.05:0.05", f"gammas=0:0,{pair}"))
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ConfigError: gammas: need gamma_p, gamma_n >= 0")


def test_csv_deterministic_and_well_formed():
    cfg = parse_config(TINY)
    a = rows_to_csv(run_simulation(cfg, threads=1))
    b = rows_to_csv(run_simulation(cfg, threads=2))
    assert a == b
    lines = a.splitlines()
    assert lines[0] == CSV_HEADER
    # one row per (q, noise, method)
    assert len(lines) == 1 + 2 * 2 * 2


GOLDEN = """
n=30
d=3
m=20
eta=2
q=2,5,11
gammas=0:0,0.04:0.04
trials=60
iterations=10
damping=0.5
seed=101
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_csv_matches_golden_bytes(threads):
    # generated with the trial-major BP kernel; any change in the marginals'
    # bits that flips a selection shows here
    golden = (pathlib.Path(__file__).parent / "data" / "sweep_golden.csv").read_text()
    assert rows_to_csv(run_simulation(parse_config(GOLDEN), threads=threads)) == golden


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked only where fork exists")
def test_no_process_outlives_run_simulation():
    # a fresh interpreter, so that no earlier pool's helpers count: after a
    # two-worker sweep the process has no child left, running or unreaped
    src = str(pathlib.Path(__file__).parent.parent / "src")
    probe = (
        "import os\n"
        "from sqgt.simulate import parse_config, run_simulation\n"
        f"rows = run_simulation(parse_config({TINY!r}), threads=2)\n"
        "assert len(rows) == 8\n"
        "try:\n"
        "    print(os.waitpid(-1, os.WNOHANG))\n"
        "except ChildProcessError:\n"
        "    print('no children')\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "no children\n"


def test_small_rows_with_large_d():
    # the row-count formula overflowed here although the sweep fixes m
    cfg = parse_config("n=400\nd=200\nm=3\neta=1\nq=2\ntrials=2\niterations=2\nseed=1\n")
    rows = run_simulation(cfg, threads=1)
    assert [row.method for row in rows] == ["top-d", "threshold"]
    assert all(row.m == 3 and row.d == 200 for row in rows)


def test_topd_rows_have_equal_rates():
    cfg = parse_config(TINY)
    for row in run_simulation(cfg, threads=1):
        assert 0.0 <= row.p_fn <= 1.0 and 0.0 <= row.p_fp <= 1.0 and 0.0 <= row.p_e <= 1.0
        if row.method == "top-d":
            assert row.p_e == row.p_fn == row.p_fp


def test_individual_testing_is_exact():
    # one subject per test, entry at the first threshold: noiseless BP nails it
    cfg = SweepConfig(
        n=10, d=2, m=10, eta_step=1, q_values=(2,), gammas=((0.0, 0.0),),
        trials=25, iterations=10, methods=("top-d",), seed=3,
    )
    # q=2 with step 1 keeps the multi-level path (levels=1) but a random code
    # may miss subjects; build the identity explicitly through the library
    import sqgt.simulate as sim
    from sqgt.model import CodeParams

    identity = np.eye(10, dtype=np.int64)
    orig = sim._build_code
    sim._build_code = lambda c, q: (identity, CodeParams.equidistant(2, 1, 1, c.d))
    try:
        rows = run_simulation(cfg, threads=1)
    finally:
        sim._build_code = orig
    assert rows[0].p_e == 0.0


def test_error_scaling_with_trials():
    # standard error of the P_e estimate drops like 1/sqrt(trials): compare
    # batch-mean spreads at T and 2T from one long run of per-trial rates
    cfg = SweepConfig(
        n=12, d=2, m=8, eta_step=2, q_values=(5,), gammas=((0.08, 0.08),),
        trials=30, iterations=8, methods=("top-d",), seed=0,
    )
    import dataclasses

    singles = []
    for rep in range(60):
        one = dataclasses.replace(cfg, seed=rep)
        singles.append(run_simulation(one, threads=1)[0].p_e)
    singles = np.array(singles)
    sd_T = singles[:30].std() + singles[30:].std()
    pairs = 0.5 * (singles[::2] + singles[1::2])  # doubled-trial estimates
    sd_2T = pairs[:15].std() + pairs[15:].std()
    ratio = (sd_2T / 2) / (sd_T / 2)
    # 3-sigma band around 1/sqrt(2) for these sample sizes
    assert 0.4 < ratio < 1.1
