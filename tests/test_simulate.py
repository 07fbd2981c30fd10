import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sqgt.construct as construct
from sqgt.cli import main
from sqgt.errors import BadRange, ConfigError
from sqgt.fileio import CSV_HEADER
from sqgt.rng import derive_seed
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
        ({"q_values": (3, 5, 3)}, "q: 3 is repeated"),
        ({"gammas": ((0.0, 0.0), (0.0, 0.0))}, "gammas: (0.0, 0.0) is repeated"),
        ({"methods": ("threshold", "threshold")}, "methods: 'threshold' is repeated"),
        # non-integers ended in a bare TypeError when run, or printed seed 1.5
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"m": 10.5}, "m must be an integer, got 10.5"),
        ({"n": 10.0}, "n must be an integer, got 10.0"),
        ({"iterations": 2.5}, "iterations must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"eta_step": 2.0}, "eta must be an integer, got 2.0"),
        ({"d": True}, "d must be an integer, got True"),
        ({"q_values": (3, 5.0)}, "q must be an integer, got 5.0"),
    ],
)
def test_sweep_config_checks_itself(change, message):
    # a config built in code gets the checks and messages of parse_config
    fields = {**vars(parse_config(TINY)), **change}
    with pytest.raises(ConfigError) as err:
        SweepConfig(**fields)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "text,message",
    [
        (TINY + "seed=9\n", "line 12: repeated key 'seed'"),
        (TINY + " q = 7\n", "line 12: repeated key 'q'"),
        (TINY.replace("q=3,5", "q=3,3"), "q: 3 is repeated"),
        (TINY.replace("q=3,5", "q=5,3,5"), "q: 5 is repeated"),
        (TINY.replace("gammas=0:0,0.05:0.05", "gammas=0:0,0.05:0.05,0.0:0"), "gammas: (0.0, 0.0) is repeated"),
        (TINY + "methods=top-d,threshold,top-d\n", "methods: 'top-d' is repeated"),
    ],
    ids=["key", "spaced-key", "q", "q-apart", "gammas", "methods"],
)
def test_repeated_settings_are_refused(tmp_path, capsys, text, message):
    # a repeated key would keep its last value; a repeated value would run
    # the same point twice on the same seeds and print duplicate rows
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ConfigError: {message}\n"


def test_numpy_integers_derive_the_seeds_of_python_ints():
    # repr(np.int64(5)) is 'np.int64(5)' under numpy 2; the seed hashes 5
    assert derive_seed(1, "trial", np.int64(5), 0) == derive_seed(1, "trial", 5, 0)
    fields = dict(n=20, d=2, m=8, eta_step=2, gammas=((0.0, 0.0),), trials=5,
                  iterations=5, methods=("top-d",), seed=3)
    python = rows_to_csv(run_simulation(SweepConfig(q_values=(5,), **fields), threads=1))
    numpy = rows_to_csv(run_simulation(SweepConfig(q_values=(np.int64(5),), **fields), threads=1))
    assert numpy == python


def test_sweep_results_are_capped():
    # the trials x m result array is refused at parse time, at the cap of
    # the codes' cells; a config at the cap parses
    at_cap = TINY.replace("m=12", "m=10").replace("trials=20", f"trials={construct.MAX_CELLS // 10}")
    assert parse_config(at_cap).trials * 10 == construct.MAX_CELLS
    over = at_cap.replace(f"trials={construct.MAX_CELLS // 10}", f"trials={construct.MAX_CELLS // 10 + 1}")
    with pytest.raises(ConfigError, match=f"trials=1000001 x m=10 results exceed {construct.MAX_CELLS} cells"):
        parse_config(over)


def test_simulate_cli_refuses_an_oversized_sweep(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY.replace("trials=20", "trials=1000000000000"))
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ConfigError: trials=1000000000000 x m=12 results exceed")


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


@pytest.mark.parametrize("threads", [0, -3, 1.0, "2", True])
def test_worker_cap_must_be_a_positive_integer(threads):
    with pytest.raises(ConfigError, match="threads must be an integer >= 1"):
        run_simulation(parse_config(TINY), threads=threads)


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


@pytest.mark.parametrize("q", [2, 5])  # the Bernoulli fallback, the multi-level code
def test_sweep_codes_share_the_cell_cap(monkeypatch, q):
    cfg = parse_config(f"n=12\nd=2\nm=12\neta=2\nq={q}\ntrials=2\niterations=2\nseed=1\n")
    monkeypatch.setattr(construct, "MAX_CELLS", 12 * 12)
    assert len(run_simulation(cfg, threads=1)) == 2
    monkeypatch.setattr(construct, "MAX_CELLS", 12 * 12 - 1)
    with pytest.raises(BadRange, match="rows x n=12 columns exceed 143 matrix cells"):
        run_simulation(cfg, threads=1)


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
