import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sqgt.simulate as sim
from sqgt.cli import main
from sqgt.errors import BadRange
from sqgt.fileio import CSV_HEADER, read_matrix, write_matrix

from conftest import GOLDEN_9x24

DATA = pathlib.Path(__file__).parent / "data"
BASE = str(DATA / "base_2disjunct_9x12.sqgt")
SEP_BASE = str(DATA / "base_2separable_7x8.sqgt")


def run(*argv):
    return main([str(a) for a in argv])


class TestConstructVerifyRoundTrip:
    def test_concat_golden_flow(self, tmp_path, capsys):
        out = tmp_path / "code.sqgt"
        assert run("construct", "--method", "concat-disjunct", "--base", BASE,
                   "--d", 2, "--e", 0, "--q", 7, "--eta", 2, "--out", out) == 0
        C, q, Q, eta = read_matrix(out)
        assert np.array_equal(C, GOLDEN_9x24)

        assert run("verify", "--code", out, "--property", "sq-separable", "--d", 2) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

        assert run("encode", "--code", out, "--defectives", "2,20") == 0
        y = capsys.readouterr().out.strip()
        assert y == "3 0 1 4 0 0 0 3 1"

        assert run("decode", "--code", out, "--syndrome", y.replace(" ", ","),
                   "--algorithm", "concat", "--d", 2) == 0
        assert capsys.readouterr().out.strip() == "2,20"

    def test_every_verify_property_runs(self, tmp_path, capsys):
        assert run("verify", "--code", BASE, "--property", "bin-disjunct", "--d", 2) == 0
        assert run("verify", "--code", SEP_BASE, "--property", "bin-sep-cgt", "--d", 2) == 0
        assert run("verify", "--code", BASE, "--property", "bin-sep-qgt", "--d", 1) == 0
        out = tmp_path / "scaled.sqgt"
        run("construct", "--method", "scale-disjunct", "--base", BASE, "--d", 2,
            "--q", 3, "--thresholds", "0,2,3,5,7", "--out", out)
        assert run("verify", "--code", out, "--property", "sq-disjunct", "--d", 2) == 0
        capsys.readouterr()

    def test_witness_exits_one(self, tmp_path, capsys):
        out = tmp_path / "dup.sqgt"
        from sqgt.fileio import write_matrix

        write_matrix(out, np.array([[1, 1], [1, 1]]), 2, 2, (0, 1, 3))
        assert run("verify", "--code", out, "--property", "bin-disjunct", "--d", 1) == 1
        assert capsys.readouterr().out.startswith("WITNESS")

    def test_error_prints_name_and_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "x.sqgt"
        code = run("construct", "--method", "scale-disjunct", "--base", BASE,
                   "--d", 2, "--q", 2, "--thresholds", "0,2,5", "--out", out)
        assert code == 2
        assert "AlphabetTooSmall" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("decode", "--code", "{tmp}/missing.sqgt", "--syndrome", "1", "--algorithm", "disjunct"),
        ("construct", "--method", "lindstrom", "--q", 3, "--eta", 2, "--out", "{tmp}/no/dir.sqgt"),
    ])
    def test_os_error_reported(self, tmp_path, capsys, argv):
        assert run(*(str(a).format(tmp=tmp_path) for a in argv)) == 2
        assert capsys.readouterr().err.startswith("FileNotFoundError:")

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.sqgt"
        bad.write_text("garbage\n")
        assert run("verify", "--code", bad, "--property", "bin-disjunct", "--d", 1) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_concat_d1_refuses_unexplained_syndrome(self, tmp_path, capsys):
        out = tmp_path / "code.sqgt"
        assert run("construct", "--method", "concat-disjunct", "--base", BASE,
                   "--d", 1, "--q", 7, "--eta", 2, "--out", out) == 0
        capsys.readouterr()
        assert run("decode", "--code", out, "--syndrome", "3,0,0,0,3,0,0,0,0",
                   "--algorithm", "concat", "--d", 1) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("NoConsistentSet: block 3 ")


class TestOtherConstructions:
    def test_lindstrom_and_decode(self, tmp_path, capsys):
        out = tmp_path / "lind.sqgt"
        assert run("construct", "--method", "lindstrom", "--kappa", 3, "--q", 9,
                   "--eta", 2, "--out", out) == 0
        capsys.readouterr()
        assert run("encode", "--code", out, "--defectives", "1,9,22,26") == 0
        z = capsys.readouterr().out.strip().replace(" ", ",")
        assert run("decode", "--code", out, "--syndrome", z, "--algorithm",
                   "lindstrom") == 0
        assert capsys.readouterr().out.strip() == "1,9,22,26"

    def test_lindstrom_decode_needs_equidistant_thresholds(self, tmp_path, capsys):
        out = tmp_path / "lind.sqgt"
        assert run("construct", "--method", "lindstrom", "--kappa", 3, "--q", 9,
                   "--eta", 2, "--out", out) == 0
        C, q, Q, eta = read_matrix(out)
        write_matrix(out, C, q, Q, (0, 2, 5) + eta[3:])
        capsys.readouterr()
        # with eta_2 moved, a structure read as step eta_1 decodes subject 2 as 3
        assert run("encode", "--code", out, "--defectives", "2") == 0
        z = capsys.readouterr().out.strip().replace(" ", ",")
        assert run("decode", "--code", out, "--syndrome", z, "--algorithm", "lindstrom") == 2
        assert capsys.readouterr().err.startswith("BadThreshold:")

    def test_bose_chowla_and_ml(self, tmp_path, capsys):
        out = tmp_path / "bc.sqgt"
        assert run("construct", "--method", "bose-chowla", "--n", 5, "--d", 2,
                   "--q", 3, "--eta", 1, "--out", out) == 0
        capsys.readouterr()
        run("encode", "--code", out, "--defectives", "2,4")
        z = capsys.readouterr().out.strip().replace(" ", ",")
        assert run("decode", "--code", out, "--syndrome", z, "--algorithm", "ml",
                   "--l", 2, "--d", 2) == 0
        assert capsys.readouterr().out.strip() == "2,4"

    def test_random_constructions_deterministic(self, tmp_path):
        a, b = tmp_path / "a.sqgt", tmp_path / "b.sqgt"
        for out in (a, b):
            assert run("construct", "--method", "random-disjunct", "--n", 12, "--d", 2,
                       "--q", 5, "--eta", 2, "--seed", 11, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_binary_runs(self, tmp_path):
        out = tmp_path / "rb.sqgt"
        assert run("construct", "--method", "random-binary", "--n", 12, "--d", 3,
                   "--thresholds", "0,2,4,5", "--alpha", 1, "--m", 40,
                   "--seed", 0, "--out", out) == 0

    def test_scale_separable(self, tmp_path, capsys):
        out = tmp_path / "ss.sqgt"
        assert run("construct", "--method", "scale-separable", "--base", SEP_BASE,
                   "--d", 2, "--q", 3, "--thresholds", "0,2,5", "--out", out) == 0
        capsys.readouterr()
        assert run("verify", "--code", out, "--property", "sq-separable", "--d", 2) == 0

    def test_bp_decode_runs(self, tmp_path, capsys):
        out = tmp_path / "rnd.sqgt"
        run("construct", "--method", "random-disjunct", "--n", 12, "--d", 2,
            "--q", 5, "--eta", 2, "--seed", 1, "--m", 30, "--out", out)
        capsys.readouterr()
        run("encode", "--code", out, "--defectives", "3,8")
        z = capsys.readouterr().out.strip().replace(" ", ",")
        assert run("decode", "--code", out, "--syndrome", z, "--algorithm", "bp",
                   "--d", 2, "--select", "top-d") == 0
        assert capsys.readouterr().out.strip() == "3,8"

    @pytest.mark.parametrize("argv", [
        ("decode", "--code", BASE, "--syndrome", "1,x,2", "--algorithm", "disjunct", "--d", 2),
        ("encode", "--code", BASE, "--defectives", "1,x,2"),
        ("construct", "--method", "scale-disjunct", "--base", BASE, "--d", 2, "--q", 3,
         "--thresholds", "0,x,5", "--out", os.devnull),
    ])
    def test_bad_integer_list(self, capsys, argv):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("BadRange:") and "'x'" in err


class TestBadValues:
    RANDOM = ("--method", "random-disjunct", "--n", 12, "--d", 2, "--q", 5, "--eta", 2)
    BINARY = ("--method", "random-binary", "--n", 12, "--d", 3, "--thresholds", "0,2,4,5")
    CAPACITY = ("capacity", "--d", 2, "--q", 3, "--Q", 3, "--grid-step")

    CONSTRUCT = [(argv, "BadRange") for argv in (
        ("--method", "random-disjunct", "--n", 12, "--d", 2, "--q", 5, "--eta", 0),
        ("--method", "bose-chowla", "--n", 5, "--d", 2, "--q", 3, "--eta", 0),
        ("--method", "lindstrom", "--kappa", 3, "--q", 9, "--eta", 0),
        RANDOM + ("--m", -3),
        RANDOM + ("--m-multiplier", -1),
        BINARY + ("--m", -3),
        BINARY + ("--m-multiplier", 0),
        RANDOM + ("--delta", "nan"),
        RANDOM + ("--delta", "inf"),
        RANDOM + ("--delta", -100),
        BINARY + ("--delta", "nan"),
        BINARY + ("--delta", "inf"),
        BINARY + ("--delta", -100),
    )] + [
        (BINARY[:-1] + ("0,2,0,5", "--alpha", 2), "ThresholdNotIncreasing"),
        (BINARY[:-1] + ("0,2,-4,5", "--alpha", 2), "ThresholdNotIncreasing"),
    ]

    @pytest.mark.parametrize("argv, error", CONSTRUCT,
                             ids=[f"argv{i}" for i in range(len(CONSTRUCT))])
    def test_construct(self, capsys, argv, error):
        assert run("construct", *argv, "--out", os.devnull) == 2
        assert capsys.readouterr().err.startswith(f"{error}:")

    @pytest.mark.parametrize("argv", [
        CAPACITY + (0,),
        CAPACITY + (5,),
        CAPACITY + (-0.1,),
        ("decode", "--code", BASE, "--syndrome", "1,0,1,0,0,0,0,0,99", "--algorithm",
         "disjunct", "--d", 2),
        ("decode", "--code", BASE, "--syndrome", "1,0,1", "--algorithm", "ml", "--d", 2),
        ("decode", "--code", BASE, "--syndrome", "1,0,1,0,0,0,0,0,2", "--algorithm", "ml",
         "--d", 2),
        ("decode", "--code", BASE, "--syndrome=-1,0,1,0,0,0,0,0,0", "--algorithm", "ml",
         "--d", 2),
    ])
    def test_search_and_decode(self, capsys, argv):
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("BadRange:")

    @pytest.mark.parametrize("argv", [
        ("encode", "--code", BASE, "--defectives", "1,2"),
        ("decode", "--code", BASE, "--syndrome", "1,0,1,0,0,0,0,0,1", "--algorithm", "ml",
         "--d", 2),
        ("decode", "--code", BASE, "--syndrome", "1,0,1,0,0,0,0,0,1", "--algorithm", "bp",
         "--d", 2),
    ])
    @pytest.mark.parametrize("rate", ["--gamma-p", "--gamma-n"])
    def test_nan_noise_rate(self, capsys, argv, rate):
        assert run(*argv, rate, "nan") == 2
        assert capsys.readouterr().err.startswith("BadRange:")

    def test_random_disjunct_without_levels(self, capsys):
        argv = ("--method", "random-disjunct", "--n", 12, "--d", 2, "--q", 3, "--eta", 3)
        assert run("construct", *argv, "--out", os.devnull) == 2
        assert capsys.readouterr().err.startswith("AlphabetTooSmall:")

    @pytest.mark.parametrize("argv", [
        ("encode", "--defectives", "1,2"),
        ("decode", "--syndrome", "1,1", "--algorithm", "disjunct", "--d", 2),
        ("verify", "--property", "sq-separable", "--d", 2),
    ])
    def test_decreasing_thresholds_in_file(self, tmp_path, capsys, argv):
        code = tmp_path / "bad.sqgt"
        code.write_text("SQGT-CODE v1\nq=3 Q=3 m=2 n=2\neta=0,3,1,9\n1 2\n2 1\n")
        assert run(argv[0], "--code", code, *argv[1:]) == 2
        assert capsys.readouterr().err.startswith("ThresholdNotIncreasing:")

    @pytest.mark.parametrize("argv", [
        ("encode", "--defectives", "1,2"),
        ("decode", "--syndrome", "0", "--algorithm", "disjunct", "--d", 2),
        ("verify", "--property", "sq-separable", "--d", 2),
    ])
    @pytest.mark.parametrize("params", ["q=2 Q=1 m=1 n=2\neta=0,5", "q=1 Q=2 m=1 n=2\neta=0,1,2"])
    def test_alphabets_below_two_in_file(self, tmp_path, capsys, argv, params):
        code = tmp_path / "bad.sqgt"
        code.write_text(f"SQGT-CODE v1\n{params}\n0 0\n")
        assert run(argv[0], "--code", code, *argv[1:]) == 2
        assert capsys.readouterr().err.startswith("BadRange: alphabet sizes must be >= 2")


class TestSimulateCli:
    CONFIG = "n=10\nd=2\nm=10\neta=2\nq=3\ngammas=0:0\ntrials=5\niterations=5\nseed=4\nmethods=top-d\n"

    def test_csv_to_stdout_and_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        assert run("simulate", "--config", cfg) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == CSV_HEADER
        out = tmp_path / "rows.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        assert out.read_text() == text

    def test_threads_env(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        monkeypatch.setenv("SQGT_THREADS", "2")
        assert run("simulate", "--config", cfg) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_bad_threads_env(self, tmp_path, capsys, monkeypatch, value):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        monkeypatch.setenv("SQGT_THREADS", value)
        assert run("simulate", "--config", cfg) == 2
        assert capsys.readouterr().err.startswith(
            f"ConfigError: SQGT_THREADS must be an integer >= 0, got {value!r}"
        )

    def test_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("nope\n")
        assert run("simulate", "--config", cfg) == 2
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [1, 2])
    def test_point_error_is_typed_at_any_worker_count(self, tmp_path, capsys, monkeypatch, threads):
        # the code build of the q = 5 points fails; a worker process (forked,
        # so it inherits the patch) hands the same typed error back as the
        # in-process path
        build = sim._build_code

        def failing_build(cfg, q):
            if q == 5:
                raise BadRange(f"no code at q={q}")
            return build(cfg, q)

        monkeypatch.setattr(sim, "_build_code", failing_build)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n=6\nd=2\nm=4\neta=1\nq=2,5\ntrials=2\niterations=2\nseed=1\n")
        assert run("simulate", "--config", cfg, "--threads", threads) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "BadRange: no code at q=5\n"


def test_construct_overflow_is_typed(tmp_path, capsys):
    out = tmp_path / "code.sqgt"
    assert run("construct", "--method", "random-disjunct", "--n", 400, "--d", 200,
               "--q", 201, "--eta", 1, "--out", out) == 2
    assert capsys.readouterr().err.startswith(
        "Overflow: row success probability overflows at d=200, levels=200"
    )
    assert not out.exists()


def test_capacity_cli(capsys):
    assert run("capacity", "--d", 2, "--q", 3, "--Q", 3, "--grid-step", 0.1,
               "--no-refine") == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "quantizer" in out


def test_capacity_cli_refuses_one_region(capsys):
    assert run("capacity", "--d", 2, "--q", 3, "--Q", 1) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "BadRange: need d >= 1, q >= 2, Q >= 2, got 2, 3, 1\n"


def test_import_leaves_the_thread_pool_unloaded():
    # only simulate with threads > 1 needs the process pool, multiprocessing
    # and logging
    src = str(pathlib.Path(__file__).parent.parent / "src")
    pool = "{'concurrent.futures', 'logging', 'multiprocessing'}"
    probe = f"import sys, sqgt.cli; print(sorted({pool} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
