import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sqgt.simulate as sim
from sqgt.cli import DECODE_ALGORITHMS, main
from sqgt.construct import lindstrom
from sqgt.errors import BadRange
from sqgt.fileio import CSV_HEADER, read_matrix, write_matrix
from sqgt.model import MAX_CELLS, CodeParams

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

    def test_binary_separable_checks_read_the_lower_end(self, tmp_path, capsys):
        # the q = 2 Bose-Chowla code separates the 2-sets only: {3} and
        # {1,2} share a syndrome, so (1:2) fails and (2:2) passes
        out = tmp_path / "bc.sqgt"
        assert run("construct", "--method", "bose-chowla", "--n", 13, "--d", 2, "--q", 2,
                   "--eta", 1, "--out", out) == 0
        capsys.readouterr()
        for prop in ("bin-sep-cgt", "bin-sep-qgt"):
            assert run("verify", "--code", out, "--property", prop, "--d", 2) == 1
            assert capsys.readouterr().out.startswith("WITNESS sq-separable: {3} vs {1,2}")
        assert run("verify", "--code", out, "--property", "bin-sep-qgt", "--d", 2, "--l", 2) == 0
        assert capsys.readouterr().out == "PASS\n"

    def test_disjunct_check_passes_and_names_the_canonical_witness(self, capsys):
        assert run("verify", "--code", BASE, "--property", "bin-disjunct", "--d", 2) == 0
        assert capsys.readouterr().out == "PASS\n"
        assert run("verify", "--code", BASE, "--property", "bin-disjunct", "--d", 3) == 1
        assert capsys.readouterr().out == ("WITNESS sq-disjunct: {1,2,3,5} vs {5}: column 5 beats "
                                           "the other 3 on 0 coordinates, needs 1\n")

    @pytest.mark.parametrize("prop", ["bin-disjunct", "sq-disjunct"])
    def test_disjunct_checks_refuse_a_lower_end(self, capsys, prop):
        assert run("verify", "--code", BASE, "--property", prop, "--d", 2, "--l", 2) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("BadRange:")

    @pytest.mark.parametrize("algorithm, found", [
        ("disjunct", "3\n"), ("bp", "1,3\n"), ("concat", None), ("lindstrom", None),
    ])
    def test_decoders_but_ml_refuse_a_lower_end(self, capsys, algorithm, found):
        # the syndrome of {3}; the base is no concatenated or recursive code
        argv = ("decode", "--code", BASE, "--syndrome", "0,0,0,0,1,1,0,0,1",
                "--algorithm", algorithm, "--d", 2)
        if found:
            assert run(*argv) == 0
            assert capsys.readouterr().out == found
        assert run(*argv, "--l", 2) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("BadRange:")

    @pytest.mark.parametrize("argv", [
        ("verify", "--code", BASE, "--property", "sq-separable", "--d", 2),
        ("decode", "--code", BASE, "--syndrome", "1,0,1,0,0,0,0,0,1", "--algorithm", "ml",
         "--d", 2),
    ])
    def test_no_upper_bound_option(self, capsys, argv):
        # u is --d; there is no second option for it
        with pytest.raises(SystemExit) as exit_:
            run(*argv, "--u", 2)
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --u 2" in captured.err

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
        for n, defectives in ((5, "2,4"), (13, "3,11")):
            out = tmp_path / f"bc{n}.sqgt"
            assert run("construct", "--method", "bose-chowla", "--n", n, "--d", 2,
                       "--q", 3, "--eta", 1, "--out", out) == 0
            capsys.readouterr()
            assert run("verify", "--code", out, "--property", "sq-separable", "--d", 2, "--l", 2) == 0
            assert capsys.readouterr().out == "PASS\n"
            run("encode", "--code", out, "--defectives", defectives)
            z = capsys.readouterr().out.strip().replace(" ", ",")
            assert run("decode", "--code", out, "--syndrome", z, "--algorithm", "ml",
                       "--l", 2, "--d", 2) == 0
            assert capsys.readouterr().out.strip() == defectives

    def test_tall_random_binary_code_separates(self, tmp_path, capsys):
        # 34 076 x 12, of about 450 distinct rows, which the verifiers read
        out = tmp_path / "tall.sqgt"
        assert run("construct", "--method", "random-binary", "--n", 12, "--d", 3,
                   "--thresholds", "0,2,4,5", "--alpha", 1, "--m-multiplier", 4,
                   "--seed", 7, "--out", out) == 0
        assert capsys.readouterr().out.startswith("wrote 34076x12 code")
        for e in (0, 1):
            assert run("verify", "--code", out, "--property", "sq-separable", "--d", 3,
                       "--l", 2, "--e", e) == 0
            assert capsys.readouterr().out == "PASS\n"

    @pytest.mark.usefixtures("at_once")
    def test_recursive_code_at_kappa_8(self, tmp_path, capsys):
        # 255 x 1 279: the recursive decoder inverts any set, while BP's
        # dynamic programme is refused before it is built
        out = tmp_path / "k8.sqgt"
        assert run("construct", "--method", "lindstrom", "--kappa", 8, "--q", 3,
                   "--eta", 1, "--out", out) == 0
        capsys.readouterr()
        defectives = "1,2,3,100,640,1279"
        run("encode", "--code", out, "--defectives", defectives)
        z = capsys.readouterr().out.strip().replace(" ", ",")
        assert run("decode", "--code", out, "--syndrome", z, "--algorithm", "lindstrom") == 0
        assert capsys.readouterr().out == defectives + "\n"
        assert run("decode", "--code", out, "--syndrome", z, "--algorithm", "bp", "--d", 6) == 2
        assert capsys.readouterr() == (
            "", f"BadRange: BP needs 46507116 dynamic-programme rows per trial, more than {MAX_CELLS}\n")

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


@pytest.mark.usefixtures("at_once")
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
        (("--method", "lindstrom", "--kappa", 40, "--q", 3, "--eta", 1), "BadKappa"),
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

    def test_random_disjunct_at_zero_levels(self, tmp_path, capsys):
        # --levels 0 fell back to the default of (q-1)//eta levels
        out = tmp_path / "code.sqgt"
        argv = ("--method", "random-disjunct", "--n", 10, "--d", 2, "--q", 5, "--eta", 1, "--levels", 0)
        assert run("construct", *argv, "--out", out) == 2
        assert capsys.readouterr().err.startswith("BadRange: need at least one nonzero level, got 0")
        assert not out.exists()

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

    @pytest.mark.parametrize("threads", [0, -3])
    def test_worker_cap_below_one_refused(self, tmp_path, capsys, threads):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        assert run("simulate", "--config", cfg, "--threads", threads) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ConfigError: threads must be an integer >= 1, got {threads}\n"

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


@pytest.mark.usefixtures("at_once")
class TestRefusedInputs:
    GOLDEN = str(DATA / "golden_9x24.sqgt")
    SYNDROME = "3,0,1,4,0,0,0,3,1"  # of {2,20}

    @pytest.mark.parametrize("method, e", [("random-disjunct", -1), ("concat-disjunct", -2)])
    def test_negative_error_budget_writes_nothing(self, tmp_path, capsys, method, e):
        out = tmp_path / "r.sqgt"
        argv = ("--method", method, "--base", BASE, "--n", 20, "--d", 2, "--q", 7, "--eta", 1)
        assert run("construct", *argv, "--e", e, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"BadRange: error budget must be >= 0, got e={e}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        (("--method", "bose-chowla", "--n", 100, "--d", 5, "--q", 3), "Overflow"),
        (("--method", "random-binary", "--n", 1000, "--d", 100, "--thresholds", "0,2,3,101"),
         "BadRange"),
        (("--method", "random-disjunct", "--n", 400, "--d", 200, "--q", 2), "BadRange"),
        (("--method", "random-disjunct", "--n", 20, "--d", 2, "--q", 3,
          "--m-multiplier", 1e308), "BadRange"),
        (("--method", "random-disjunct", "--n", 20, "--q", 4000001, "--m", 5), "BadRange"),
        (("--method", "concat-disjunct", "--base", BASE, "--d", 1, "--q", 10**6), "BadRange"),
        (("--method", "bose-chowla", "--n", 13, "--d", 10**7, "--q", 3), "Overflow"),
    ])
    def test_caps(self, tmp_path, capsys, argv, error):
        out = tmp_path / "r.sqgt"
        assert run("construct", *argv, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{error}:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("encode", "--code", GOLDEN, "--defectives", "2,24", "--gamma-p", 0.1, "--seed", -1),
        ("construct", "--method", "random-disjunct", "--n", 12, "--d", 2, "--q", 5,
         "--eta", 2, "--seed", -5),
        ("construct", "--method", "random-binary", "--n", 12, "--d", 3,
         "--thresholds", "0,2,4,5", "--seed", -5),
    ])
    def test_negative_seed(self, tmp_path, capsys, argv):
        out = tmp_path / "r.sqgt"
        extra = ("--out", out) if argv[0] == "construct" else ()
        assert run(*argv, *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("BadRange:")
        assert not out.exists()

    @pytest.mark.parametrize("subjects", [2, 4])
    def test_encode_sum_past_int64(self, tmp_path, capsys, subjects):
        # no bracket bounds what encode sums: 2 and 4 entries of 2^62 wrapped
        # to -2^63 and 0 and printed the buckets -1 and 0
        code = tmp_path / "wide.sqgt"
        code.write_text(f"SQGT-CODE v1\nq={2**62 + 1} Q=2 m=1 n={subjects}\neta=0,1,2\n"
                        + " ".join([str(2**62)] * subjects) + "\n")
        defectives = ",".join(map(str, range(1, subjects + 1)))
        assert run("encode", "--code", code, "--defectives", defectives) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"SumOutOfRange: coordinate sum {subjects * 2**62} reached")

    @pytest.mark.parametrize("argv, option", [
        (("--method", "random-disjunct", "--q", 3), "--n"),
        (("--method", "bose-chowla", "--q", 3), "--n"),
        (("--method", "random-binary", "--thresholds", "0,2,3,5"), "--n"),
        (("--method", "scale-disjunct", "--thresholds", "0,1,3"), "--base"),
        (("--method", "concat-separable", "--q", 7), "--base"),
    ])
    def test_missing_option(self, capsys, argv, option):
        assert run("construct", *argv, "--out", os.devnull) == 2
        assert capsys.readouterr().err == f"BadRange: this method needs {option}\n"

    def test_too_few_thresholds(self, capsys):
        argv = ("--method", "scale-disjunct", "--base", BASE, "--thresholds", "0")
        assert run("construct", *argv, "--out", os.devnull) == 2
        assert capsys.readouterr().err.startswith("BadRange: alphabet sizes must be >= 2")

    def test_infinite_bp_tol(self, capsys):
        argv = ("decode", "--code", self.GOLDEN, "--syndrome", self.SYNDROME,
                "--algorithm", "bp", "--d", 2)
        assert run(*argv) == 0
        assert capsys.readouterr().out == "2,20\n"
        assert run(*argv, "--bp-tol", "inf") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "BadRange: tol must be positive and finite, got inf\n"

    def test_bad_bp_config_is_reported_before_the_bracket(self, capsys):
        argv = ("decode", "--code", self.GOLDEN, "--syndrome", self.SYNDROME,
                "--algorithm", "bp", "--d", 2, "--e", -1)
        assert run(*argv, "--iterations", 0) == 2
        assert capsys.readouterr().err.startswith("BadRange: max_iters must be")
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("BadRange: error budget must be >= 0")

    @pytest.mark.parametrize("algorithm, row, argv", [
        ("lindstrom", "1", ()),
        ("concat", " ".join("0" * 29), ("--d", 2)),  # 29 one-column blocks at d = 2
    ])
    def test_decode_keeps_the_file_bracket(self, tmp_path, monkeypatch, capsys, algorithm, row, argv):
        # the sentinel 2 is below (q-1)*d: a bracket rebuilt from q would
        # need about 10^9 thresholds
        code = tmp_path / "big-q.sqgt"
        n = len(row.split())
        code.write_text(f"SQGT-CODE v1\nq=1000000000 Q=2 m=1 n={n}\neta=0,1,2\n{row}\n")

        def refuse(*args, **kwargs):
            raise AssertionError("decode rebuilt the bracket")

        monkeypatch.setattr(CodeParams, "equidistant", refuse)
        assert run("decode", "--code", code, "--syndrome", 1, "--algorithm", algorithm, *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("SentinelTooSmall: sentinel eta_Q=2 must exceed")

    @pytest.mark.parametrize("algorithm", ["bp", "ml"])
    def test_wide_bracket_decodes(self, tmp_path, capsys, algorithm):
        # identity thresholds give Q = 2^12 + 1 on a 1 x 3 code, past the
        # dense channel matrix's former cap; the banded channel reads only
        # the results within 1 of each syndrome value
        Q = 2**12 + 1
        code = tmp_path / "wide-q.sqgt"
        code.write_text(f"SQGT-CODE v1\nq=2 Q={Q} m=1 n=3\neta={','.join(map(str, range(Q + 1)))}\n1 0 1\n")
        assert run("decode", "--code", code, "--syndrome", 1, "--algorithm", algorithm, "--d", 1) == 0
        assert capsys.readouterr() == ("1\n", "")

    def test_bp_rows_are_capped(self, tmp_path, monkeypatch, capsys):
        # one test over 3 200 subjects: k * R = 3 200 * 3 201 dynamic-programme
        # rows per trial, refused before any array is allocated
        n = 3200
        code = tmp_path / "one-wide-test.sqgt"
        code.write_text(f"SQGT-CODE v1\nq=2 Q={n + 1} m=1 n={n}\neta={','.join(map(str, range(n + 2)))}\n"
                        + " ".join(["1"] * n) + "\n")

        def refuse(*args, **kwargs):
            raise AssertionError("decode allocated an array")

        monkeypatch.setattr(np, "zeros", refuse)
        assert run("decode", "--code", code, "--syndrome", 1, "--algorithm", "bp", "--d", 1) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"BadRange: BP needs {n * (n + 1)} dynamic-programme rows per trial, "
                                f"more than {MAX_CELLS}\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "--property", "sq-separable"),
        ("decode", "--syndrome", 5, "--algorithm", "ml"),
    ])
    def test_set_budget_refuses_without_the_full_count(self, tmp_path, capsys, argv):
        # 2^15 000 candidate sets on a 1 x 15 000 all-ones code, a count of
        # more than 4 300 digits; the count stops at 2^64
        n = 15000
        code = tmp_path / "ones.sqgt"
        code.write_text(f"SQGT-CODE v1\nq=2 Q={n + 2} m=1 n={n}\neta={','.join(map(str, range(n + 3)))}\n"
                        + " ".join(["1"] * n) + "\n")
        assert run(argv[0], "--code", code, *argv[1:], "--d", n) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ExplosionGuard: at least 2^64 candidate sets exceed budget ")

    def test_negative_stay_probability_is_refused(self, capsys):
        # the rates sum to 1 after rounding; the interior stay probability
        # 1 - gamma_p - gamma_n is -1.1e-16
        argv = ("decode", "--code", self.GOLDEN, "--syndrome", self.SYNDROME, "--algorithm", "bp", "--d", 2,
                "--gamma-p", 0.13436424411240122, "--gamma-n", 0.8656357558875989)
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("BadRange: need gamma_p, gamma_n >= 0 and gamma_p + gamma_n <= 1")

    @pytest.mark.parametrize("algorithm", DECODE_ALGORITHMS)
    @pytest.mark.parametrize("option, value, message", [
        ("--e", -1, "error budget must be >= 0"),
        ("--iterations", 0, "max_iters must be"),
    ])
    def test_every_decoder_checks_the_bracket_and_bp_options(self, capsys, algorithm, option, value, message):
        argv = ("decode", "--code", self.GOLDEN, "--syndrome", self.SYNDROME,
                "--algorithm", algorithm, "--d", 2)
        assert run(*argv) == (0 if algorithm != "lindstrom" else 2)
        capsys.readouterr()
        assert run(*argv, option, value) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"BadRange: {message}")

    @pytest.mark.parametrize("argv, message", [
        # printed "must lie in 1..24, got [-9223372036854775808]"
        (("encode", "--defectives", 2**63), f"subject indices must be integers in -2^63..2^63-1, got {2**63}"),
        # printed "must be integers, got 9.223372036854776e+18"
        (("encode", "--defectives", f"{2**63},1"), f"subject indices must be integers in -2^63..2^63-1, got {2**63}"),
        (("decode", "--syndrome", f"{2**64 - 1},0,1,4,0,0,0,3,1", "--algorithm", "disjunct", "--d", 2),
         f"results must be integers in -2^63..2^63-1, got {2**64 - 1}"),
    ])
    def test_integers_past_int64_are_named_exactly(self, capsys, argv, message):
        assert run(argv[0], "--code", self.GOLDEN, *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"BadRange: {message}\n"

    def test_syndrome_beyond_int64(self, capsys):
        argv = ("decode", "--code", self.GOLDEN, "--syndrome", "9" * 20 + ",0,1,4,0,0,0,3,1",
                "--algorithm", "disjunct", "--d", 2)
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("BadRange: results must be integers")


def test_capacity_cli(capsys):
    assert run("capacity", "--d", 2, "--q", 3, "--Q", 3, "--grid-step", 0.1,
               "--no-refine") == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "quantizer" in out


@pytest.mark.usefixtures("at_once")
def test_capacity_cli_refuses_a_large_alphabet_at_once(capsys):
    assert run("capacity", "--d", 1, "--q", 10**9, "--Q", 2, "--grid-step", 0.5) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("BudgetExceeded: at least 2^64 grid and refine points")


def test_capacity_cli_refuses_one_region(capsys):
    assert run("capacity", "--d", 2, "--q", 3, "--Q", 1) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "BadRange: need d >= 1, q >= 2, Q >= 2, got 2, 3, 1\n"


def _probe(source: str) -> str:
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_the_thread_pool_unloaded():
    # only simulate with threads > 1 needs the process pool, multiprocessing
    # and logging
    pool = "{'concurrent.futures', 'logging', 'multiprocessing'}"
    assert _probe(f"import sys, sqgt.cli; print(sorted({pool} & set(sys.modules)))") == "[]"


CLI_MODULES = ["sqgt", "sqgt.cli", "sqgt.errors", "sqgt.fileio", "sqgt.model", "sqgt.rng"]


@pytest.mark.parametrize("argv, added", [
    (("encode", "--code", BASE, "--defectives", "2,5"), []),
    (("capacity", "--d", 2, "--q", 3, "--Q", 3, "--grid-step", 0.1, "--no-refine"), ["capacity"]),
    (("verify", "--code", BASE, "--property", "bin-disjunct", "--d", 2), ["verify"]),
    (("construct", "--method", "scale-disjunct", "--base", BASE, "--d", 2, "--q", 3,
      "--thresholds", "0,2,3,5,7", "--out", "{tmp}/scaled.sqgt"), ["construct"]),
    (("decode", "--code", BASE, "--syndrome", "0,0,0,0,1,1,0,0,1", "--algorithm", "bp",
      "--d", 2), ["decode", "verify"]),
    (("decode", "--code", TestRefusedInputs.GOLDEN, "--syndrome", TestRefusedInputs.SYNDROME,
      "--algorithm", "concat", "--d", 2), ["construct", "decode", "verify"]),
    (("decode", "--code", "{tmp}/lindstrom.sqgt", "--syndrome", "9,4,5,4,5,1,9",  # of {1,9,22,26}
      "--algorithm", "lindstrom"), ["construct", "decode", "verify"]),
    (("simulate", "--config", "{tmp}/sweep.cfg", "--threads", 1),
     ["construct", "decode", "simulate", "verify"]),
], ids=["encode", "capacity", "verify", "construct", "decode-bp", "decode-concat", "decode-lindstrom",
        "simulate"])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, added):
    (tmp_path / "sweep.cfg").write_text(TestSimulateCli.CONFIG)
    C, params = lindstrom(3, 9, 2)
    write_matrix(tmp_path / "lindstrom.sqgt", C, params.q, params.Q, params.eta)
    argv = [str(a).format(tmp=tmp_path) for a in argv]
    probe = (
        "import contextlib, io, sys, sqgt.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = sqgt.cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('sqgt')))"
    )
    out = _probe(probe)
    assert out == f"0 {sorted(CLI_MODULES + [f'sqgt.{name}' for name in added])}"


@pytest.mark.parametrize("module, loaded", [("sqgt", ["sqgt"]), ("sqgt.cli", CLI_MODULES)])
def test_import_loads_no_subcommand_module(module, loaded):
    # nor numpy.random, which a request that draws nothing never needs
    probe = (f"import sys, {module}; "
             "print(sorted(m for m in sys.modules if m.startswith('sqgt')), 'numpy.random' in sys.modules)")
    assert _probe(probe) == f"{loaded} False"
