"""Command line front end.

Subcommands: construct, verify, encode, decode, simulate, capacity. Any
library error, and any operating-system error such as a missing input or
an unwritable output file, ends the process with status 2 after printing
the error class name on stderr; a failed verification prints the witness
and exits with status 1.
"""

# Each subcommand imports the modules it calls, so a request loads only
# those; of the package, importing this module loads errors, fileio, model
# and rng alone.

import argparse
import sys

from .errors import BadRange, SqgtError
from .fileio import read_matrix, write_matrix
from .model import DEFAULT_BUDGET, CodeParams, NoiseModel, apply_noise, syndrome

CONSTRUCT_METHODS = (
    "scale-disjunct",
    "random-disjunct",
    "concat-disjunct",
    "scale-separable",
    "bose-chowla",
    "concat-separable",
    "random-binary",
    "lindstrom",
)
VERIFY_PROPERTIES = ("sq-disjunct", "sq-separable", "bin-disjunct", "bin-sep-cgt", "bin-sep-qgt")
DECODE_ALGORITHMS = ("disjunct", "concat", "lindstrom", "ml", "bp")


def _int_list(raw: str, option: str) -> list[int]:
    out = []
    for token in raw.replace(",", " ").split():
        try:
            out.append(int(token))
        except ValueError:
            raise BadRange(f"{option}: {token!r} is not an integer") from None
    return out


def _needed(value, option: str):
    if value is None:
        raise BadRange(f"this method needs {option}")
    return value


def _thresholds(args) -> tuple[int, ...]:
    raw = _needed(args.thresholds or None, "--thresholds with the full eta vector")
    return tuple(_int_list(raw, "--thresholds"))


def _cmd_construct(args) -> int:
    from . import construct as con

    if args.method in ("scale-disjunct", "scale-separable", "concat-disjunct", "concat-separable"):
        base, *_ = read_matrix(_needed(args.base, "--base"))
    elif args.method != "lindstrom":
        _needed(args.n, "--n")
    if args.method == "scale-disjunct":
        C, params = con.scale_disjunct(base, args.d, args.e, args.q, _thresholds(args))
    elif args.method == "scale-separable":
        C, params = con.scale_separable(
            base, args.d, args.e, args.q, _thresholds(args), base_kind=args.base_kind
        )
    elif args.method == "random-disjunct":
        levels = args.levels if args.levels is not None else con._step_levels(args.q, args.eta)
        C, params = con.random_disjunct(
            args.n, args.d, levels, args.eta, e=args.e, p0=args.p0, delta=args.delta,
            seed=args.seed, q=args.q, m=args.m, m_multiplier=args.m_multiplier,
        )
    elif args.method in ("concat-disjunct", "concat-separable"):
        C, spec = con.concat_disjunct(base, args.d, args.e, args.q, args.eta)
        params = spec.params
    elif args.method == "bose-chowla":
        C, params = con.bose_chowla_code(args.n, args.d, args.q, args.eta)
    elif args.method == "random-binary":
        C, params = con.random_binary_separable(
            args.n, args.d, _thresholds(args), args.alpha, e=args.e, delta=args.delta,
            seed=args.seed, m=args.m, m_multiplier=args.m_multiplier,
        )
    else:  # lindstrom
        C, params = con.lindstrom(args.kappa, args.q, args.eta, n=args.n)
    write_matrix(args.out, C, params.q, params.Q, params.eta)
    print(f"wrote {C.shape[0]}x{C.shape[1]} code {params} to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify as ver

    C, q, Q, eta = read_matrix(args.code)
    if args.property in ("sq-disjunct", "sq-separable"):
        check = ver.is_sq_disjunct if args.property == "sq-disjunct" else ver.is_sq_separable
        witness = check(C, CodeParams(q, Q, eta, args.l, args.d, args.e), args.budget)
    elif args.property == "bin-disjunct":
        if args.l != 1:
            raise BadRange(f"disjunct codes cover ranges (1:d); need l == 1, got l={args.l}")
        witness = ver.is_binary_disjunct_cgt(C, args.d, args.e, budget=args.budget)
    elif args.property == "bin-sep-cgt":
        witness = ver.is_binary_separable_cgt(C, args.d, args.e, args.budget, min_size=args.l)
    else:
        witness = ver.is_binary_separable_qgt(C, args.d, args.e, args.budget, min_size=args.l)
    if witness is None:
        print("PASS")
        return 0
    print(f"WITNESS {witness}")
    return 1


def _cmd_encode(args) -> int:
    C, q, Q, eta = read_matrix(args.code)
    subjects = _int_list(args.defectives, "--defectives") if args.defectives else []
    y = syndrome(C, subjects, eta)
    if args.gamma_p or args.gamma_n:
        y = apply_noise(y, Q, NoiseModel(args.gamma_p, args.gamma_n), args.seed)
    print(" ".join(str(int(v)) for v in y))
    return 0


def _cmd_decode(args) -> int:
    from . import decode as dec

    if args.algorithm != "ml" and args.l != 1:
        raise BadRange(f"only the ml decoder takes a range (l:d); need l == 1, got l={args.l}")
    C, q, Q, eta = read_matrix(args.code)
    z = _int_list(args.syndrome, "--syndrome")
    noise = NoiseModel(args.gamma_p, args.gamma_n)
    cfg = dec.BpConfig(max_iters=args.iterations, damping=args.damping, tol=args.bp_tol)
    # the file's bracket with the defective range (--l:--d) and --e, for every decoder
    params = CodeParams(q, Q, eta, args.l, args.d, args.e)
    if args.algorithm == "disjunct":
        found = dec.decode_disjunct(C, params, z)
    elif args.algorithm == "concat":
        found = dec.decode_concat(C, params, z)
    elif args.algorithm == "lindstrom":
        found = dec.decode_lindstrom(C, params, z)
    elif args.algorithm == "ml":
        found = dec.decode_ml(C, params, z, noise)
    else:  # bp
        marg = dec.bp_decode(C, params, z, noise, d=args.d, cfg=cfg)
        if args.select == "top-d":
            found = dec.select_topd(marg, args.d)
        else:
            found = dec.select_threshold(marg)
    print(",".join(str(i) for i in found))
    return 0


def _cmd_simulate(args) -> int:
    from . import simulate as sim

    with open(args.config) as fh:
        cfg = sim.parse_config(fh.read())
    rows = sim.run_simulation(cfg, threads=args.threads)
    text = sim.rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_capacity(args) -> int:
    from .capacity import capacity_search

    pt, quant, bits = capacity_search(
        args.d, args.q, args.Q, grid_step=args.grid_step, budget=args.budget,
        refine=not args.no_refine,
    )
    probs = " ".join(f"{p:.6g}" for p in pt)
    print(f"P_T = [{probs}]  quantizer = {quant}  alpha = {bits:.6f} bits")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sqgt", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a test matrix")
    c.add_argument("--method", required=True, choices=CONSTRUCT_METHODS)
    c.add_argument("--out", required=True)
    c.add_argument("--base", help="matrix file with the binary base code")
    c.add_argument("--n", type=int)
    c.add_argument("--d", type=int, default=1)
    c.add_argument("--e", type=int, default=0)
    c.add_argument("--q", type=int, default=2)
    c.add_argument("--eta", type=int, default=1, help="threshold step (equidistant methods)")
    c.add_argument("--thresholds", help="full eta vector, comma separated")
    c.add_argument("--levels", type=int, help="nonzero levels for random-disjunct")
    c.add_argument("--alpha", type=int, default=1, help="threshold index for random-binary")
    c.add_argument("--kappa", type=int, default=2)
    c.add_argument("--p0", type=float)
    c.add_argument("--delta", type=float, default=1.0)
    c.add_argument("--m", type=int, help="override the formula row count")
    c.add_argument("--m-multiplier", type=float, default=1.0)
    c.add_argument("--base-kind", choices=("cgt", "qgt"), default="cgt")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="brute-force check a code property")
    v.add_argument("--code", required=True)
    v.add_argument("--property", required=True, choices=VERIFY_PROPERTIES)
    v.add_argument("--d", type=int, required=True)
    v.add_argument("--e", type=int, default=0)
    v.add_argument("--l", type=int, default=1)
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("encode", help="syndrome of a defective set")
    e.add_argument("--code", required=True)
    e.add_argument("--defectives", default="", help="1-based subject indices, comma separated")
    e.add_argument("--gamma-p", type=float, default=0.0)
    e.add_argument("--gamma-n", type=float, default=0.0)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=_cmd_encode)

    d = sub.add_parser("decode", help="recover defectives from a syndrome")
    d.add_argument("--code", required=True)
    d.add_argument("--syndrome", required=True)
    d.add_argument("--algorithm", required=True, choices=DECODE_ALGORITHMS)
    d.add_argument("--d", type=int, default=1)
    d.add_argument("--e", type=int, default=0)
    d.add_argument("--l", type=int, default=1)
    d.add_argument("--gamma-p", type=float, default=0.0)
    d.add_argument("--gamma-n", type=float, default=0.0)
    d.add_argument("--iterations", type=int, default=20)
    d.add_argument("--damping", type=float, default=0.0)
    d.add_argument("--bp-tol", type=float)
    d.add_argument("--select", choices=("top-d", "threshold"), default="top-d")
    d.set_defaults(func=_cmd_decode)

    s = sub.add_parser("simulate", help="run an error-rate sweep to CSV")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.add_argument("--threads", type=int,
                   help="worker cap, at least 1 (default the cpu count); more than one "
                        "runs sweep points in forked processes, all reaped before exit")
    s.set_defaults(func=_cmd_simulate)

    k = sub.add_parser("capacity", help="search input distributions and quantizers")
    k.add_argument("--d", type=int, required=True)
    k.add_argument("--q", type=int, required=True)
    k.add_argument("--Q", type=int, required=True)
    k.add_argument("--grid-step", type=float, default=0.01)
    k.add_argument("--budget", type=int, default=10_000_000)
    k.add_argument("--no-refine", action="store_true")
    k.set_defaults(func=_cmd_capacity)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SqgtError, OSError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
