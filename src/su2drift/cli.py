"""Command-line interface.

Subcommands: wigner (coefficient evaluation), kernel (density evaluation
and sampling), channel (apply / Monte Carlo check / Choi), three
(three-qubit quantities, sweeps, threshold), verify (self checks).

Exit codes: 0 success, 1 check failure, 2 bad input.  Each --seed defaults
to the environment variable SU2DRIFT_SEED when it is set; argparse parses
that string like the flag's own value, so anything but a non-negative
integer is a usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

import numpy as np

from . import __version__, channel, numerics, serialize, su2, three_qubit, verify
from .wigner import clebsch_gordan, recoupling_u, selection_ok_cg, wigner_6j

FMT = "%.17g"


def _time(value: str) -> float:
    """argparse type of a diffusion time: finite and non-negative."""
    try:
        return numerics.validate_time(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer(low: int):
    """argparse type of an integer of at least low: a count (1) or a seed (0)."""
    def integer(value: str) -> int:
        n = int(value)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {n}")
        return n
    return integer


def _write_manifest(csv_path: str, seed, extra=None):
    manifest = {
        "command": " ".join(sys.argv),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "output": os.path.abspath(csv_path),
    }
    if extra:
        manifest.update(extra)
    path = os.path.splitext(csv_path)[0] + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


# ---- wigner ---------------------------------------------------------------


def cmd_wigner(args) -> int:
    if args.coef == "cg":
        labels = (args.tj1, args.tm1, args.tj2, args.tm2, args.tj, args.tm)
        if not selection_ok_cg(*labels):
            print("selection rule violated; coefficient is 0", file=sys.stderr)
        val = clebsch_gordan(*labels)
    elif args.coef == "sixj":
        val = wigner_6j(args.tj1, args.tj2, args.tj3, args.tj4, args.tj5, args.tj6)
        if val == 0.0:
            print("value is 0 (possibly by selection rule)", file=sys.stderr)
    else:  # u
        val = recoupling_u(args.tj1, args.tj2, args.tj, args.tj3, args.tj12, args.tj23)
        if val == 0.0:
            print("value is 0 (possibly by selection rule)", file=sys.stderr)
    print(FMT % val)
    return 0


# ---- kernel ---------------------------------------------------------------


def cmd_kernel(args) -> int:
    if args.action == "eval":
        print(FMT % su2.heat_kernel_density(args.t, args.xi))
        return 0
    rng = np.random.default_rng(args.seed)
    quats = su2.heat_kernel_quat(args.t, rng, args.n)
    xi = su2.class_angle_of_quat(quats)
    lines = ["index,xi,qw,qx,qy,qz"]
    for i in range(args.n):
        row = [FMT % xi[i]] + [FMT % q for q in quats[i]]
        lines.append(f"{i}," + ",".join(row))
    out = args.out or "kernel_samples.csv"
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest(out, args.seed, {"t": args.t, "samples": args.n})
    print(f"wrote {args.n} samples to {out}")
    return 0


# ---- channel --------------------------------------------------------------


def cmd_channel(args) -> int:
    spec = channel.ChannelSpec(args.n, args.t)
    if args.action == "apply":
        rho = serialize.load_density(args.infile)
        out = channel.channel_apply(rho, spec)
        serialize.save_density(args.out, out)
        print(f"wrote output density to {args.out}")
        return 0
    if args.action == "mc-check":
        rho = verify._random_density(np.random.default_rng(args.seed), 2**args.n)
        ref = channel.channel_apply(rho, spec)
        mc = channel.monte_carlo_channel(rho, spec, args.samples, seed=args.seed)
        dev = mc.max_deviation_sigma(ref)
        ok = dev < 3.5
        print(f"max entrywise deviation: {dev:.3f} sigma "
              f"({args.samples} samples) -> {'OK' if ok else 'FAIL'}")
        return 0 if ok else 1
    # choi
    if args.mode == "qutrit":
        if args.n != 3:
            raise ValueError("the effective qutrit Choi matrix requires --n 3")
        choi = three_qubit.qutrit_choi(args.t)
    else:
        choi = channel.choi_matrix(spec)
    serialize.save_density(args.out, choi)
    evals = np.linalg.eigvalsh(choi)
    print(f"wrote Choi matrix ({choi.shape[0]}x{choi.shape[0]}) to {args.out}; "
          f"min eigenvalue {evals.min():.3e}")
    return 0


# ---- three ----------------------------------------------------------------


def cmd_three(args) -> int:
    if args.action == "fidelity":
        for label, (f, th, ph) in zip(("best ", "worst"), three_qubit.fidelity_extremes(args.t)):
            print(f"{label} f={FMT % f} at theta={th:.6f} phi={ph:.6f}")
        print("average:", FMT % three_qubit.average_fidelity(args.t))
        return 0
    if args.action == "threshold":
        thr = three_qubit.coherent_info_threshold()
        cut = three_qubit.ANTIDEGRADABLE_FROM
        print("coherent-information threshold t* =", FMT % thr)
        print(f"anti-degradable (Q = 0) from t = {cut:g}, "
              "certified by verify check antidegradable_cut")
        print("PPT (Q = 0) from t_PPT = ln 3 =", FMT % three_qubit.PPT_FROM)
        print(f"so the quantum-capacity threshold t_Q lies in [{thr:.7f}, {cut:g}]")
        return 0
    # sweep
    cfg = numerics.OptimizerConfig(restarts=args.restarts, seed=args.seed)
    ts = np.linspace(args.t_from, args.t_to, args.t_steps)
    rows = []
    if args.quantity == "avg-fidelity":
        header = "t,avg_fidelity"
        for t in ts:
            rows.append((t, three_qubit.average_fidelity(t)))
    elif args.quantity == "coherent-info":
        header = "t,coherent_info,upper_bound,epsilon,nfev"
        for t in ts:
            r = three_qubit.maximize_coherent_info(t, cfg)
            rows.append((t, r.value, r.upper_bound, r.epsilon, r.nfev))
    elif args.quantity == "capacity":
        header = "t,capacity,upper_bound,gap,q,theta,nfev"
        for t in ts:
            r = three_qubit.maximize_holevo(t, config=cfg)
            rows.append((t, r.capacity, r.upper_bound, r.gap, r.q, r.theta, r.nfev))
    else:  # orthogonal
        header = "t,capacity,best_orthogonal,worst_orthogonal"
        for t in ts:
            r = three_qubit.maximize_holevo(t, config=cfg)
            best, worst = three_qubit.orthogonal_benchmark(t)
            rows.append((t, r.capacity, best, worst))
    out = args.out or f"{args.quantity}.csv"
    with open(out, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(FMT % v for v in row) + "\n")
    _write_manifest(out, args.seed, {
        "quantity": args.quantity,
        "t_range": [args.t_from, args.t_to, args.t_steps],
        "restarts": args.restarts,
    })
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    report = verify.run_verify(quick=args.quick, seed=args.seed)
    for r in report["results"]:
        print(("PASS" if r["ok"] else "FAIL"), r["check"], "-", r["detail"])
    print(f"{report['passed']} passed, {report['failed']} failed")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote JSON report to {args.report}")
    return 0 if report["failed"] == 0 else 1


# ---- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="su2drift",
        description="Correlated SU(2) rotation-diffusion channel toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("wigner", help="evaluate coupling coefficients")
    ws = w.add_subparsers(dest="coef", required=True)
    cg = ws.add_parser("cg", help="Clebsch-Gordan <j1 m1 j2 m2|j m>")
    for name in ("tj1", "tm1", "tj2", "tm2", "tj", "tm"):
        cg.add_argument(f"--{name}", type=int, required=True,
                        help=f"twice the value of {name[1:]}")
    sj = ws.add_parser("sixj", help="Wigner 6j symbol")
    for name in ("tj1", "tj2", "tj3", "tj4", "tj5", "tj6"):
        sj.add_argument(f"--{name}", type=int, required=True,
                        help=f"twice the value of {name[1:]}")
    uu = ws.add_parser("u", help="unitary recoupling coefficient U")
    for name in ("tj1", "tj2", "tj", "tj3", "tj12", "tj23"):
        uu.add_argument(f"--{name}", type=int, required=True,
                        help=f"twice the value of {name[1:]}")
    w.set_defaults(func=cmd_wigner)

    k = sub.add_parser("kernel", help="heat-kernel density and sampling")
    ks = k.add_subparsers(dest="action", required=True)
    ke = ks.add_parser("eval", help="evaluate the class-angle density")
    ke.add_argument("--t", type=_time, required=True)
    ke.add_argument("--xi", type=float, required=True)
    km = ks.add_parser("sample", help="draw group elements, write CSV")
    km.add_argument("--t", type=_time, required=True)
    km.add_argument("--n", type=_integer(1), default=1000)
    km.add_argument("--seed", type=_integer(0), default=os.environ.get("SU2DRIFT_SEED", 0))
    km.add_argument("--out", type=str, default=None)
    k.set_defaults(func=cmd_kernel)

    c = sub.add_parser("channel", help="apply the channel / run checks")
    cs = c.add_subparsers(dest="action", required=True)
    ca = cs.add_parser("apply", help="apply to a density matrix from JSON")
    ca.add_argument("--n", type=int, required=True)
    ca.add_argument("--t", type=_time, required=True)
    ca.add_argument("--in", dest="infile", type=str, required=True)
    ca.add_argument("--out", type=str, required=True)
    cm = cs.add_parser("mc-check", help="compare against Monte Carlo sampling")
    cm.add_argument("--n", type=int, required=True)
    cm.add_argument("--t", type=_time, required=True)
    cm.add_argument("--samples", type=int, default=100000)
    cm.add_argument("--seed", type=_integer(0), default=os.environ.get("SU2DRIFT_SEED", 0))
    cc = cs.add_parser("choi", help="write the Choi matrix as JSON")
    cc.add_argument("--n", type=int, required=True)
    cc.add_argument("--t", type=_time, required=True)
    cc.add_argument("--mode", choices=("full", "qutrit"), default="full")
    cc.add_argument("--out", type=str, default="choi.json")
    c.set_defaults(func=cmd_channel)

    t3 = sub.add_parser("three", help="three-qubit analysis")
    t3s = t3.add_subparsers(dest="action", required=True)
    tf = t3s.add_parser("fidelity", help="fidelity of the effective qubit")
    tf.add_argument("--t", type=_time, required=True)
    tw = t3s.add_parser("sweep", help="tabulate a quantity over t, write CSV")
    tw.add_argument("--quantity", required=True,
                    choices=("avg-fidelity", "coherent-info", "capacity", "orthogonal"))
    tw.add_argument("--t-from", type=_time, required=True)
    tw.add_argument("--t-to", type=_time, required=True)
    tw.add_argument("--t-steps", type=_integer(1), default=21)
    tw.add_argument("--out", type=str, default=None)
    tw.add_argument("--restarts", type=int, default=8)
    tw.add_argument("--seed", type=_integer(0), default=os.environ.get("SU2DRIFT_SEED", 7))
    t3s.add_parser("threshold", help="coherent-information threshold t* and the bracket on t_Q")
    t3.set_defaults(func=cmd_three)

    v = sub.add_parser("verify", help="run the named self-check suite")
    v.add_argument("--quick", action="store_true",
                   help="skip large-sample Monte Carlo and optimization gates")
    v.add_argument("--seed", type=_integer(0), default=os.environ.get("SU2DRIFT_SEED", 12345))
    v.add_argument("--report", type=str, default=None,
                   help="write a machine-readable JSON report here")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
