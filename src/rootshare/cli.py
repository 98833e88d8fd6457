"""Command-line harness: sweeps, reports, and the toy encoder demo.

Every subcommand writes a CSV and prints a short summary. Usage problems
(bad flags, refused settings, missing config, bad ranges) exit 2, and
toy-infer --mode both exits 1 when shared misses plain by more than 1e-2.
"""

import argparse
import csv
import math
import random
import sys

from .errors import ConfigError, RootshareError
from .bench import LutCostModel, REPORT_SCENARIOS, comm_report, \
    flood_ablation, write_report_csv
from .encoder import ToyEncoderConfig, generate_weights, load_weights_csv, \
    toy_encoder_infer
from .config import config_from_mapping, read_config_file
from .flood import ActivationSampler, draw_flood_mask, flood_share
from .rsqrt import closeness_sweep, run_shared_rsqrt


def _parse_gaps(text: str):
    """Accept '0..12' ranges or comma lists like '0,3,6'."""
    lo, dots, hi = text.partition("..")
    if dots:
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part.strip()]


# comm-report scenarios that fix their own Newton settings, and where
_SCENARIO_SITES = {"softmax": "the SOFTMAX_NUM and SOFTMAX_DEN Sites in "
                              "rootshare.nonlinear",
                   "layernorm": "the LAYERNORM Site in rootshare.nonlinear",
                   "end2end": "EncoderSites (softmax_num, softmax_den, ffn, "
                              "ln1, ln2)"}
# config keys a command may never read, and why
_SAMPLER_KEYS = dict.fromkeys(("sampler_log2_mean", "sampler_log2_std"),
                              "draws no sampled activations")
_FLOOD_KEYS = dict.fromkeys(("E_m", "F", "mask_spread"), "never floods")
# criterion 9's bound on the encoder's max |shared - plain|
_CLOSURE_TOL = 1e-2


def _load_config(args, fixed_in=None, iterations=None, unread=_SAMPLER_KEYS):
    """The run's ProtocolConfig, built from the --config file's keys with
    --iterations as the iterations key. A command whose Newton settings
    live elsewhere names the place in fixed_in and refuses the flag and
    the iterations and E_m keys; iterations is its own count where
    neither the flag nor the key sets one. A command refuses the keys it
    never reads, given in unread with the reason: by default the sampler
    keys."""
    mapping = read_config_file(args.config) if args.config else {}
    refused = sorted(unread.keys() & mapping.keys())
    if refused:
        why = " and ".join(sorted({unread[key] for key in refused}))
        raise ConfigError(f"this command {why}; drop "
                          f"{', '.join(refused)} from the config file")
    flag = getattr(args, "iterations", None)
    if fixed_in and (flag is not None
                     or {"iterations", "E_m"} & mapping.keys()):
        raise ConfigError(
            f"this run takes its Newton settings from {fixed_in}; drop "
            "--iterations and the iterations and E_m config keys")
    if flag is None and "iterations" not in mapping:
        flag = iterations
    if flag is not None:
        mapping["iterations"] = flag
    return config_from_mapping(mapping)


def _add_common(p, default_out):
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument("--out", default=default_out, help="CSV output path")


def _cmd_rsqrt_sweep(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count {args.count} must be at least 1")
    cfg = _load_config(args, unread={})
    codec = cfg.codec
    sampler = ActivationSampler(cfg.sampler_log2_mean, cfg.sampler_log2_std,
                                seed=args.seed)
    xs = sampler.sample(args.count)
    rng = random.Random(args.seed + 1)
    pairs = []
    for x in xs:
        c, s = flood_share(x, draw_flood_mask(cfg.flood, rng), codec)
        pairs.append((c.value, s.value))
    results, st_c, st_s = run_shared_rsqrt(pairs, codec, cfg.seed, cfg.newton,
                                           dealer_seed=args.seed + 2)
    errs = [abs(y * math.sqrt(x) - 1.0) for x, y in zip(xs, results)]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("index", "x", "value", "rel_err"))
        for i, (x, y, e) in enumerate(zip(xs, results, errs)):
            writer.writerow((i, repr(x), repr(y), repr(e)))
    ranked = sorted(errs)
    within = sum(1 for e in errs if e <= 1e-2)    # criterion 4's bound
    print(f"rsqrt-sweep: {args.count} flooded samples, "
          f"n={cfg.newton.iterations}")
    print(f"  within 0.01: {within}/{args.count} "
          f"({within / args.count:.2%})")
    print(f"  median rel err {ranked[len(ranked) // 2]:.3g}, "
          f"p99 {ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))]:.3g}")
    print(f"  online bytes/party: client {st_c.bytes_sent}, "
          f"server {st_s.bytes_sent}; rounds {max(st_c.rounds, st_s.rounds)}")
    print(f"  wrote {args.out}")
    return 0


def _cmd_closeness_sweep(args) -> int:
    cfg = _load_config(args, iterations=8,
                       unread=_SAMPLER_KEYS | _FLOOD_KEYS)
    gaps = _parse_gaps(args.gaps)
    rows = closeness_sweep(gaps, trials=args.trials,
                           n=cfg.newton.iterations, codec=cfg.codec,
                           params=cfg.seed, seed=args.seed)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("gap", "trials", "converged", "mean_rel_err"))
        for r in rows:
            writer.writerow((r.gap, r.trials, r.converged,
                             repr(r.mean_rel_err)))
    print(f"closeness-sweep: {args.trials} trials/gap, no flooding")
    print("  gap  rate")
    for r in rows:
        print(f"  {r.gap:>3}  {r.rate:.3f}")
    print(f"  wrote {args.out}")
    return 0


def _cmd_comm_report(args) -> int:
    cfg = _load_config(args, _SCENARIO_SITES.get(args.scenario))
    if args.scenario == "end2end" and args.row_len is not None:
        raise ConfigError("the end2end scenario's rows are "
                          "ToyEncoderConfig's; drop --row-len")
    lut = LutCostModel(sigma=args.sigma, entries=args.entries,
                       alpha_bits=args.alpha_bits)
    rows = comm_report(args.scenario, cfg, lut=lut,
                       row_len=8 if args.row_len is None else args.row_len,
                       seed=args.seed)
    write_report_csv(rows, args.out)
    print(f"comm-report: scenario={args.scenario}")
    for r in rows:
        rounds = "-" if r.rounds is None else f"{r.rounds:g}"
        muls = "-" if r.muls is None else f"{r.muls:g}"
        print(f"  {r.method:<20} {r.kind:<8} {r.online_bytes:>14.1f} B/"
              f"{r.unit:<7} rounds {rounds:>6} muls {muls:>6}")
    print(f"  wrote {args.out}")
    return 0


def _cmd_toy_infer(args) -> int:
    cfg = _load_config(args, _SCENARIO_SITES["end2end"])
    enc = ToyEncoderConfig(seq_len=args.seq, model_dim=args.dim,
                           ffn_dim=args.ffn, heads=args.heads,
                           seed=args.seed)
    weights = (load_weights_csv(args.weights, enc) if args.weights
               else generate_weights(enc))
    rng = random.Random(args.seed)
    x = [[0.8 + 0.4 * rng.random() for _ in range(enc.model_dim)]
         for _ in range(enc.seq_len)]
    plain = shared = info = None
    if args.mode in ("plain", "both"):
        plain = toy_encoder_infer(enc, x, mode="plain", weights=weights)
    if args.mode in ("shared", "both"):
        shared, info = toy_encoder_infer(enc, x, mode="shared", protocol=cfg,
                                         weights=weights)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if args.mode == "both":
            writer.writerow(("row", "col", "plain", "shared", "abs_diff"))
            for i in range(enc.seq_len):
                for j in range(enc.model_dim):
                    writer.writerow((i, j, repr(plain[i][j]),
                                     repr(shared[i][j]),
                                     repr(abs(plain[i][j] - shared[i][j]))))
        else:
            rows = plain if args.mode == "plain" else shared
            writer.writerow(("row", "col", "value"))
            for i in range(enc.seq_len):
                for j in range(enc.model_dim):
                    writer.writerow((i, j, repr(rows[i][j])))
    print(f"toy-infer: seq={enc.seq_len} dim={enc.model_dim} "
          f"ffn={enc.ffn_dim} heads={enc.heads} mode={args.mode}")
    worst = None
    if args.mode == "both":
        worst = max(abs(plain[i][j] - shared[i][j])
                    for i in range(enc.seq_len)
                    for j in range(enc.model_dim))
        print(f"  max abs plain/shared difference: {worst:.3g}")
    if info is not None:
        b = info["bytes"]
        print(f"  online bytes: matmul {b['matmul']}, "
              f"nonlinear {b['nonlinear']}, total {b['total']}; "
              f"rounds {info['rounds']}")
    print(f"  wrote {args.out}")
    if worst is not None and worst > _CLOSURE_TOL:
        fit = ToyEncoderConfig()
        print(f"error: shared output misses plain by {worst:.3g}, over "
              f"{_CLOSURE_TOL:g}; EncoderSites are fitted at seq "
              f"{fit.seq_len}, dim {fit.model_dim}, ffn {fit.ffn_dim}, "
              f"heads {fit.heads}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_flood_ablation(args) -> int:
    cfg = _load_config(args, unread={})
    rows = flood_ablation(gap=args.gap, trials=args.trials, cfg=cfg,
                          seed=args.seed)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("arm", "gap", "trials", "converged", "rate"))
        for r in rows:
            writer.writerow((r.arm, r.gap, r.trials, r.converged,
                             f"{r.rate:.4f}"))
    print(f"flood-ablation: gap={args.gap}, {args.trials} trials/arm, "
          f"n={cfg.newton.iterations}")
    for r in rows:
        print(f"  {r.arm:<15} convergence {r.rate:.2%}")
    delta = rows[0].rate - rows[1].rate
    print(f"  flooding gains {delta * 100:.1f} percentage points")
    print(f"  wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootshare",
        description="two-party inverse-sqrt protocol: sweeps and reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rsqrt-sweep",
                       help="flooded shared rsqrt over sampled activations")
    _add_common(p, "rsqrt_sweep.csv")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--iterations", type=int)
    p.set_defaults(fn=_cmd_rsqrt_sweep)

    p = sub.add_parser("closeness-sweep",
                       help="convergence rate versus share exponent gap")
    _add_common(p, "closeness_sweep.csv")
    p.add_argument("--gaps", default="0..12",
                   help="range like 0..12 or list like 0,3,6")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--iterations", type=int)
    p.set_defaults(fn=_cmd_closeness_sweep)

    p = sub.add_parser("comm-report",
                       help="counted bytes versus modeled baselines")
    _add_common(p, "comm_report.csv")
    p.add_argument("--scenario", choices=REPORT_SCENARIOS,
                   default="activation")
    p.add_argument("--sigma", type=int, default=16)
    p.add_argument("--entries", type=int, default=1 << 16)
    p.add_argument("--alpha-bits", type=int, default=32)
    p.add_argument("--row-len", type=int, help="default 8; not end2end")
    p.add_argument("--iterations", type=int)
    p.set_defaults(fn=_cmd_comm_report)

    p = sub.add_parser("toy-infer", help="one-block encoder demo")
    _add_common(p, "toy_infer.csv")
    p.add_argument("--seq", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--ffn", type=int, default=32)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--mode", choices=("plain", "shared", "both"),
                   default="both")
    p.add_argument("--weights", help="weight CSV (name,i,j,value)")
    p.set_defaults(fn=_cmd_toy_infer)

    p = sub.add_parser("flood-ablation",
                       help="convergence with and without flooding")
    _add_common(p, "flood_ablation.csv")
    p.add_argument("--gap", type=int, default=6)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--iterations", type=int)
    p.set_defaults(fn=_cmd_flood_ablation)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RootshareError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
