"""Command line entry point.

Subcommands: gen, train, eval, analyze, ablate, gradcheck. Exit codes:
0 on success, 1 for usage errors and configuration problems (a run too
large for memory included), 2 for numerical failures (non-finite losses,
gradients, parameters or outputs, a failed gradient audit).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .autodiff import NumericalError
from .config import ConfigError, apply_overrides, load_config, validate
from .experiment import (
    GradcheckInconclusive,
    environment_drift,
    read_report,
    run_ablate,
    run_analyze,
    run_eval,
    run_gen,
    run_gradcheck,
    run_train,
)
from .training import LOSS_PARTS, TrainingAborted


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="YAML",
                        help="config file; omitted means the toy defaults")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dot-path override, value parsed as YAML "
                             "(repeatable), e.g. --set moe.n_experts=5")


def _load_cfg(args: argparse.Namespace):
    cfg = load_config(args.config)
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    validate(cfg)
    return cfg


def _run_dir(args: argparse.Namespace) -> str:
    if args.run is not None:
        return args.run
    return _load_cfg(args).output_dir


def _cmd_gen(args: argparse.Namespace) -> int:
    corpus_dir = run_gen(_load_cfg(args))
    print(f"corpus written to {corpus_dir}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    summary = run_train(_load_cfg(args))
    last = summary["losses"][-1] if summary["losses"] else {}
    print(f"run dir: {summary['run_dir']}")
    print(f"best epoch: {summary['best_epoch']}")
    if last:
        parts = " ".join(f"{name}={last[name]:.4f}" for name in LOSS_PARTS if name != "total")
        print(f"final train loss: total={last['total']:.4f} ({parts})")
    print(f"wall time: {summary['wall_time_s']:.1f}s")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    run_dir = _run_dir(args)
    reports = run_eval(run_dir)
    for r in reports:
        print(f"{r.family:>10s} {r.snr_db:+6.1f} dB  "
              f"f1_macro={r.f1_macro:.3f} f1_micro={r.f1_micro:.3f}  "
              f"ssnr={r.ssnr_db:+.2f} dB (noisy {r.ssnr_noisy_db:+.2f})  "
              f"l1={r.l1:.4f} (noisy {r.l1_noisy:.4f})")
    drift = environment_drift(read_report(Path(run_dir)))
    if drift:
        # Noted, never refused: the scores stand, but may differ in their last bits.
        print(f"note: eval ran in another numeric environment than train "
              f"(differs in {', '.join(drift)})", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    report = run_analyze(_run_dir(args))
    for row in report.switch_agreement:
        print(f"{row['group_by']}={row['condition']}: "
              f"switch se={row['se_switch']:.3f} ser={row['ser_switch']:.3f} "
              f"agreement={row['agreement']:.3f}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    rows = run_ablate(_load_cfg(args))
    for row in rows:
        bal = "on" if row["balancing_requested"] else "off"
        applied = "" if row["balancing_applied"] == row["balancing_requested"] else " (n/a)"
        print(f"{row['routing']:>6s} n={row['n_experts']} bal={bal}{applied}  "
              f"total={row['final_total']:.4f} f1_macro={row['f1_macro']:.3f} "
              f"ssnr={row['ssnr_db']:+.2f}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    out = args.out or str(Path(cfg.output_dir) / "gradcheck_report.json")
    results = run_gradcheck(cfg, out_path=out)
    for variant in ("frozen", "unfrozen"):
        r = results[variant]
        status = "ok" if r["passed"] else "FAILED"
        print(f"{variant:>9s}: {status}  max_rel_err={r['max_rel_err']:.2e}  "
              f"entries={r['n_entries']} params={r['n_params']}")
    print(f"report: {out}")
    if not results["passed"]:
        print("gradient audit failed", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framemoe",
        description="Frame-wise sparse mixture routing over stacked layer "
                    "features for joint denoising and emotion recognition.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate and write the synthetic corpus")
    _add_config_args(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="run both training phases")
    _add_config_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score the test sweep and write its routing analytics")
    _add_config_args(p)
    p.add_argument("--run", default=None, metavar="DIR",
                   help="run directory (default: the config's output_dir)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="print the routing analytics that eval stored")
    _add_config_args(p)
    p.add_argument("--run", default=None, metavar="DIR",
                   help="run directory (default: the config's output_dir)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("ablate", help="train the routing/expert-count/balancing grid")
    _add_config_args(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    _add_config_args(p)
    p.add_argument("--out", default=None, metavar="JSON",
                   help="report path (default: <output_dir>/gradcheck_report.json)")
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 after its usage line; 2 is
        # kept for numerical failures, so a usage error exits 1.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TrainingAborted as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostics, default=str), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except GradcheckInconclusive as exc:
        print(f"gradient audit failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A size the config allows but this machine cannot hold, e.g. a huge
        # data.train_size: one line, as a configuration problem.
        message = " ".join(str(exc).split()) or "an allocation failed"
        print(f"out of memory: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
