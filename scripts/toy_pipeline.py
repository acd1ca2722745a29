#!/usr/bin/env python3
"""Run the whole toy pipeline into one directory: corpus, both training
phases, the test-sweep metrics, and the routing analytics."""

import argparse

from framemoe.config import ExperimentConfig, apply_overrides, validate
from framemoe.experiment import run_analyze, run_eval, run_train


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/toy")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE")
    args = parser.parse_args()

    cfg = ExperimentConfig(seed=args.seed, output_dir=args.out)
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    validate(cfg)

    summary = run_train(cfg)
    print(f"trained into {summary['run_dir']} "
          f"(best epoch {summary['best_epoch']}, {summary['wall_time_s']:.0f}s)")
    for r in run_eval(cfg.output_dir):
        print(f"  {r.family:>10s} {r.snr_db:+6.1f} dB  f1_macro={r.f1_macro:.3f} "
              f"ssnr={r.ssnr_db:+.2f} dB  l1={r.l1:.4f}")
    report = run_analyze(cfg.output_dir)
    print(f"routing analytics written by eval ({len(report.switch_agreement)} groups)")


if __name__ == "__main__":
    main()
