"""framemoe benchmark: one workload per process, as a closed loop of
pipeline steps, with every step's outputs checked against an independent
reference.

    python3 framebench/run.py --workload toy --seed 1 --seconds 30 --trace 0

A run repeats whole rounds of its workload's steps. A round trains,
evaluates, analyzes and, on `audit`, runs the gradient audit, in a fresh
absolute run directory, and writes the corpus there (set-up) GEN_PER_STEP
times before each step.
Another round starts only if it would end within --seconds, so the first
round always runs. Each step call is one operation; it fails if it raises or
if its outputs fail a check. With --trace 0 the end-to-end metrics are
printed; with --trace 1 the public functions are wrapped and the per-layer
metrics, the step times of eval, analyze and the audit among them, are
printed. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".framebench"
# Set-up takes a fraction of a second, so it is timed several times per
# round, spread over the round, so that its median meets the same host load
# as the steps rather than only that of the round's first seconds.
GEN_PER_STEP = 5
# The gradient audit runs at this seed whatever --seed is. The audit fails on
# some seeds: a finite-difference probe crosses a relu kink that the
# base-point margin check let through. At seed 14 it fails every time, so the
# benchmark counts one known failure per audit round instead of a failure
# that comes and goes with the seed.
AUDIT_SEED = 14

# Config overrides per workload, as `framemoe --set` takes them, and the
# steps each round runs after set-up.
WORKLOADS = {
    "toy": {
        "overrides": [],
        "steps": ("train", "eval", "analyze"),
    },
    "long": {
        "overrides": ["data.utterance_len=8192", "moe.n_experts=9", "moe.top_k=2",
                      "moe.expert_hidden=128", "data.train_size=128", "data.dev_size=32",
                      "data.test_size=32", "training.phase2_batch=16"],
        "steps": ("train", "eval", "analyze"),
    },
    "audit": {
        "overrides": ["backbone.unfrozen=true", "moe.balancing_loss_enabled=true",
                      "data.train_size=128", "data.dev_size=32"],
        "steps": ("train", "eval", "analyze", "gradcheck"),
    },
}

END_TO_END = {"setup_s": "s", "train_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="framemoe benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count()}


class Round:
    """One round of a workload in its own run directory."""

    def __init__(self, workload: str, seed: int, index: int, tracer=None):
        from framemoe.config import ExperimentConfig, apply_overrides

        self.run_dir = OUT_DIR / "runs" / f"{workload}-seed{seed}-pid{os.getpid()}-r{index}"
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
        cfg = apply_overrides(ExperimentConfig(), WORKLOADS[workload]["overrides"])
        cfg.seed = seed
        cfg.output_dir = str(self.run_dir)
        self.cfg = cfg
        self.steps = WORKLOADS[workload]["steps"]
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.ops = 0
        self.failed = 0
        self.unexpected = 0
        self._sweep = None

    def attempt(self, step: str, call, check) -> None:
        """Run one operation. It fails if it raises or fails a check; any
        failure but the known audit fault also makes the run incorrect."""
        self.ops += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception:
            self.times.setdefault(step, []).append(time.perf_counter() - start)
            self.failed += 1
            self.unexpected += 1
            print(f"op {step} FAILED\n{traceback.format_exc()}", file=sys.stderr)
            return
        self.times.setdefault(step, []).append(time.perf_counter() - start)
        try:
            results = check(result)
        except Exception:
            results = [("check ran", False, traceback.format_exc())]
        import checks

        bad = {name for name, ok, _ in results if not ok}
        for name, ok, detail in results:
            state = "ok" if ok else "FAIL (known fault)" if name in checks.KNOWN_FAULTS else "FAIL"
            print(f"check {step}: {name}: {state} {detail}")
        if bad:
            self.failed += 1
        if bad - checks.KNOWN_FAULTS:
            self.unexpected += 1

    def sweep(self):
        import checks

        if self._sweep is None:
            self._sweep = checks.reference_sweep(self.cfg, self.run_dir)
        return self._sweep

    def run(self) -> None:
        import checks
        from framemoe import experiment

        cfg, run_dir, tracer = self.cfg, self.run_dir, self.tracer
        audit_cfg = dataclasses.replace(cfg, seed=AUDIT_SEED)
        # Only the gradient audit calls autodiff.forward.
        forward_calls = tracer.calls["autodiff.forward"] if tracer else 0
        actions = {
            "train": (lambda: experiment.run_train(cfg),
                      lambda _: checks.check_train(cfg, run_dir)),
            "eval": (lambda: experiment.run_eval(run_dir),
                     lambda _: checks.check_eval(run_dir, self.sweep())),
            "analyze": (lambda: experiment.run_analyze(run_dir),
                        lambda _: checks.check_analyze(run_dir, self.sweep())),
            "gradcheck": (lambda: experiment.run_gradcheck(
                              audit_cfg, out_path=run_dir / "gradcheck_report.json"),
                          lambda result: checks.check_gradcheck(
                              audit_cfg, result,
                              None if tracer is None
                              else tracer.calls["autodiff.forward"] - forward_calls)),
        }
        for step in self.steps:
            for _ in range(GEN_PER_STEP):
                self.attempt("gen", lambda: experiment.run_gen(cfg),
                             lambda corpus_dir: checks.check_gen(cfg, corpus_dir))
            self.attempt(step, *actions[step])
        if self.unexpected:
            print(f"kept {run_dir} for inspection", file=sys.stderr)
        else:
            shutil.rmtree(run_dir)

    def pipeline_s(self) -> float:
        return sum(t for step in self.steps for t in self.times[step])


def end_to_end(rounds: list[Round], peak_rss_mb: float) -> dict:
    def median_of(step):
        return statistics.median(t for r in rounds for t in r.times.get(step, []))

    values = {"setup_s": median_of("gen"), "train_s": median_of("train"),
              "pipeline_s": statistics.median(r.pipeline_s() for r in rounds),
              "peak_rss_mb": peak_rss_mb}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(tracer, rounds: list[Round], overhead_per_call: float) -> dict:
    """Per-round layer times and counts from the tracer."""
    import tracing

    n = len(rounds)
    metrics = {}
    for key in tracing.KEYS:
        metrics[f"{key}_s"] = (tracer.total[key] / n, "s")
        metrics[f"{key}_calls"] = (tracer.calls[key] / n, "count")
    expert_rows = tracer.counts["moe.expert_rows"] / n
    routed_rows = tracer.counts["moe.routed_rows"] / n
    metrics["moe.expert_rows"] = (expert_rows, "count")
    metrics["moe.routed_rows"] = (routed_rows, "count")
    metrics["moe.dispatch_efficiency"] = (routed_rows / expert_rows if expert_rows else 0.0,
                                          "ratio")
    metrics["autodiff.nodes_per_step"] = (tracer.nodes_per_step or 0, "count")
    metrics["tracing.pipeline_s"] = (statistics.median(r.pipeline_s() for r in rounds), "s")
    metrics["tracing.wrapped_calls"] = (tracer.wrapped_calls() / n, "count")
    metrics["tracing.est_overhead_s"] = (tracer.wrapped_calls() / n * overhead_per_call, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "framemoe" / "__init__.py").is_file():
        print(f"framemoe sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import framemoe

    if Path(framemoe.__file__).resolve().parent != (src / "framemoe").resolve():
        print(f"imported framemoe from {framemoe.__file__}, not {src}", file=sys.stderr)
        return 2
    import checks  # noqa: F401  (imports every framemoe module, so tracing wraps them all)
    import tracing

    tracer = None
    overhead_per_call = 0.0
    if args.trace:
        overhead_per_call = tracing.per_call_overhead()
        tracer = tracing.Tracer()
        tracer.install()

    rounds: list[Round] = []
    started = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            current = Round(args.workload, args.seed, len(rounds), tracer)
            current.run()
            rounds.append(current)
            last = time.perf_counter() - round_start
            if time.perf_counter() - started + last > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        metrics = end_to_end(rounds, peak_rss_mb)
    else:
        metrics = per_layer(tracer, rounds, overhead_per_call)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")

    env = environment()
    result = {
        "correct": all(r.unexpected == 0 for r in rounds),
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "environment": env,
              "step_times_s": [r.times for r in rounds], "result": result}
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True))
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
