"""sha256 digests of every compared output of the pipeline, so two checkouts
can be shown to produce byte-identical results.

    python3 tools/output_digests.py OUT_DIR

For each framebench workload (its config overrides are read from
framebench/run.py), trains, evaluates and analyzes one run at seed 43 in
OUT_DIR/<workload>, then runs the gradient audit of the `audit` workload at
seed 14. Prints one JSON object: for each workload the digest of both
checkpoints' `params` and `norm_stats`, of losses.csv, losses_phase1.csv,
metrics.csv and the three analytics CSVs, and the digest of the audit report
without its `runtime_s`. Run it in each checkout and compare the two lines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from framemoe import experiment  # noqa: E402
from framemoe.analytics import ANALYTICS_FILES  # noqa: E402
from framemoe.config import ExperimentConfig, apply_overrides  # noqa: E402

SEED = 43
AUDIT_SEED = 14
CHECKPOINTS = (experiment.CHECKPOINT_PHASE1, experiment.CHECKPOINT_FINAL)
CSVS = ("losses.csv", "losses_phase1.csv", experiment.METRICS_NAME, *ANALYTICS_FILES)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(value) -> str:
    # Checkpoint keys keep their file order: a reordering changes the digest.
    return _sha(json.dumps(value).encode())


def run_digests(run_dir: str | Path) -> dict[str, str]:
    """Digests of a trained, evaluated and analyzed run's compared outputs."""
    run_dir = Path(run_dir)
    digests = {}
    for name in CHECKPOINTS:
        payload = json.loads((run_dir / name).read_text())
        for key in ("params", "norm_stats"):
            digests[f"{name}:{key}"] = _json_sha(payload[key])
    for name in CSVS:
        digests[name] = _sha((run_dir / name).read_bytes())
    return digests


def pipeline_digests(cfg: ExperimentConfig) -> dict[str, str]:
    """Train, evaluate and analyze `cfg` in its output_dir; its digests."""
    experiment.run_train(cfg)
    experiment.run_eval(cfg.output_dir)
    experiment.run_analyze(cfg.output_dir)
    return run_digests(cfg.output_dir)


def audit_digest(cfg: ExperimentConfig) -> str:
    """Digest of `cfg`'s gradient audit report without its runtime."""
    report = experiment.run_gradcheck(cfg)
    del report["runtime_s"]
    return _sha(json.dumps(report, sort_keys=True).encode())


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("framebench_run",
                                                  ROOT / "framebench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_digests.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    result = {}
    for name, workload in _workloads().items():
        cfg = apply_overrides(ExperimentConfig(), workload["overrides"])
        cfg = dataclasses.replace(cfg, seed=SEED, output_dir=str(out_dir / name))
        result[name] = pipeline_digests(cfg)
        if "gradcheck" in workload["steps"]:
            result[f"{name}:gradcheck"] = audit_digest(dataclasses.replace(cfg, seed=AUDIT_SEED))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
