"""Per-layer timings and counts, taken by wrapping framemoe's public functions
from outside the package.

A wrapper replaces every binding of a function in every loaded framemoe
module, so calls through `from .x import y` names are timed too. Times are
inclusive: a layer's time contains the layers it calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Layer functions by module, named as in the per-layer metrics.
LAYERS = {
    "autodiff": ("backprop", "forward", "finite_difference_check"),
    "moe": ("gate_scores", "expert_forward", "moe_forward", "balancing_loss"),
    "backbone": ("synth_layer_stack",),
    "model": ("compute_features", "forward_features"),
    "heads": ("ser_classify", "se_decode", "log1p_spectrum", "resynthesize"),
    "training": ("train_phase1", "train_phase2", "batch_joint_loss", "evaluate_joint_loss",
                 "save_checkpoint"),
    "datagen": ("generate_corpus", "write_corpus", "read_corpus", "noise_for"),
    "metrics": ("ssnr", "f1_scores"),
    "analytics": ("analytics_report", "write_analytics"),
    "experiment": ("run_gen", "run_train", "run_eval", "run_analyze", "run_gradcheck",
                   "eval_condition", "gradcheck_model"),
}
# AdamW.step is wrapped on its class, under this metric stem.
ADAMW_STEP = "training.adamw_step"
KEYS = [f"{module}.{name}" for module, names in LAYERS.items() for name in names] + [ADAMW_STEP]


def graph_size(root) -> int:
    """Distinct autodiff nodes reachable from `root`, leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Accumulates calls and inclusive time per wrapped function."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.nodes_per_step: int | None = None
        self._restore: list[tuple] = []

    def wrap(self, key: str, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            self.active[key] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total[key] += time.perf_counter() - start
                self.calls[key] += 1
                self.active[key] -= 1

        return traced

    # Hooks that count work at the layer boundary.
    def _expert_rows(self, args) -> None:
        self.counts["moe.expert_rows"] += args[2].shape[0]

    def _routed_rows(self, args) -> None:
        self.counts["moe.routed_rows"] += args[2].frames.shape[0] * args[3]

    def _phase2_graph(self, args) -> None:
        if self.nodes_per_step is None and self.active["training.train_phase2"]:
            self.nodes_per_step = graph_size(args[0])

    def install(self) -> None:
        """Replace every framemoe binding of each layer function by its wrapper."""
        hooks = {"moe.expert_forward": self._expert_rows,
                 "moe.moe_forward": self._routed_rows,
                 "autodiff.backprop": self._phase2_graph}
        modules = [m for name, m in sys.modules.items()
                   if name == "framemoe" or name.startswith("framemoe.")]
        for module_name, names in LAYERS.items():
            home = sys.modules[f"framemoe.{module_name}"]
            for name in names:
                key = f"{module_name}.{name}"
                original = getattr(home, name)
                wrapper = self.wrap(key, original, hooks.get(key))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        adamw = sys.modules["framemoe.training"].AdamW
        self._restore.append((adamw, "step", adamw.step))
        adamw.step = self.wrap(ADAMW_STEP, adamw.step)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def wrapped_calls(self) -> int:
        return sum(self.calls.values())


def per_call_overhead(samples: int = 200_000) -> float:
    """Seconds a wrapper adds to one call, measured on an empty function."""
    def empty():
        return None

    wrapped = Tracer().wrap("calibration", empty)
    start = time.perf_counter()
    for _ in range(samples):
        empty()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / samples)
