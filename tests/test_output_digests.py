import importlib.util
import json
from pathlib import Path

from test_experiment import tiny_cfg

TOOL = Path(__file__).parents[1] / "tools" / "output_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_and_follow_one_parameter_entry(tmp_path):
    tool = load_tool()
    first, second = (tool.pipeline_digests(tiny_cfg(tmp_path / name)) for name in ("a", "b"))
    assert first == second
    assert set(first) == {f"{ckpt}:{key}" for ckpt in tool.CHECKPOINTS
                          for key in ("params", "norm_stats")} | set(tool.CSVS)

    path = tmp_path / "b" / "checkpoint_final.json"
    payload = json.loads(path.read_text())
    payload["params"]["se.b2"]["data"][0] += 1.0
    path.write_text(json.dumps(payload))
    changed = tool.run_digests(tmp_path / "b")
    assert [key for key in first if changed[key] != first[key]] == [
        "checkpoint_final.json:params"]
