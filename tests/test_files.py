import numpy as np
import pytest

from framemoe.experiment import write_metrics_csv
from framemoe.metrics import MetricsReport
from framemoe.training import load_checkpoint, save_checkpoint


def report(counts):
    return MetricsReport(family="babble", snr_db=0.0, f1_macro=0.5, f1_micro=0.5,
                         ssnr_db=1.0, l1=0.1, ssnr_noisy_db=0.0, l1_noisy=0.2,
                         n_utterances=4, per_class_counts=counts)


def test_a_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path):
    metrics = tmp_path / "metrics.csv"
    write_metrics_csv(metrics, [report({"anger": 1})])
    before = metrics.read_bytes()
    # The second row has a column the header lacks: the CSV writer fails
    # after the header and the first row.
    with pytest.raises(ValueError):
        write_metrics_csv(metrics, [report({"anger": 2}), report({"anger": 2, "joy": 1})])
    assert metrics.read_bytes() == before

    from framemoe.files import write_atomic

    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, {"w": np.ones(2)})
    # A lone surrogate cannot be encoded, so this write fails inside the file.
    with pytest.raises(UnicodeEncodeError):
        write_atomic(ckpt, '{"params": \udc80')
    params, _ = load_checkpoint(ckpt)
    np.testing.assert_array_equal(params["w"], np.ones(2))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json", "metrics.csv"]
