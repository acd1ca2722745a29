import csv

import numpy as np
import pytest

from framemoe.analytics import AVERAGING_NOTE, analytics_report, write_analytics
from framemoe.heads import EmotionLabel


def one_row(ser, se, n_experts=3, snr_db=0.0, label=0):
    """The report of a single (1, T) row."""
    return analytics_report(np.array([ser]), np.array([se]), np.array([snr_db]),
                            np.array([label]), n_experts)


def random_rows(rng, u, t, n):
    return (rng.integers(0, n, size=(u, t)), rng.integers(0, n, size=(u, t)),
            rng.choice([-5.0, 0.0, 5.0], size=u), rng.integers(0, 4, size=u))


def test_switch_rate_hand_cases():
    for ser, want in (([0, 0, 0, 0], 0.0), ([0, 1, 0, 1], 1.0), ([0, 0, 1, 1], 1.0 / 3.0),
                      ([2, 2], 0.0)):
        row = one_row(ser, ser).switch_agreement[0]
        assert row["ser_switch"] == want and row["se_switch"] == want


def test_switch_rate_validation():
    # One frame has no boundary; a 1-d trace has no rows.
    with pytest.raises(ValueError, match="T >= 2"):
        one_row([1], [1])
    with pytest.raises(ValueError, match="T >= 2"):
        analytics_report(np.array([0, 1]), np.array([0, 1]), np.zeros(2), np.zeros(2), 2)


def test_agreement_hand_cases():
    for ser, se, want in (([0, 1, 2], [0, 1, 2], 1.0), ([0, 1], [1, 0], 0.0),
                          ([0, 1, 2, 0], [0, 2, 2, 1], 0.5)):
        assert one_row(ser, se).switch_agreement[0]["agreement"] == want


def test_agreement_validation():
    with pytest.raises(ValueError, match="one \\(U, T\\) shape"):
        analytics_report(np.zeros((2, 3), int), np.zeros((2, 4), int), np.zeros(2),
                         np.zeros(2), 2)
    with pytest.raises(ValueError, match="U >= 1"):
        analytics_report(np.zeros((0, 3), int), np.zeros((0, 3), int), np.zeros(0),
                         np.zeros(0), 2)


def test_expert_usage_pools_across_traces():
    report = analytics_report(np.array([[0, 0, 1], [1, 2, 2]]), np.array([[2, 2, 2], [0, 0, 1]]),
                              np.array([0.0, 0.0]), np.array([0, 1]), n_experts=3)
    usage = {row["task"]: [row[f"expert_{n}"] for n in range(3)] for row in report.usage_by_snr}
    assert usage == {"ser": [2 / 6, 2 / 6, 2 / 6], "se": [2 / 6, 1 / 6, 3 / 6]}
    by_label = [(row["label"], row["task"], [row[f"expert_{n}"] for n in range(3)])
                for row in report.usage_by_label]
    assert by_label == [("anger", "se", [0.0, 0.0, 1.0]), ("anger", "ser", [2 / 3, 1 / 3, 0.0]),
                        ("sadness", "se", [2 / 3, 1 / 3, 0.0]),
                        ("sadness", "ser", [0.0, 1 / 3, 2 / 3])]


def test_each_ratio_is_one_ratio_of_integer_totals():
    # Three rows of 4 frames in one group: 3 boundaries and 4 frames per row.
    ser = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [1, 1, 2, 2]])
    se = np.array([[0, 0, 0, 1], [1, 1, 1, 1], [1, 2, 2, 2]])
    report = analytics_report(ser, se, np.full(3, 5.0), np.full(3, 2), n_experts=3)
    for row in report.switch_agreement:
        # (0 + 3 + 1) ser switches, (1 + 0 + 1) se switches over 3 * 3 boundaries;
        # (3 + 2 + 3) agreeing frames of 3 * 4.
        assert row["ser_switch"] == 4 / 9 and row["se_switch"] == 2 / 9
        assert row["agreement"] == 8 / 12
    assert [r["condition"] for r in report.switch_agreement] == [5.0, "happiness"]


def ragged(*rows):
    out = np.empty(len(rows), dtype=object)
    out[:] = [np.array(row) for row in rows]
    return out


@pytest.mark.parametrize("ser,se,snr_db,labels", [
    (ragged([0, 1], [1, 0, 1]), ragged([0, 1], [1, 0, 1]), np.zeros(2), np.zeros(2)),
    ([[0, 1], [1, 0, 1]], [[0, 1], [1, 0, 1]], [0.0, 0.0], [0, 0]),
    (np.zeros((2, 3), int), np.zeros((3, 2), int), np.zeros(2), np.zeros(2)),
    (np.zeros((2, 3), int), np.zeros((2, 3), int), np.zeros(3), np.zeros(2)),
    (np.zeros((2, 3), int), np.zeros((2, 3), int), np.zeros(2), np.zeros(1)),
    (np.zeros((2, 3), int), np.zeros((2, 3), int), np.zeros((2, 1)), np.zeros(2)),
    (np.zeros((2, 3, 1), int), np.zeros((2, 3, 1), int), np.zeros(2), np.zeros(2)),
], ids=["ragged", "ragged-lists", "shapes-differ", "snr-length", "label-length", "snr-2d", "3d"])
def test_mismatched_or_ragged_input_is_refused(ser, se, snr_db, labels):
    with pytest.raises(ValueError):
        analytics_report(ser, se, snr_db, labels, n_experts=2)


def test_analytics_report_grouping_and_ordering():
    rng = np.random.default_rng(0)
    ser, se, _, _ = random_rows(rng, 3, 10, 3)
    report = analytics_report(ser, se, np.array([5.0, -5.0, 5.0]), np.array([2, 0, 0]), 3)
    snr_rows = [r for r in report.switch_agreement if r["group_by"] == "snr_db"]
    label_rows = [r for r in report.switch_agreement if r["group_by"] == "label"]
    assert [r["condition"] for r in snr_rows] == [-5.0, 5.0]
    assert all(type(r["condition"]) is float for r in snr_rows)
    assert [r["condition"] for r in label_rows] == ["anger", "happiness"]
    # Usage tables carry one row per (group, task) with expert_ columns.
    assert [r["snr_db"] for r in report.usage_by_snr] == [-5.0, -5.0, 5.0, 5.0]
    assert all(type(r["snr_db"]) is float for r in report.usage_by_snr)
    assert [r["task"] for r in report.usage_by_snr] == ["se", "ser", "se", "ser"]
    for row in report.usage_by_snr:
        hist = [row[f"expert_{n}"] for n in range(3)]
        assert abs(sum(hist) - 1.0) < 1e-12
    assert [r["label"] for r in report.usage_by_label] == ["anger", "anger",
                                                           "happiness", "happiness"]


def test_analytics_report_matches_bruteforce_on_random_traces():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n_experts = int(rng.integers(2, 5))
        u, t = int(rng.integers(1, 8)), int(rng.integers(2, 12))
        ser, se, snr_db, labels = random_rows(rng, u, t, n_experts)
        report = analytics_report(ser, se, snr_db, labels, n_experts)
        for row in report.switch_agreement:
            if row["group_by"] == "snr_db":
                group = [i for i in range(u) if snr_db[i] == row["condition"]]
            else:
                group = [i for i in range(u)
                         if labels[i] == EmotionLabel[row["condition"].upper()]]
            for col, top1 in (("ser_switch", ser), ("se_switch", se)):
                switches = sum(1 for i in group for a, b in zip(top1[i][:-1], top1[i][1:])
                               if a != b)
                assert row[col] == switches / (len(group) * (t - 1))
            agree = sum(1 for i in group for a, b in zip(ser[i], se[i]) if a == b)
            assert row["agreement"] == agree / (len(group) * t)


def test_write_analytics_csv_schema(tmp_path):
    rng = np.random.default_rng(2)
    ser, se, _, _ = random_rows(rng, 3, 10, 3)
    report = analytics_report(ser, se, np.array([0.0, 0.0, 5.0]), np.array([0, 1, 0]), 3)
    written = write_analytics(report, tmp_path)
    names = [p.name for p in written]
    assert names == ["switch_agreement.csv", "usage_by_snr.csv",
                     "usage_by_label.csv"]
    for path in written:
        lines = path.read_text().splitlines()
        assert lines[0] == AVERAGING_NOTE
        rows = list(csv.DictReader(lines[1:]))
        assert rows
    switch = list(csv.DictReader(
        (tmp_path / "switch_agreement.csv").read_text().splitlines()[1:]))
    assert set(switch[0]) == {"group_by", "condition", "se_switch",
                              "ser_switch", "agreement"}
    usage = list(csv.DictReader(
        (tmp_path / "usage_by_snr.csv").read_text().splitlines()[1:]))
    assert set(usage[0]) == {"snr_db", "task", "expert_0", "expert_1",
                             "expert_2"}
