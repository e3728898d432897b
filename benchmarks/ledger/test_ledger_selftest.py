"""Self-test of the performance ledger (picked up by ``pytest benchmarks``).

Runs every workload scaled down through the same child-process path the
real ledger uses, then checks the comparison tool against negative
controls built from the committed baselines.
"""

import copy
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BASELINE_A = HERE / "results" / "baseline_a.json"
BASELINE_B = HERE / "results" / "baseline_b.json"


def _verdicts(doc_a, doc_b):
    return {(name, metric): verdict
            for name, metric, _, verdict in compare.rows(doc_a, doc_b)}


@pytest.fixture(scope="module")
def scaled():
    """All seven workloads at a twentieth of their pinned size: two plain
    repetitions plus the traced pass."""
    return run.measure(list(WORKLOADS), seed=run.DEFAULT_SEED, scale=0.05,
                       reps=2, seconds=None, traced=True, calibration=1.0,
                       say=lambda _line: None)


def test_contract_file_matches_catalogue():
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    expected = catalogue.contract()
    assert contract["end_to_end"] == expected["end_to_end"]
    assert contract["per_layer"] == expected["per_layer"]
    assert len(catalogue.END_TO_END) == 13
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_reported(scaled, name):
    result = scaled[name]
    assert result["ops_failed"] == 0, result["failed_checks"]
    assert result["end_to_end"]["fail_ratio"]["value"] == 0
    # Digests repeat: checked per repetition after the first and per
    # traced-pass child, and every check passed above.
    assert "rep1.digests_repeat" in result["checks"]
    assert "traced.digests_match" in result["checks"]
    for metric in catalogue.END_TO_END:
        entry = result["end_to_end"][metric.name]
        assert "median" in entry or "value" in entry or "omitted" in entry
        if metric.kind == "host":
            assert entry["n"] == 2 and entry["median"] > 0
    for metric in catalogue.PER_LAYER:
        assert (metric.name in result["per_layer"]
                or metric.name in result["omitted"]), metric.name
    share_sum = sum(result["per_layer"][share]
                    for share in run.probe.SHARE_METRICS)
    if result["per_layer"]["ledger.samples"]:
        assert share_sum == pytest.approx(1.0, abs=0.01)


def test_contract_lines_carry_exactly_the_declared_metrics(scaled):
    declared = catalogue.contract()
    for name, result in scaled.items():
        plain = json.loads(run.contract_line(result, trace=False))
        traced = json.loads(run.contract_line(result, trace=True))
        assert set(plain) == {"correct", "attempted", "failed", "metrics"}
        assert plain["correct"] and plain["attempted"] >= 1
        assert list(plain["metrics"]) == [
            m["name"] for m in declared["end_to_end"]], name
        assert all(m["value"] > 0 for m in plain["metrics"].values()), name
        assert list(traced["metrics"]) == [
            m["name"] for m in declared["per_layer"]], name


def test_compare_flags_a_doctored_slowdown():
    # 30 %, not the issue's 20 %: the one bound on wall_s is 25 %, which
    # is what this host's noise allows (README, "How steady the host is").
    base = json.loads(BASELINE_A.read_text())
    slow = copy.deepcopy(base)
    entry = slow["workloads"]["contested_mesh"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3", "min", "max"):
        entry[key] *= 1.3
    entry["values"] = [value * 1.3 for value in entry["values"]]
    verdicts = _verdicts(base, slow)
    assert verdicts["contested_mesh", "wall_s"] == "worse"
    assert verdicts["contested_pra", "wall_s"] == "same"
    assert set(verdicts.values()) == {"worse", "same"}


def test_compare_flags_a_doctored_digest_and_failure():
    base = json.loads(BASELINE_A.read_text())
    changed = copy.deepcopy(base)
    result = changed["workloads"]["checkpoint_resume"]
    result["digests"]["run"] = "0" * 64
    result["end_to_end"]["fail_ratio"]["value"] = 0.25
    verdicts = _verdicts(base, changed)
    assert verdicts["checkpoint_resume", "digests"] == "differs"
    assert verdicts["checkpoint_resume", "fail_ratio"] == "worse"
    assert verdicts["contested_mesh", "digests"] == "same"


def test_compare_flags_what_b_lacks():
    base = json.loads(BASELINE_A.read_text())
    lacking = copy.deepcopy(base)
    del lacking["workloads"]["grid_sweep"]
    lacking["workloads"]["contested_pra"]["end_to_end"][
        "p99_packet_latency_cycles"] = {"omitted": "AttributeError"}
    verdicts = _verdicts(base, lacking)
    assert verdicts["grid_sweep", "*"] == "missing"
    assert verdicts["contested_pra", "p99_packet_latency_cycles"] == "missing"
    assert "missing" in compare.FAILING


def test_compare_passes_the_two_committed_baselines():
    lines = []
    assert compare.main(BASELINE_A, BASELINE_B, say=lines.append) == 0
    doc_a = json.loads(BASELINE_A.read_text())
    doc_b = json.loads(BASELINE_B.read_text())
    # Two runs of one code resolve: every row reads ``same``.
    assert set(_verdicts(doc_a, doc_b).values()) == {"same"}
    for name in WORKLOADS:
        assert doc_a["workloads"][name]["ops_failed"] == 0
        assert doc_a["workloads"][name]["digests"] \
            == doc_b["workloads"][name]["digests"]
    assert doc_a["provenance"]["git_dirty"] is not None
