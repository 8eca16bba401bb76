"""The checks ``scripts/bench_pairs.py`` reports for each metric."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten parent runs: median 10.45, quartiles 10.175 and 10.725 (IQR 0.55)
PARENT = [10.0, 10.2, 10.4, 10.6, 10.8, 10.1, 10.3, 10.5, 10.7, 10.9]


def test_pair_checks_claim_needs_nine_of_ten_pairs_and_more_than_the_iqr():
    # 1.0 lower in every pair: median 9.45, 1.0 below the parent's
    assert bench_pairs.pair_checks(PARENT, [p - 1.0 for p in PARENT]) == {
        "claim_holds": True, "within_bound": None}
    # lower in every pair, but the median moves 0.5, inside the IQR
    assert not bench_pairs.pair_checks(PARENT, [p - 0.5 for p in PARENT])["claim_holds"]
    # 1.0 lower in 8 of 10 pairs: the median moves enough, the pairs do not
    eight = [p - 1.0 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    assert not bench_pairs.pair_checks(PARENT, eight)["claim_holds"]
    nine = [p - 1.0 for p in PARENT[:9]] + [PARENT[9]]     # a tie is not a win
    assert bench_pairs.pair_checks(PARENT, nine)["claim_holds"]


def test_pair_checks_bound_is_relative_to_the_parents_median():
    # a bound of 0.25 takes medians up to 10.45 * 1.25 = 13.0625
    inside = [p + 2.5 for p in PARENT]
    past = [p + 2.7 for p in PARENT]
    assert bench_pairs.pair_checks(PARENT, inside, bound=0.25) == {
        "claim_holds": False, "within_bound": True}
    assert bench_pairs.pair_checks(PARENT, past, bound=0.25)["within_bound"] is False
    # a gain is always within the bound
    assert bench_pairs.pair_checks(PARENT, [1.0] * 10, bound=0.0)["within_bound"] is True


def test_pair_checks_for_a_metric_where_higher_is_better():
    higher = [p + 1.0 for p in PARENT]
    assert bench_pairs.pair_checks(PARENT, higher, "higher", 0.1) == {
        "claim_holds": True, "within_bound": True}
    assert bench_pairs.pair_checks(PARENT, [p - 2.0 for p in PARENT], "higher", 0.1) == {
        "claim_holds": False, "within_bound": False}
    with pytest.raises(ValueError, match="better must be"):
        bench_pairs.pair_checks(PARENT, PARENT, "faster")
    with pytest.raises(ValueError):         # pairs need equal counts
        bench_pairs.pair_checks(PARENT, PARENT[:9])


def _traced(values: dict) -> dict:
    """A fabricated record of ``run.py --trace 1``, metric -> value."""
    return {"correct": True, "attempted": 2, "failed": 0,
            "metrics": {name: {"value": v, "unit": "count" if name.endswith("nnz") else "s"}
                        for name, v in values.items()}}


def test_layer_summary_takes_each_sides_median_per_metric():
    runs = {"parent": [_traced({"discretize.split_s": v, "discretize.nnz": 5})
                       for v in (0.030, 0.034, 0.032)],
            "change": [_traced({"discretize.split_s": v, "discretize.nnz": 5})
                       for v in (0.027, 0.024, 0.030)]}
    summary = bench_pairs.layer_summary(runs)
    assert list(summary) == ["discretize.split_s", "discretize.nnz"]
    split = summary["discretize.split_s"]
    assert split["unit"] == "s"
    assert (split["parent"], split["change"]) == (0.032, 0.027)
    assert split["ratio_of_medians"] == pytest.approx(0.027 / 0.032)
    assert summary["discretize.nnz"] == {"unit": "count", "parent": 5, "change": 5,
                                         "ratio_of_medians": 1.0}


def test_layer_summary_of_a_metric_that_reads_0_has_no_ratio():
    runs = {side: [_traced({"mgm.coarse_factor_s": 0.0})] for side in ("parent", "change")}
    assert bench_pairs.layer_summary(runs)["mgm.coarse_factor_s"]["ratio_of_medians"] is None
