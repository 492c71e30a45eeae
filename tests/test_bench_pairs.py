"""``scripts/bench_pairs.py`` summaries: quartiles and pair wins from one or more pairs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarize_one_pair():
    # a single pair once raised StatisticsError after every run had finished
    entry = bench_pairs.summarize("s", {"parent": [0.2], "change": [0.1]}, trace=False)
    assert entry["parent"] == {"q1": 0.2, "median": 0.2, "q3": 0.2}
    assert entry["change"] == {"q1": 0.1, "median": 0.1, "q3": 0.1}
    assert entry["change_over_parent"] == 0.5
    assert entry["change_lower_in"] == "1/1 pairs"
    traced = bench_pairs.summarize("s", {"parent": [0.2], "change": [0.1]}, trace=True)
    assert (traced["parent_median"], traced["change_median"]) == (0.2, 0.1)


def test_summarize_two_pairs():
    entry = bench_pairs.summarize("MiB", {"parent": [2.0, 4.0], "change": [3.0, 1.0]},
                                  trace=False)
    assert entry["parent"] == {"q1": 2.5, "median": 3.0, "q3": 3.5}
    assert entry["change"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}
    assert entry["change_over_parent"] == 0.667
    assert entry["change_lower_in"] == "1/2 pairs"
    assert entry["runs"] == {"parent": [2.0, 4.0], "change": [3.0, 1.0]}
