"""``scripts/bench_pairs.py`` summaries: quartiles and pair wins from one or more pairs."""

import json

import pytest

from conftest import load_script

bench_pairs = load_script("bench_pairs")


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


def test_seconds_default_is_the_benchmark_run_seconds(tmp_path, monkeypatch, capsys):
    # the default follows BENCHMARK.json, not a restated number
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--help"])
    assert "BENCHMARK.json run_seconds, 7" in " ".join(capsys.readouterr().out.split())


def test_layer_without_trace_is_rejected_before_any_copy(monkeypatch, capsys):
    # --layer names per-layer metrics, which only --trace 1 reports
    def copy_parent(rev, dest):
        raise AssertionError("copied the parent before checking the arguments")

    monkeypatch.setattr(bench_pairs, "copy_parent", copy_parent)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--workload", "figures", "--trace", "0",
                          "--layer", "cli.main.self_s"])
    assert exit_info.value.code == 2
    assert "--layer needs --trace 1" in capsys.readouterr().err
