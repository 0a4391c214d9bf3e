"""The benchmark harness ``tests/bench.py`` agrees with the records it wrote:
each ``BENCH_*.json`` at the repo root belongs to one of its suites, and holds
that suite's header; a label's metrics are the medians of its runs.  No
timing runs."""
import json

import bench


def test_each_bench_file_holds_its_suite_header():
    files = {path.stem.removeprefix("BENCH_"): path
             for path in bench.ROOT.glob("BENCH_*.json")}
    assert sorted(files) == sorted(bench.SUITES)
    for suite, (header, _) in bench.SUITES.items():
        recorded = json.loads(files[suite].read_text())
        del recorded["runs"]
        # through JSON, so that tuples compare equal to the lists they become
        assert recorded == json.loads(json.dumps(
            {**header, "repeats": bench.REPEATS})), suite


def test_label_records_the_median_of_its_runs():
    system = dict(bench.SYSTEM)
    # a label written before runs were kept starts afresh
    record = {"runs": {"parent": {"a_ms": 9.0, **system}}}
    for a_ms, calls in ((3.0, 7), (1.0, 7), (2.0, 7), (10.0, 7)):
        bench.add_run(record, "parent", {"a_ms": a_ms, "calls": calls,
                                         **system})
        bench.add_run(record, "change", {"a_ms": a_ms / 2, "calls": calls,
                                         **system})
    parent = record["runs"]["parent"]
    assert [run["a_ms"] for run in parent["each"]] == [3.0, 1.0, 2.0, 10.0]
    assert parent["a_ms"] == 2.5 and parent["calls"] == 7
    assert record["runs"]["change"]["a_ms"] == 1.25
    assert {k: parent[k] for k in system} == system
