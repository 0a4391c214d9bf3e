"""The benchmark harness ``tests/bench.py`` agrees with the records it wrote:
each ``BENCH_*.json`` at the repo root belongs to one of its suites, and holds
that suite's header.  No timing runs."""
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
