"""Benchmark of seqbounds: three workloads timed end to end, and per layer in
a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload coverage_mc --seed 1 --seconds 40 --trace 0

Each workload is a closed loop from one process: it runs its fixed list of
operations one after another (a pass), and repeats whole passes for about
``--seconds``.  Pass 0 warms up and its outputs are checked against values
computed apart from the program; it is not timed.  Every pass uses the same
seed, so the outputs of the timed passes must be byte-identical to pass 0.  Progress and the per-operation figures go
to standard output; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer ones of the traced run.  The
program is imported from ``./src``; its outputs go to ``./.perfbench_out``.

Set-up time and peak memory come from fresh interpreters started during the
run (``--child``): each imports seqbounds and builds the workload, and the
first also runs one unchecked pass, so its peak memory is the program's
alone, not that of the checks.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("coverage_mc", "scenario_pac", "capacity_calc")
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 5
# setup_s is given at the machine speed where the reference loop takes this
REFERENCE_NOMINAL_S = 1.5e-3

END_TO_END = [("setup_s", "s"), ("pass_ref", "ref"), ("peak_rss_mb", "MB")]
REFERENCE_ITERATIONS = 20_000


def reference_loop():
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    total = 0
    for k in range(REFERENCE_ITERATIONS):
        total += k * k
    return time.perf_counter() - t0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"),
                        help="import seqbounds, build the workload, print "
                             "the time when done and exit (what setup_s "
                             "times); with 'pass', run one unchecked pass "
                             "first (what peak_rss_mb measures)")
    return parser.parse_args(argv)


def manifest_mismatch(root):
    """Names that BENCHMARK.json and this benchmark disagree on, if any."""
    from tracer import PER_LAYER
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = {(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]}
    have = set(END_TO_END) | {(m, u) for m, u, _, _ in PER_LAYER}
    return sorted(want ^ have)


class Children:
    """Fresh interpreters that import seqbounds and build the workload's
    operations, as a CLI user's invocation does.  Each reports when it is
    done building (``perf_counter`` is the system-wide monotonic clock); the
    one run with ``pass`` then runs one unchecked pass, and its peak
    resident memory is read from ``wait4``."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", "0", "--child"]
        self.setup_times = []
        self.peak_rss_mb = None

    def spawn(self, mode):
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd + [mode], stdout=subprocess.PIPE,
                                text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"child '{mode}' exited with code "
                               f"{proc.returncode}")
        self.setup_times.append(float(out.split()[-1]) - t0)
        if mode == "pass":
            self.peak_rss_mb = usage.ru_maxrss / 1024.0

    def due(self, elapsed, seconds):
        """Spread the set-up children evenly over the run."""
        if (len(self.setup_times) < SETUP_RUNS
                and elapsed >= len(self.setup_times) * seconds / SETUP_RUNS):
            self.spawn("setup")


def run_child(args, root):
    """The body of ``--child``: build, report, maybe run one pass."""
    import workloads
    out_root = root / OUT_DIR / f"{args.workload}.child"
    ops = workloads.build(args.workload, args.seed, out_root)
    ready = time.perf_counter()
    if args.child == "pass":
        shutil.rmtree(out_root, ignore_errors=True)
        for op in ops:
            try:
                op.call()
            except op.fault:
                pass
    print(f"{ready:.9f}")
    return 0


class Run:
    """The closed loop: whole passes, timing every operation."""

    def __init__(self, ops, checks, tracer=None):
        self.ops = ops
        self.checks = checks
        self.checker = checks.Checker()
        self.tracer = tracer
        self.first = {}                 # op name -> first pass's result or digests
        self.times = []                 # (pass, op metric, seconds)
        self.refs = []                  # (pass, reference loop seconds)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.faults = {}                # op name -> message of the known fault
        self.bytes_written = 0

    def run(self, seconds, start, between=None):
        """Pass 0 warms up and is checked, untimed; then timed passes run
        while the next one still fits in ``seconds`` from ``start`` (at
        least one).  ``between(elapsed, seconds)`` runs after each timed
        pass, outside its time."""
        while True:
            pass_start = time.perf_counter()
            for op in self.ops:
                self._one(op, timed=self.passes > 0)
            self.passes += 1
            now = time.perf_counter()
            pass_time = now - pass_start
            if self.passes > 1 and between is not None:
                between(now - start, seconds)
                now = time.perf_counter()
            if self.passes > 1 and now - start + pass_time > seconds:
                return

    def _one(self, op, timed):
        CheckError = self.checks.CheckError
        self.attempted += 1
        if timed and not op.fault:
            self.refs.append((self.passes, reference_loop()))
        tracing = self.tracer is not None and timed
        if tracing:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = op.call()
        except op.fault as exc:
            self.failed += 1
            self.faults[op.name] = f"{type(exc).__name__}: {exc}"
            return
        finally:
            if tracing:
                self.tracer.enabled = False
        elapsed = time.perf_counter() - t0
        if timed and not op.fault:
            self.times.append((self.passes, op.metric, elapsed))
            self.refs.append((self.passes, reference_loop()))
        if op.config is None:
            if op.name not in self.first:
                self.checker.check(op, result)
                self.first[op.name] = result
            elif result != self.first[op.name]:
                raise CheckError(f"{op.name}: result differs from pass 0")
            return
        if result != 0:
            raise CheckError(f"{op.name}: seqbounds exited with code {result}")
        outputs = self.checks.Outputs(op)
        if timed:
            self.bytes_written += sum(len(v) for v in outputs.raw.values())
        files = outputs.digests()
        if op.name not in self.first:
            self.checker.check(op, outputs)
            self.first[op.name] = files
        elif files != self.first[op.name]:
            changed = sorted(k for k in files if files[k] != self.first[op.name].get(k))
            raise CheckError(f"{op.name}: {changed} differ from pass 0 "
                             f"with the same seed")

    @property
    def timed_passes(self):
        return self.passes - 1

    def pass_sums(self, metric=None):
        """Per timed pass: the summed time of its ops (of one metric)."""
        sums = [0.0] * self.timed_passes
        for p, m, t in self.times:
            if metric is None or m == metric:
                sums[p - 1] += t
        return sums

    def pass_refs(self):
        """Per timed pass: the median reference loop time in it (timed
        just before and just after each operation)."""
        return [statistics.median(t for p, t in self.refs if p == i)
                for i in range(1, self.passes)]

    def samples(self, metric):
        return [t for _, m, t in self.times if m == metric]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report(args, run, children, workloads):
    """Print the human-readable figures; return the end-to-end metrics."""
    print(f"workload {args.workload}, seed {args.seed}: {run.timed_passes} "
          f"timed passes after a warm-up pass, "
          f"{run.attempted} operations attempted, {run.failed} failed")
    if run.faults:
        first, last = min(run.faults), max(run.faults)
        sample = next(iter(run.faults.values()))
        print(f"  known fault: {len(run.faults)} distinct calls "
              f"({first} .. {last}) raise {sample}; counted as failed, "
              f"kept out of every timed metric")
    for name, unit, metric, stat in workloads.REPORTED[args.workload]:
        if stat == "pass":
            values = run.pass_sums(metric)
            value, count = statistics.median(values), len(values)
        else:
            values = run.samples(metric)
            value = (statistics.median(values) if stat == "p50"
                     else percentile(values, 90))
            count = len(values)
        scale = 1000.0 if unit == "ms" else 1.0
        what = ("median of the sums over" if stat == "pass" else stat + " of")
        print(f"  {name:28s} {value * scale:12.4f} {unit:3s} "
              f"({what} {count} {'passes' if stat == 'pass' else 'calls'})")
    pass_sums, pass_refs = run.pass_sums(), run.pass_refs()
    print("  pass times (s): " + " ".join(f"{t:.3f}" for t in pass_sums))
    print("  reference loop (ms): " + " ".join(f"{t * 1e3:.3f}" for t in pass_refs))
    print(f"  pass_s (wall)                {statistics.median(pass_sums):12.4f} s")
    setup_wall = statistics.median(children.setup_times)
    reference = statistics.median(t for _, t in run.refs)
    print("  set-up times (s): " + " ".join(
        f"{t:.3f}" for t in children.setup_times)
        + f"; median {setup_wall:.4f} s at a median reference loop of "
          f"{reference * 1e3:.3f} ms")
    metrics = {
        "setup_s": setup_wall * REFERENCE_NOMINAL_S / reference,
        "pass_ref": statistics.median(t / r for t, r in zip(pass_sums, pass_refs)),
        "peak_rss_mb": children.peak_rss_mb,
    }
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END}


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "seqbounds" / "cli.py").is_file():
        print("perfbench: ./src/seqbounds not found; run from the root of a "
              "seqbounds checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.child:
        return run_child(args, root)
    import workloads
    out_root = root / OUT_DIR / args.workload
    ops = workloads.build(args.workload, args.seed, out_root)
    mismatch = (root / "BENCHMARK.json").is_file() and manifest_mismatch(root)
    if mismatch:
        print(f"perfbench: BENCHMARK.json and the benchmark disagree on "
              f"{mismatch}", file=sys.stderr)
        return 2
    import seqbounds
    if Path(seqbounds.__file__).resolve().parent != (root / "src" / "seqbounds").resolve():
        print(f"perfbench: seqbounds imported from {seqbounds.__file__}, "
              f"not ./src", file=sys.stderr)
        return 2
    import checks

    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    wall = time.perf_counter()
    tracer = children = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        children = Children(args)
    run = Run(ops, checks, tracer)
    correct = True
    try:
        if children:
            children.spawn("pass")
        run.run(args.seconds, wall, children and children.due)
        while children and len(children.setup_times) < SETUP_RUNS:
            children.spawn("setup")
    except checks.CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    except Exception:                        # an operation broke: say which
        traceback.print_exc()
        run.failed += 1
        correct = False
    wall = time.perf_counter() - wall
    if tracer:
        tracer.uninstall()
    if correct:
        try:
            run.checker.path_moments()
            if args.workload == "coverage_mc":
                run.checker.threads_agree(
                    next(op for op in ops if op.name == "vc_coverage"))
        except checks.CheckError as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            correct = False
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": run.failed, "metrics": {}}))
        return 1

    if args.trace:
        tracer.counts["cli.bytes_written"] = run.bytes_written
        spans = tracer.write(out_root / "spans.csv")
        pass_sums = run.pass_sums()
        pass_ref = statistics.median(
            t / r for t, r in zip(pass_sums, run.pass_refs()))
        print(f"workload {args.workload}, seed {args.seed}, traced: "
              f"{run.timed_passes} timed passes after a warm-up pass, "
              f"{run.attempted} operations attempted, {run.failed} failed; "
              f"pass_s {statistics.median(pass_sums):.4f} s, pass_ref "
              f"{pass_ref:.1f} ref; {spans} spans written to "
              f"{OUT_DIR}/{args.workload}/spans.csv")
        metrics = tracer.metrics(run.timed_passes)
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = report(args, run, children, workloads)
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:12.4f} {m['unit']}")
    print(f"  run wall time {wall:.1f} s")
    print(json.dumps({"correct": True, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
