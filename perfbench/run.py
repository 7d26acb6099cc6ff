"""backhaulopt benchmark: seeded workloads run as a closed loop.

    python3 perfbench/run.py --workload placement-2d --seed 1 --seconds 15 --trace 0

Run from the repository root. One process, one client: each op starts
when the previous one returns. After one untimed warm-up op, ops repeat
until `--seconds` of op time has been measured. Every op's output is
checked outside the timed region; a wrong result counts as failed and
the run goes on.

`--trace 0` reports the end-to-end metrics. `--trace 1` reports the
per-layer metrics instead: half the time runs untraced, half with
wrappers around each module's public functions (see tracing.py), then
one more op runs under tracemalloc for allocation peaks. The spans are
written to `.perfbench_out/<workload>-seed<seed>.spans.jsonl`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it print every
metric as `name value unit`. `--tiny` shrinks every input, for the
harness's self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# BENCHMARK.json declares only placement-2d and cli-asymptotic. The other
# two stay runnable, but on a shared 2-vCPU host their run-to-run spread
# exceeded the largest bound a declared metric may have, and four
# declared workloads would also cap each run at about 28 s.
WORKLOAD_NAMES = ("placement-2d", "placement-1d", "placement-small", "cli-asymptotic")
# setup_s is the median of this many fresh-interpreter set-ups.
SETUP_SAMPLES = 3
# Percentiles op_tail_s may report: the highest with >= 10 ops beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="op time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import backhaulopt from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import backhaulopt
    except ImportError as exc:
        sys.exit(f"cannot import backhaulopt from {SRC}: {exc}")
    if Path(backhaulopt.__file__).resolve().parent.parent != SRC:
        sys.exit(f"backhaulopt was imported from {backhaulopt.__file__}, not from {SRC}")


def time_setups(args) -> list[float]:
    """Seconds from interpreter launch until a fresh process is ready for its first op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        samples.append(ready)
    return samples


class Loop:
    """Closed loop: runs ops one after another, times them, and gates their outputs."""

    def __init__(self, workload, check_failed):
        self.workload = workload
        self.check_failed = check_failed
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.facts = {}

    def run(self, seconds, tracer=None, alloc=False):
        """Ops until `seconds` of op time are measured; at least one.
        With `alloc`, each op (not its check) runs under tracemalloc."""
        times, ids = [], []
        busy = 0.0
        while busy < seconds or not times:
            i = self.next
            self.next += 1
            if tracer is not None:
                tracer.op = i
            if alloc:
                tracemalloc.start()
            start = perf_counter()
            try:
                out = self.workload.op(i)
            except Exception:
                out = None
                traceback.print_exc()
            times.append(perf_counter() - start)
            if alloc:
                tracemalloc.stop()
            busy += times[-1]
            ids.append(i)
            if tracer is not None:
                tracer.op = None
            self.attempted += 1
            if out is None:
                self.failed += 1
                continue
            try:
                self.facts[i] = self.workload.check(i, out)
            except self.check_failed as exc:
                self.failed += 1
                print(f"check failed: {exc}", file=sys.stderr)
        return times, ids

    def mean_power(self):
        """Final total power averaged per input instance, then over instances,
        so it does not depend on how many ops the run fitted in."""
        by_instance = {}
        for i, (power, _) in self.facts.items():
            by_instance.setdefault(self.workload.instance(i), []).append(power)
        means = [statistics.fmean(p) for p in by_instance.values()]
        return statistics.fmean(means) if means else 0.0


def tail(times):
    """(percentile, value, ops beyond) for the highest ladder percentile
    with at least TAIL_BEYOND ops beyond it, or None."""
    n = len(times)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_BEYOND:
            value = float(np.percentile(times, q))
            return q, value, sum(t > value for t in times)
    return None


def show(name, value, unit, note=""):
    """One `name value unit` line; numbers keep all their digits."""
    text = value if isinstance(value, str) else repr(value)
    print(f"{name:<52} {text} {unit}{'  ' + note if note else ''}")


def end_to_end(args, workloads):
    setups = time_setups(args)
    workdir = make_workdir()
    try:
        loop = Loop(workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir),
                    workloads.CheckFailed)
        loop.run(0)  # warm-up
        times, _ = loop.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        remove_workdir(workdir)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "mean_total_power": (loop.mean_power(), "sigma2"),
    }
    print(f"# {args.workload} seed {args.seed}: {len(times)} ops in {sum(times):.3f} s of op time, "
          f"{loop.failed} failed; set-up samples {[round(s, 4) for s in setups]}")
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    t = tail(times)
    if t is None:
        show("op_tail_s", "n/a", "s", f"(needs >= {2 * TAIL_BEYOND} ops, have {len(times)})")
    else:
        q, value, beyond = t
        show("op_tail_s", value, "s", f"(p{q:g}: {beyond} of {len(times)} ops beyond)")
    show("failed_frac", loop.failed / loop.attempted, "ratio")
    return loop, metrics


def per_layer(args, workloads):
    import tracing

    tracer = tracing.Tracer()
    workdir = make_workdir()
    try:
        tracer.install()
        tracer.op = "setup"
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        finally:
            tracer.op = None
            tracer.uninstall()
        loop = Loop(workload, workloads.CheckFailed)
        loop.run(0)  # warm-up
        untraced, _ = loop.run(args.seconds / 2)
        tracer.install()
        try:
            traced, ids = loop.run(args.seconds / 2, tracer)
            tracer.measure_alloc = True
            loop.run(0, tracer, alloc=True)
        finally:
            tracer.uninstall()
    finally:
        remove_workdir(workdir)

    written = [loop.facts[i][1] for i in ids if i in loop.facts]
    values = tracing.layer_metrics(tracer.spans, ids, traced, statistics.median(untraced), written)
    spans = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
    spans.parent.mkdir(exist_ok=True)
    tracing.write_spans(tracer.spans, spans)
    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced ops, "
          f"{loop.failed} failed; {len(tracer.spans)} spans in {spans.relative_to(ROOT)}")
    metrics = {}
    for name, unit, _ in tracing.per_layer_names():
        metrics[name] = (values[name], unit)
        show(name, values[name], unit)
    return loop, metrics


def make_workdir() -> Path:
    path = ROOT / ".perfbench_tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    if args.setup_only:
        workdir = make_workdir()
        try:
            workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
            print("ready", flush=True)
        finally:
            remove_workdir(workdir)
        return 0

    loop, metrics = (per_layer if args.trace else end_to_end)(args, workloads)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
