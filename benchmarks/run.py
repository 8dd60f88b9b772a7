#!/usr/bin/env python3
"""Benchmark of the vibroprint CLI flows, end to end or traced per layer.

    python3 benchmarks/run.py --workload analyze-long --seed 1 --seconds 15 --trace 0

Runs one workload (see workloads.py) in this process: imports vibroprint
from ../src, synthesizes the inputs from the seed, then calls
`vibroprint.cli.run(argv)` pass after pass for --seconds seconds, after
one untimed warm-up pass.  Every pass's outputs are checked; a pass fails
on a nonzero exit, an exception or a failed check.  A fixed reference task
timed before each pass measures the machine's speed, and the gated pass
time is the pass's wall time in units of it (see reference_s).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of spans.py; the spans
are written to .bench_results/<workload>.spans.csv.  Each run also writes
.bench_results/<workload>-seed<n>-trace<t>.json with every metric, the
machine and code facts and the input digest.  The last line of standard
output is the JSON result: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS, Tracer, layer_metrics
from workloads import TINY_WORKLOADS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's sizes")
    return parser.parse_args(argv)


def import_vibroprint():
    """Import vibroprint from this checkout's src/, never from elsewhere."""
    if not (SRC / "vibroprint" / "__init__.py").is_file():
        raise ImportError(f"no vibroprint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vibroprint
    import vibroprint.cli  # noqa: F401  (the CLI is not imported by the package)

    if not Path(vibroprint.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"vibroprint was imported from {vibroprint.__file__}, not {SRC}")
    return vibroprint


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (ROOT / ".git" / ref).is_file():
        return (ROOT / ".git" / ref).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def facts(vp, seed: int) -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "vibroprint").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "vibroprint": vp.__version__,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "platform": platform.platform(),
    }


def reference_s() -> float:
    """Wall time of a fixed task that uses no vibroprint code.

    The host's speed drifts by up to 2x over minutes, in interpreted Python
    and numpy alike.  A pass's wall time divided by this task's, timed just
    before the pass, cancels most of that drift; the mix follows the
    workloads' (a Python loop, as in the design scan, and FFTs, as in the
    analysis).
    """
    import numpy

    data = numpy.random.default_rng(0).standard_normal(1 << 17)
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    for _ in range(16):
        numpy.fft.rfft(data)
    return time.perf_counter() - start


class Runner:
    """Runs and checks passes of one workload; keeps every pass's outcome."""

    def __init__(self, vp, workload, inputs, work: Path, tracer: Tracer | None):
        self.vp, self.workload, self.inputs, self.tracer = vp, workload, inputs, tracer
        self.out = work / "out"
        self.first_digests: dict[str, str] = {}
        self.passes: list[dict] = []

    def run_pass(self, traced: bool) -> dict:
        index = len(self.passes)
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        problems: list[str] = []
        wall = 0.0
        sink = io.StringIO()
        ref = reference_s()
        if traced:
            self.tracer.current_pass = index
            self.tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in self.workload.argvs(self.inputs, self.out):
                    start = time.perf_counter()
                    code = self.vp.cli.run(argv)
                    wall += time.perf_counter() - start
                    if code != 0:
                        problems.append(f"exit code {code} from {argv}: {sink.getvalue()[-500:]}")
        except Exception as exc:  # a crash is a failed pass, not a failed benchmark
            problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        problems += self.workload.check(self.inputs, self.out, self.first_digests)
        for problem in problems[:3]:
            print(f"pass {index} failed: {problem}", file=sys.stderr)
        record = {"index": index, "traced": traced, "wall_s": wall, "ref_s": ref, "problems": problems}
        self.passes.append(record)
        return record


def median_wall(passes: list[dict]) -> float:
    return statistics.median(p["wall_s"] for p in passes)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = (TINY_WORKLOADS if args.size == "tiny" else WORKLOADS)[args.workload]
    start = time.perf_counter()
    try:
        vp = import_vibroprint()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        # One traced set-up gives the set-up layers' spans; untraced runs
        # repeat the set-up and report the median.
        setup_times = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            os.sync()  # earlier writes go back to disk before, not during, the timed set-up
            if tracer:
                tracer.install()
            begin = time.perf_counter()
            try:
                inputs = workload.setup(vp, args.seed, work)
            except Exception as exc:
                print(f"error: input generation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                return 1
            finally:
                if tracer:
                    tracer.uninstall()
            setup_times.append(time.perf_counter() - begin)
        digest = workload.digest(inputs)
        os.sync()  # and the inputs before the timed passes

        runner = Runner(vp, workload, inputs, work, tracer)
        runner.run_pass(traced=False)  # warm-up: caches fill, first-pass digests recorded
        # Timed passes until the next one would end past --seconds; at least
        # two, so that a traced run has a traced and an untraced pass.
        begin = time.perf_counter()
        while True:
            started = time.perf_counter()
            runner.run_pass(traced=bool(tracer) and len(runner.passes) % 2 == 0)
            now = time.perf_counter()
            if len(runner.passes) >= 3 and now + (now - started) - begin > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    passes = runner.passes
    timed = passes[1:]
    failed = sum(1 for p in passes if p["problems"])
    untraced = [p for p in timed if not p["traced"]]
    wall_p50 = median_wall(untraced)
    RESULTS.mkdir(exist_ok=True)
    if tracer:
        traced = [p for p in timed if p["traced"]]
        values = layer_metrics(tracer, len(traced), median_wall(traced) - wall_p50)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
        tracer.write_csv(RESULTS / f"{args.workload}.spans.csv")
        shown = metrics
    else:
        name, unit = workload.throughput
        metrics = {
            "wall_ref_p50": {"value": statistics.median(p["wall_s"] / p["ref_s"] for p in untraced), "unit": "ratio"},
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        shown = {
            "wall_s_p50": {"value": wall_p50, "unit": "s"},
            **metrics,
            name: {"value": inputs["work_per_pass"] / wall_p50, "unit": unit},
            "error_rate": {"value": failed / len(passes), "unit": "ratio"},
            "reference_s_p50": {"value": statistics.median(p["ref_s"] for p in untraced), "unit": "s"},
        }

    record = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "facts": facts(vp, args.seed),
        "inputs_sha256": digest,
        "work_per_pass": {"value": inputs["work_per_pass"], "unit": workload.work_unit},
        "import_s": import_s,
        "setup_s_each": setup_times,
        "metrics": shown,
        "passes": passes,
    }
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes (1 warm-up, "
          f"{len(untraced)} timed untraced), inputs sha256 {digest}")
    print(f"facts: {json.dumps(record['facts'], sort_keys=True)}")
    for name, m in shown.items():
        print(f"  {name:<45} {m['value']:.6g} {m['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
