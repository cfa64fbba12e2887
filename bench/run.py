"""credo benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload run_hybrid --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15 --trace 0

Set-up runs SETUP_REPEATS times in a child process (``setup_s`` is the
median). One untimed warm-up pass follows and becomes the reference every
later pass's outputs must match byte for byte. Then passes run back to back
until ``--seconds`` have elapsed, each starting when the previous one ends.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (medians over passes) plus the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Provenance, every pass time and the trace spans are written under
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "h_measure": "ratio",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_credo() -> None:
    """Import credo from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "credo" / "__init__.py").is_file():
        fail(f"no credo sources under {src}")
    sys.path.insert(0, str(src))
    import credo

    if Path(credo.__file__).resolve().parent != (src / "credo").resolve():
        fail(f"credo was imported from {credo.__file__}, not from {src}")


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def provenance(args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup(workload: str, seed: int, target: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(target, ignore_errors=True)
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(target)],
            capture_output=True, text=True, timeout=150,
        )
        times.append(time.perf_counter() - t0)
        if child.returncode != 0:
            print(child.stdout + child.stderr, file=sys.stderr)
            sys.exit(1)
    return times


class Checker:
    """Counts operations and compares outputs with the reference pass."""

    def __init__(self):
        self.reference: dict[tuple[str, str], bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result, first: bool) -> None:
        for op in result.ops:
            self.attempted += 1
            for path in op.files:
                key = (op.name, path.name)
                data = path.read_bytes() if path.is_file() else None
                if data is None:
                    op.ok, op.problem = False, op.problem or f"missing output {path.name}"
                elif first:
                    self.reference[key] = data
                elif self.reference.get(key) != data:
                    op.ok, op.problem = False, op.problem or f"{path.name} differs from the first pass"
            if not op.ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op.name}: {op.problem}")


def quality(scores) -> dict:
    if not scores:
        return {"accuracy": 0.0, "h_measure": 0.0}
    return {
        "accuracy": statistics.fmean(s[0] for s in scores),
        "h_measure": statistics.fmean(s[1] for s in scores),
    }


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        return f"p{pct}", statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return "max", max(values)


def run_one(args) -> int:
    import_credo()
    import tracing
    from workloads import WORKLOADS

    run_pass = WORKLOADS[args.workload][1]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    data, out = run_dir / "setup", run_dir / "pass"
    try:
        setup_times = setup(args.workload, args.seed, data)

        checker = Checker()

        def one_pass(first=False, tracer=None):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            if tracer is not None:
                tracer.install()
            try:
                t0, c0 = time.perf_counter(), cpu_seconds()
                result = run_pass(data, out)
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            checker.check(result, first)
            return result, wall, cpu

        warm, _, _ = one_pass(first=True)
        scores = quality(warm.scores)

        walls, cpus, traced_walls, layers, spans_out = [], [], [], [], []
        xcheck_worst, xcheck_problems = 0.0, []
        tracer = tracing.Tracer() if args.trace else None
        deadline = time.perf_counter() + args.seconds
        while (time.perf_counter() < deadline or not walls
               or (tracer is not None and not traced_walls)):
            traced = tracer is not None and len(traced_walls) < len(walls)
            _, wall, cpu = one_pass(tracer=tracer if traced else None)
            if not traced:
                walls.append(wall)
                cpus.append(cpu)
                continue
            traced_walls.append(wall)
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans))
            worst, problems = tracing.crosscheck(spans)
            xcheck_worst = max(xcheck_worst, worst)
            xcheck_problems += problems
            spans_out.append([s.to_dict() for s in spans])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics = {name: (statistics.median(m[name] for m in layers), unit)
                   for name, unit in tracing.PER_LAYER}
        metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
        metrics["trace.untraced_wall_s"] = (statistics.median(walls), "s")
        metrics["trace.overhead_s"] = (
            metrics["trace.wall_s"][0] - metrics["trace.untraced_wall_s"][0], "s")
        metrics["trace.crosscheck_max_dev_s"] = (xcheck_worst, "s")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            **scores,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    problems = checker.problems + xcheck_problems
    correct = checker.failed == 0 and not xcheck_problems
    info = provenance(args)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    label, high = high_percentile(walls)
    print(f"  {'wall_s_' + label:34s} {high:14.6f} s   ({len(walls)} untraced passes)")
    print(f"  {'error_rate':34s} {checker.failed / checker.attempted:14.6f} ratio"
          f"   ({checker.failed} of {checker.attempted} operations failed)")
    if args.trace:
        print(f"  crosscheck tolerance: stage - spans in "
              f"[-{tracing.CROSSCHECK_SHORT_S}, {tracing.CROSSCHECK_ABS_S} + "
              f"{tracing.CROSSCHECK_REL} * stage] s")
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(info, sort_keys=True))

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s": setup_times,
        "wall_s": walls,
        "cpu_s": cpus,
        "traced_wall_s": traced_walls,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": problems,
        "unwrapped": tracer.unwrapped if tracer else [],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans_out:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for i, spans in enumerate(spans_out):
                for span in spans:
                    fh.write(json.dumps({"pass": i, **span}) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Run every workload in its own process so each gets its own peak RSS."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
