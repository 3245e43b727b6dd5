"""Run one workload of the election benchmark and print its metrics.

    python3 perfbench/run.py --workload table1_exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``correct`` is
false as soon as one operation failed (raised or failed a check).  A fuller run
record (host, commit, seed, per-operation figures, the per-layer self-time
table and the exact counts) goes to ``perfbench/out/``; traced runs also
write their spans there as JSON lines.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pacing import Pace, normalized

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 7


def _import_program() -> bool:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src}/repro; run from a checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401
        import numpy  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return False
    return True


def timed_pass(workload, seconds: float, tracer, pace=None, between=None):
    """Whole rounds until ``seconds`` of operation time have been measured.

    Only the operations are on the clock.  Between them run the reference
    kernel (``pace``); between rounds the per-output checks, the traced
    run's bookkeeping and ``between(elapsed)`` (the set-up probes).
    Returns the rounds and each round's time on the clock.
    """
    rounds, walls = [], []
    while not rounds or sum(walls) < seconds:
        results, wall = workload.run_round(tracer, pace)
        walls.append(wall)
        workload.settle(results, keep_outputs=not rounds)
        if tracer.enabled:
            workload.after_round()
        rounds.append(results)
        if between is not None:
            between(sum(walls))
    return rounds, walls


def score(workload, rounds, round_walls, fails):
    """Attempted/failed operations, elections per second and op latency.

    Wall times are normalized by the reference kernel measured beside
    each call (see pacing.py) when the pass ran with one.  Each
    operation's time is its median over the rounds.  A round's time is
    the sum of its operations' times, or, for a workload whose round is
    one call (a sweep), the median round.  ``op_ms_geomean`` is the
    geometric mean of the operations' times.  The raw, unnormalized
    figures are kept beside them in the run record.
    """
    def norm(result):
        return result.wall if result.pace is None else normalized(result.wall, result.pace)

    ok = [i for i in range(len(workload.ops)) if i not in fails]
    elections = sum(rounds[0][i].elections for i in ok)
    op_time = {i: statistics.median(norm(r[i]) for r in rounds) for i in ok}
    if workload.ROUND_IS_ONE_CALL:
        round_time = statistics.median(
            w if r[0].pace is None else normalized(w, r[0].pace)
            for r, w in zip(rounds, round_walls)
        )
    else:
        round_time = sum(op_time.values())
    wall = sum(round_walls)
    raw = [r[i].wall for r in rounds for i in ok]
    return {
        "attempted": len(rounds) * len(workload.ops),
        "failed": len(rounds) * len(fails),
        "elections_per_round": elections,
        "elections_per_s": elections / round_time if elections else None,
        "op_ms_geomean": 1e3 * math.exp(statistics.mean(math.log(t) for t in op_time.values()))
        if ok else None,
        "rounds": len(rounds),
        "wall_s": wall,
        "round_walls_s": round_walls,
        "op_ms": {workload.ops[i].name: round(1e3 * t, 3) for i, t in op_time.items()},
        "op_walls_ms": {
            workload.ops[i].name: [round(1e3 * r[i].wall, 3) for r in rounds] for i in ok
        },
        "kernel_ms": [
            round(1e3 * r[0].pace, 3) for r in rounds if r[0].pace is not None
        ],
        "raw_elections_per_s": elections * len(rounds) / wall,
        "raw_op_ms_p50": 1e3 * statistics.median(raw) if raw else None,
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak among its children.

    Read after the first timed round, before the first set-up probe
    starts, so the counted children are the sweep workers only (the
    reference kernel process is not reaped until the run ends).
    ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class SetupProbes:
    """``setup_s`` samples, spread over the run between timed rounds."""

    def __init__(self, args, pace) -> None:
        self.seconds = args.seconds
        self.pace = pace
        self.samples: list = []
        self.raw: list = []
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            self.cmd.append("--smoke")

    def take(self) -> None:
        kernels = [self.pace() for _ in range(3)]
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode()[-2000:]}")
        kernel = statistics.median(kernels + [self.pace() for _ in range(3)])
        self.raw.append(wall)
        self.samples.append(normalized(wall, kernel))

    def between_rounds(self, elapsed: float) -> None:
        """Take the samples due by ``elapsed`` seconds of timed rounds."""
        step = self.seconds / (SETUP_REPEATS + 1)
        while len(self.samples) < SETUP_REPEATS and elapsed >= step * (len(self.samples) + 1):
            self.take()

    def finish(self) -> list:
        while len(self.samples) < SETUP_REPEATS:
            self.take()
        return self.samples


def host_record() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def warm_up(cls, args, pace) -> None:
    """A smoke-size round (lazy imports, pools), one full operation, the kernel."""
    cls(args.seed, smoke=True).run_round()
    cls(args.seed, smoke=args.smoke).warmup()
    for _ in range(3):
        pace()


def run_untraced(cls, args, pace):
    from tracing import NULL_TRACER

    workload = cls(args.seed, smoke=args.smoke)
    warm_up(cls, args, pace)
    probes = SetupProbes(args, pace)
    rss = []

    def between_rounds(elapsed: float) -> None:
        # The peak through the warm-up and the first timed round: a fixed
        # amount of work, whatever number of rounds the run fits in.
        if not rss:
            rss.append(peak_rss_mb())
        probes.between_rounds(elapsed)

    rounds, walls = timed_pass(
        workload, args.seconds, NULL_TRACER, pace, between=between_rounds
    )
    fails = workload.check(rounds)
    stats = score(workload, rounds, walls, fails)
    setups = probes.finish()
    metrics = {
        "setup_s": statistics.median(setups),
        "elections_per_s": stats["elections_per_s"],
        "op_ms_geomean": stats["op_ms_geomean"],
        "peak_rss_mb": rss[0],
    }
    record = {
        "pass": stats,
        "setup_samples_s": setups,
        "setup_raw_s": probes.raw,
        "counts": workload.counts(rounds),
    }
    return not fails, stats, fails, metrics, record, workload


def traced_layers(workload, tracer, rounds):
    """The per-layer metrics one traced workload reaches."""
    spec_spans = [s.wall for s in tracer.named("sweep.spec")]
    probe = workload.probe(tracer)
    layers = {"sweep.spec_build_us": 1e6 * statistics.median(spec_spans)}
    layers.update(workload.layers(tracer, rounds, probe))
    return layers


def run_traced(cls, args, pace):
    """Half the time untraced, half traced; then probes and the layer table.

    Layers the workload does not reach are measured on a one-round smoke
    pass of the workload that does, so every traced run reports the
    whole per-layer table (README.md says which value comes from where).
    """
    from tracing import NULL_TRACER, Tracer, engine_spans, self_times
    from workloads import WORKLOADS

    tracer = Tracer()
    workload = cls(args.seed, smoke=args.smoke, tracer=tracer)
    warm_up(cls, args, pace)
    half = args.seconds / 2
    plain, plain_walls = timed_pass(workload, half, NULL_TRACER, pace)
    with engine_spans(tracer):
        traced, traced_walls = timed_pass(workload, half, tracer, pace)
    rounds = plain + traced
    fails = workload.check(rounds)
    stats = score(workload, rounds, plain_walls + traced_walls, fails)
    plain_eps = score(workload, plain, plain_walls, fails)["elections_per_s"]
    traced_eps = score(workload, traced, traced_walls, fails)["elections_per_s"]
    layers = traced_layers(workload, tracer, traced)
    layers["trace.overhead_frac"] = (plain_eps - traced_eps) / plain_eps
    sources = dict.fromkeys(layers, args.workload)
    tracers = {args.workload: tracer}
    counts = {args.workload: workload.counts(rounds)}
    correct = not fails
    for name, other_cls in WORKLOADS.items():
        if name == args.workload:
            continue
        other_tracer = Tracer()
        other = other_cls(args.seed, smoke=True, tracer=other_tracer)
        with engine_spans(other_tracer):
            other_rounds, _ = timed_pass(other, 0, other_tracer)
        correct &= not other.check(other_rounds)
        for key, value in traced_layers(other, other_tracer, other_rounds).items():
            if key not in layers:
                layers[key] = value
                sources[key] = f"{name} (smoke)"
        tracers[name] = other_tracer
        counts[name] = other.counts(other_rounds)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for name, t in tracers.items():
            t.write_jsonl(fh, workload=name)
    record = {
        "pass": stats,
        "elections_per_s_untraced": plain_eps,
        "elections_per_s_traced": traced_eps,
        "layer_sources": sources,
        "self_times": {name: self_times(t.spans) for name, t in tracers.items()},
        "counts": counts,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return correct, stats, fails, layers, record, workload


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs that finish in seconds (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import, build inputs, run one operation, exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _import_program():
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        cls(args.seed, smoke=args.smoke).warmup()
        return 0
    runner = run_traced if args.trace else run_untraced
    with Pace() as pace:
        correct, stats, fails, metrics, record, workload = runner(cls, args, pace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    missing = [k for k in units if metrics.get(k) is None]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        correct = False
    failures = {workload.ops[i].name: texts[:5] for i, texts in fails.items()}
    for name, texts in failures.items():
        print(f"FAILED {name}: {texts[0]}", file=sys.stderr)
    result = {
        "correct": bool(correct),
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {
            key: {"value": metrics.get(key), "unit": unit} for key, unit in units.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    run_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(run_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "host": host_record(),
                "operations": [op.name for op in workload.ops],
                "failures": failures,
                "result": result,
                **record,
            },
            fh,
            indent=1,
            sort_keys=True,
            default=str,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
