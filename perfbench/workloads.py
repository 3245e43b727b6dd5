"""The three benchmark workloads: inputs from a seed, operations, checks.

An *operation* is one call into a public entry point of ``repro``: one
``execute_spec`` call, one sweep cell, or one ``run_scenario`` /
``run_scenario_batch`` call.  An *election* is one finished engine
election: one record, one lane or one scenario act.  Each workload runs
its operations in whole rounds, in a closed loop (the next operation
starts when the previous one has returned), and always the same list per
round, so every round does the same work.

``Workload(seed)`` derives every input from ``seed`` alone: engine seeds,
ID sets, wake-up roots, crash schedules and partition splits.  The
program only ever receives those generated inputs.

Each workload also knows, for the traced run, which per-layer metrics it
reaches (:meth:`Workload.layers`) and which extra probes it needs for
them (:meth:`Workload.probe`); see README.md for the table.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import pickle
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from checks import (
    check_election,
    check_fault_run,
    check_scenario,
    compare_summaries,
    compare_twin,
    summary,
)
from tracing import NULL_TRACER, self_times

__all__ = ["WORKLOADS", "OpResult", "Workload"]


@dataclass
class Op:
    """One operation of a round and what its checks need to know."""

    name: str
    layer: str  # the span name of the entry point it calls
    call: Callable[[], Any]
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class OpResult:
    index: int
    wall: float
    output: Any = None
    error: Optional[str] = None
    pace: Optional[float] = None  # reference-kernel time beside the call
    elections: int = 0
    face: Any = None  # the seed-deterministic summary of the output
    fails: List[str] = field(default_factory=list)


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def lingering() -> int:
    """Threads and worker processes alive in this process right now.

    An operation must return with none more than it started with: one it
    left running would slow the reference kernel (pacing.py) as much as
    the next operation, and so hide from the normalized figures.
    """
    return threading.active_count() + len(multiprocessing.active_children())


def _left_running(before: int) -> Optional[str]:
    extra = lingering() - before
    return f"left {extra} threads or worker processes running" if extra > 0 else None


def _spec(tracer, **kwargs):
    """Build one RunSpec under a ``sweep.spec`` span (spec + resolution)."""
    from repro.sweep import RunSpec

    with tracer.span("sweep.spec"):
        spec = RunSpec(**kwargs)
        spec.resolved_engine()
    return spec


class Workload:
    """Base class: a list of sequential operations run in whole rounds."""

    name = ""
    #: True when a round is a single call into the program (a sweep).
    ROUND_IS_ONE_CALL = False

    def __init__(self, seed: int, smoke: bool = False, tracer=NULL_TRACER) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: List[Op] = []
        self.build(tracer)

    def build(self, tracer) -> None:
        raise NotImplementedError

    def draw_seed(self) -> int:
        return self.rng.randrange(2**31)

    # ---------------------------------------------------------------- run

    def warmup(self) -> None:
        """Run the first operation once (the set-up probe's warm-up)."""
        self.ops[0].call()

    def run_round(self, tracer=NULL_TRACER, pace=None) -> Tuple[List[OpResult], float]:
        """Run every operation once; return the results and the time on the clock.

        With ``pace`` (a :class:`pacing.Pace`) the reference kernel runs
        before the first operation and after each one, off the clock, and
        each result records the median of the four kernels nearest to it.
        Garbage collection runs when the interpreter triggers it, on the
        clock of the operation it lands in.
        """
        results = []
        kernels = [pace()] if pace else []
        before = lingering()
        for index, op in enumerate(self.ops):
            tracer.op = index
            error = None
            value = None
            with tracer.span("op", label=op.name):
                start = time.perf_counter()
                try:
                    with tracer.span(op.layer):
                        value = op.call()
                except Exception as exc:  # an operation that raises fails
                    error = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - start
            error = error or _left_running(before)
            results.append(OpResult(index, wall, value, error))
            if pace:
                kernels.append(pace())
        tracer.op = None
        if pace:
            for i, result in enumerate(results):
                result.pace = statistics.median(kernels[max(0, i - 1) : i + 3])
        return results, sum(r.wall for r in results)

    def elections(self, op: Op, output: Any) -> int:
        return len(output)

    # ------------------------------------------------------------- checks

    def settle(self, results: List[OpResult], keep_outputs: bool) -> None:
        """Off the clock, after each round: the per-output checks.

        Only the first round of a pass keeps its outputs (the replays and
        the traced layers read them); later rounds keep the summary the
        determinism check compares, so memory does not grow with the
        number of rounds a run fits in.
        """
        for result in results:
            if result.error is not None:
                continue
            op = self.ops[result.index]
            result.elections = self.elections(op, result.output)
            result.face, result.fails = self.inspect(op, result.output)
            if not keep_outputs:
                result.output = None

    def check(self, rounds: List[List[OpResult]]) -> Dict[int, List[str]]:
        """Failures per operation index over every (settled) round."""
        fails: Dict[int, List[str]] = {}
        for index, op in enumerate(self.ops):
            results = [r[index] for r in rounds]
            problems = [r.error for r in results if r.error is not None]
            if not problems:
                for result in results:
                    problems += result.fails
                for r, result in enumerate(results[1:], start=1):
                    problems += compare_summaries(
                        f"{op.name} round {r} vs round 0", result.face, results[0].face
                    )
                problems += self.replay(op, results[0].output)
            if problems:
                fails[index] = problems
        return fails

    def inspect(self, op: Op, output: Any) -> Tuple[Any, List[str]]:
        """``(summary, failures)`` of one output: the cheap checks."""
        raise NotImplementedError

    def replay(self, op: Op, output: Any) -> List[str]:
        """Checks against a second implementation, once per operation."""
        return []

    # -------------------------------------------------------- traced only

    def probe(self, tracer) -> Dict[str, Any]:
        return {}

    def layers(self, tracer, rounds, probe) -> Dict[str, float]:
        return {}

    def counts(self, rounds) -> Dict[str, int]:
        return {}

    def after_round(self) -> None:
        """Off the clock, traced runs only: keep what the layers need."""


def _by_op(rounds, index: int) -> List[OpResult]:
    return [r[index] for r in rounds if r[index].error is None]


# ---------------------------------------------------------------------- #
# table1_exact


class Table1Exact(Workload):
    """The Table-1 algorithms at exact-mode sizes, one election per call."""

    name = "table1_exact"

    ROWS = (
        ("improved_tradeoff", {"ell": 3}),
        ("improved_tradeoff", {"ell": 5}),
        ("afek_gafni", {"ell": 4}),
        ("small_id", {"d": 8}),
        ("kutten16", {}),
        ("las_vegas", {}),
        ("adversarial_2round", {}),
    )
    ASYNC_ROWS = (("async_tradeoff", {}), ("async_afek_gafni", {}))

    def build(self, tracer) -> None:
        from repro.sweep import execute_spec

        n = 64 if self.smoke else 1024
        n_async = 32 if self.smoke else 512
        ids = tuple(self.rng.sample(range(1, 8 * n + 1), n))
        # small_id runs on a linear ID universe (g = 1): IDs are 1..n.
        linear_ids = tuple(self.rng.sample(range(1, n + 1), n))
        roots = tuple(sorted(self.rng.sample(range(n), math.isqrt(n))))
        async_ids = tuple(self.rng.sample(range(1, 8 * n_async + 1), n_async))
        for engine in ("sync", "fast"):
            for algorithm, params in self.ROWS:
                row_ids = linear_ids if algorithm == "small_id" else ids
                kwargs: Dict[str, Any] = {}
                if algorithm == "adversarial_2round":
                    kwargs["awake" if engine == "sync" else "roots"] = roots
                if engine == "fast":
                    kwargs["mode"] = "exact"
                spec = _spec(
                    tracer,
                    algorithm=algorithm,
                    n=n,
                    engine=engine,
                    seeds=(self.draw_seed(),),
                    params=params,
                    ids=row_ids,
                    **kwargs,
                )
                self._add(spec, engine, execute_spec)
        for algorithm, params in self.ASYNC_ROWS:
            spec = _spec(
                tracer,
                algorithm=algorithm,
                n=n_async,
                engine="async",
                seeds=(self.draw_seed(),),
                params=params,
                ids=async_ids,
            )
            self._add(spec, "async", execute_spec)

    def _add(self, spec, engine: str, execute_spec) -> None:
        label = ",".join(f"{k}={v}" for k, v in spec.params.items())
        self.ops.append(
            Op(
                name=f"{engine}:{spec.algorithm}({label})",
                layer="sweep.execute_spec",
                call=lambda spec=spec: execute_spec(spec),
                meta={"spec": spec, "engine": engine},
            )
        )

    def inspect(self, op: Op, records: Any) -> Tuple[Any, List[str]]:
        spec = op.meta["spec"]
        if len(records) != 1:
            return None, [f"{op.name}: {len(records)} records for one seed"]
        record = records[0]
        return summary(record), check_election(
            spec.algorithm, spec.params, spec.n, spec.ids, record
        )

    def replay(self, op: Op, records: Any) -> List[str]:
        if op.meta["engine"] != "fast":
            return []
        return self.replay_twin(op.meta["spec"], records[0])

    @staticmethod
    def replay_twin(spec, record) -> List[str]:
        """Rebuild the fast run and replay it on SyncNetwork over its ports."""
        from repro.analysis.runner import _fast_algorithm
        from repro.core.registry import get_algorithm
        from repro.fastsync import FastSyncNetwork
        from repro.sync.engine import SyncNetwork

        seed = spec.seeds[0]
        fast_net = FastSyncNetwork(
            spec.n, ids=spec.ids, seed=seed, mode="exact", roots=spec.roots
        )
        fast = fast_net.run(_fast_algorithm(spec.algorithm, spec.params))
        fails = compare_summaries(
            f"fast rebuild of {spec.algorithm}",
            (len(fast.leaders), fast.elected_id, fast.messages, float(fast.last_send_round)),
            summary(record),
        )
        obj = SyncNetwork(
            spec.n,
            get_algorithm(spec.algorithm).make(**spec.params),
            ids=spec.ids,
            seed=seed,
            awake=spec.roots,
            port_map=fast_net.port_map(),
        ).run()
        return fails + compare_twin(fast, obj)

    # ------------------------------------------------------------ traced

    def layers(self, tracer, rounds, probe) -> Dict[str, float]:
        """From the engine spans of the traced pass (see ``engine_spans``)."""
        spans = tracer.spans
        dispatch = self_times([s for s in spans if s.op is not None]).get("sweep.execute_spec")

        def walls(name, **match):
            return [
                s for s in spans
                if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
            ]

        def mean_ms(found):
            return 1e3 * statistics.mean(s.wall for s in found)

        sync_runs, async_runs = walls("sync.run"), walls("asyncnet.run")
        return {
            "sweep.dispatch_ms": 1e3 * dispatch["self_s"] / dispatch["count"],
            "sync.construct_ms": mean_ms(walls("sync.construct")),
            "sync.run_ms": mean_ms(sync_runs),
            "sync.msgs_per_s": sum(s.attrs["messages"] for s in sync_runs)
            / sum(s.wall for s in sync_runs),
            "asyncnet.construct_ms": mean_ms(walls("asyncnet.construct")),
            "asyncnet.events_per_s": sum(s.attrs["events"] for s in async_runs)
            / sum(s.wall for s in async_runs),
            "fastsync.construct_exact_ms": mean_ms(walls("fastsync.construct", mode="exact")),
        }

    def counts(self, rounds) -> Dict[str, int]:
        out = {"sync.messages": 0, "asyncnet.events": 0, "fastsync.messages": 0, "fastsync.rounds": 0}
        for result in rounds[0]:
            if result.error is not None:
                continue
            record = result.output[0]
            engine = self.ops[result.index].meta["engine"]
            if engine == "sync":
                out["sync.messages"] += record.messages
            elif engine == "async":
                out["asyncnet.events"] += record.extra["events"]
            else:
                out["fastsync.messages"] += record.messages
                out["fastsync.rounds"] += record.extra["rounds_executed"]
        return out


# ---------------------------------------------------------------------- #
# frontier_scale


class _CellListener:
    """Progress listener: per-cell wall times (and spans when traced)."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.walls: Dict[int, float] = {}
        self.first_start: Optional[float] = None

    def cell_start(self, cell) -> None:
        if self.first_start is None:
            self.first_start = time.perf_counter()

    def cell_finish(self, cell, wall: float, slot: int) -> None:
        now = time.perf_counter()
        self.walls[cell.index] = wall
        self.tracer.add("sweep.cell", now - wall, now, op=cell.index, slot=slot)


class _TimedMonitor:
    """Wraps a SweepMonitor so its ``observe_sweep`` gets a span."""

    def __init__(self, inner, tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def observe_sweep(self, specs, records) -> None:
        with self.tracer.span("monitor.observe_sweep"):
            self.inner.observe_sweep(specs, records)

    @property
    def violations(self):
        return self.inner.violations


class FrontierScale(Workload):
    """The messages-vs-rounds frontier at scale through ``sweep(workers=2)``."""

    name = "frontier_scale"
    ROUND_IS_ONE_CALL = True
    WORKERS = 2
    ROWS = (
        ("improved_tradeoff", {"ell": 3}),
        ("improved_tradeoff", {"ell": 5}),
        ("improved_tradeoff", {"ell": 9}),
        ("afek_gafni", {"ell": 4}),
        ("las_vegas", {}),
    )
    LANES = 8

    def build(self, tracer) -> None:
        singles = (2048, 4096) if self.smoke else (16384, 65536)
        batched = 1024 if self.smoke else 8192
        self.grid = []
        self.passes: List[Dict[str, Any]] = []
        for algorithm, params in self.ROWS:
            for n in singles:
                self.grid.append(
                    _spec(
                        tracer, algorithm=algorithm, n=n, engine="fast", mode="scale",
                        seeds=(self.draw_seed(),), params=params,
                    )
                )
            seeds = tuple(self.draw_seed() for _ in range(self.LANES))
            self.grid.append(
                _spec(
                    tracer, algorithm=algorithm, n=batched, engine="fast", mode="scale",
                    seeds=seeds, batch=self.LANES, params=params,
                )
            )
        for spec in self.grid:
            label = ",".join(f"{k}={v}" for k, v in spec.params.items())
            self.ops.append(
                Op(
                    name=f"cell:{spec.algorithm}({label})@{spec.n}x{len(spec.seeds)}",
                    layer="sweep.cell",
                    call=None,
                    meta={"spec": spec},
                )
            )

    def warmup(self) -> None:
        from repro.monitor import SweepMonitor
        from repro.sweep import sweep

        sweep([self.grid[0]], workers=self.WORKERS, monitor=SweepMonitor())

    def run_round(self, tracer=NULL_TRACER, pace=None) -> Tuple[List[OpResult], float]:
        """One ``sweep()`` over the grid; the kernel runs before and after it."""
        from repro.monitor import SweepMonitor
        from repro.sweep import sweep

        grid = self.grid
        monitor: Any = SweepMonitor()
        if tracer.enabled:
            grid = [dataclasses.replace(spec, profile=True) for spec in grid]
            monitor = _TimedMonitor(monitor, tracer)
        listener = _CellListener(tracer)
        kernels = [pace() for _ in range(3)] if pace else []
        before = lingering()
        start = time.perf_counter()
        try:
            with tracer.span("sweep.sweep"):
                records = sweep(
                    grid, workers=self.WORKERS, monitor=monitor, progress=listener
                )
        except Exception as exc:
            wall = time.perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
            return [OpResult(i, wall, None, error) for i in range(len(grid))], wall
        wall = time.perf_counter() - start
        left = _left_running(before)
        if left:
            return [OpResult(i, wall, None, left) for i in range(len(grid))], wall
        kernels += [pace() for _ in range(3)] if pace else []
        kernel = statistics.median(kernels) if pace else None
        self.last_pass = {
            "wall": wall,
            "first_cell": (listener.first_start or start) - start,
            "ipc_bytes": None,
            "grid": grid,
            "records": records,
        }
        results = []
        cursor = 0
        violations = [str(v) for v in monitor.violations]
        for index, spec in enumerate(grid):
            cell_records = records[cursor : cursor + len(spec.seeds)]
            cursor += len(spec.seeds)
            error = None
            if index not in listener.walls:
                error = "sweep reported no wall time for this cell"
            elif violations:
                error = f"SweepMonitor violations: {violations[:3]}"
            results.append(
                OpResult(
                    index, listener.walls.get(index, 0.0), cell_records, error, kernel
                )
            )
        return results, wall

    def inspect(self, op: Op, records: Any) -> Tuple[Any, List[str]]:
        spec = op.meta["spec"]
        if len(records) != len(spec.seeds):
            return None, [f"{op.name}: {len(records)} records for {len(spec.seeds)} seeds"]
        fails: List[str] = []
        for record in records:
            fails += check_election(spec.algorithm, spec.params, spec.n, None, record)
        return [summary(r) for r in records], fails

    # ------------------------------------------------------------ traced

    def probe(self, tracer) -> Dict[str, Any]:
        """Direct engine construction/run per grid spec, and lane speed-up."""
        from repro.analysis.runner import _fast_algorithm
        from repro.fastsync import FastSyncNetwork

        construct, run, seeds = [], [], 0
        single_s = batched_s = 0.0
        for index, spec in enumerate(self.grid):
            tracer.op = index
            batch = spec.batch is not None
            lane_kwargs = {"seeds": spec.seeds} if batch else {"seed": spec.seeds[0]}
            with tracer.span("fastsync.construct_scale") as c:
                net = FastSyncNetwork(spec.n, mode="scale", **lane_kwargs)
            with tracer.span("fastsync.run") as r:
                net.run(_fast_algorithm(spec.algorithm, spec.params))
            construct.append(c.wall)
            run.append(r.wall)
            seeds += len(spec.seeds)
            if batch:
                batched_s += c.wall + r.wall
                for seed in spec.seeds:
                    with tracer.span("fastsync.run_single_lane") as s:
                        FastSyncNetwork(spec.n, mode="scale", seed=seed).run(
                            _fast_algorithm(spec.algorithm, spec.params)
                        )
                    single_s += s.wall
        tracer.op = None
        return {
            "construct": construct,
            "run": run,
            "seeds": seeds,
            "lane_speedup": single_s / batched_s,
        }

    def layers(self, tracer, rounds, probe) -> Dict[str, float]:
        passes = self.passes
        phases = {"sampling": [], "scatter": [], "compaction": []}
        for p in passes:
            totals = dict.fromkeys(phases, 0.0)
            cursor = 0
            for spec in p["grid"]:
                profile = p["records"][cursor].extra.get("profile") or {}
                cursor += len(spec.seeds)
                for phase in totals:
                    totals[phase] += profile.get(phase, {}).get("total_s", 0.0)
            for phase, total in totals.items():
                phases[phase].append(total)
        busy = [
            sum(r.wall for r in rnd) / (self.WORKERS * p["wall"])
            for rnd, p in zip(rounds, passes)
        ]
        observe = [s.wall for s in tracer.named("monitor.observe_sweep")]
        return {
            "sweep.first_cell_s": _median([p["first_cell"] for p in passes]),
            "sweep.busy_frac": _median(busy),
            "sweep.ipc_bytes": _median([p["ipc_bytes"] for p in passes]),
            "fastsync.construct_scale_ms": 1e3 * statistics.mean(probe["construct"]),
            "fastsync.run_ms_per_seed": 1e3 * sum(probe["run"]) / probe["seeds"],
            "fastsync.sampling_s": _median(phases["sampling"]),
            "fastsync.scatter_s": _median(phases["scatter"]),
            "fastsync.compaction_s": _median(phases["compaction"]),
            "fastsync.lane_speedup": probe["lane_speedup"],
            "monitor.observe_ms": 1e3 * _median(observe),
        }

    def counts(self, rounds) -> Dict[str, int]:
        out = {"fastsync.messages": 0, "fastsync.rounds": 0}
        for result in rounds[0]:
            for record in result.output or ():
                out["fastsync.messages"] += record.messages
                out["fastsync.rounds"] += record.extra["rounds_executed"]
        return out

    def after_round(self) -> None:
        p = self.last_pass
        size = 0
        cursor = 0
        for spec in p["grid"]:
            cell = p["records"][cursor : cursor + len(spec.seeds)]
            cursor += len(spec.seeds)
            size += len(pickle.dumps(spec)) + len(pickle.dumps(cell))
        p["ipc_bytes"] = size
        self.passes.append(p)


# ---------------------------------------------------------------------- #
# faulted_fleet


FAULT_KINDS = ("drop", "duplicate", "partition", "crash")


class FaultedFleet(Workload):
    """Fault-injected elections and scenario drills on the fast engine."""

    name = "faulted_fleet"
    LANES = 8

    def fault_plan(self, kind: str, n: int):
        from repro.faults import CrashFault, FaultPlan, LinkFaults, PartitionMask

        if kind == "drop":
            return FaultPlan(links=(LinkFaults(drop_prob=0.05),))
        if kind == "duplicate":
            return FaultPlan(links=(LinkFaults(duplicate_prob=0.05),))
        if kind == "partition":
            nodes = list(range(n))
            self.rng.shuffle(nodes)
            half = n // 2
            return FaultPlan(
                partitions=(
                    PartitionMask(
                        components=(tuple(sorted(nodes[:half])), tuple(sorted(nodes[half:])))
                    ),
                )
            )
        victims = self.rng.sample(range(n), max(4, n // 256))
        return FaultPlan(
            crashes=tuple(CrashFault(node=u, at=self.rng.randint(2, 4)) for u in victims)
        )

    def build(self, tracer) -> None:
        from repro.faults import LinkFaults
        from repro.scenarios import get_scenario, run_scenario, run_scenario_batch
        from repro.sweep import execute_spec

        sizes = (256, 512) if self.smoke else (4096, 32768)
        n_scn = 128 if self.smoke else 4096
        n_batch = 64 if self.smoke else 512
        for n in sizes:
            ids = tuple(self.rng.sample(range(1, 8 * n + 1), n))
            for kind in FAULT_KINDS:
                plan = self.fault_plan(kind, n)
                spec = _spec(
                    tracer, algorithm="improved_tradeoff", n=n, engine="fast",
                    seeds=(self.draw_seed(),), params={"ell": 5}, ids=ids, faults=plan,
                )
                self.ops.append(
                    Op(
                        name=f"{kind}:improved_tradeoff(ell=5)@{n}",
                        layer="sweep.execute_spec",
                        call=lambda spec=spec: execute_spec(spec),
                        meta={"spec": spec, "kind": kind, "plan": plan},
                    )
                )
        scn_ids = tuple(self.rng.sample(range(1, 8 * n_scn + 1), n_scn))
        dup = (LinkFaults(duplicate_prob=0.05),)
        drills = [
            (dataclasses.replace(get_scenario(name, n_scn), link_faults=dup), {})
            for name in ("partition_heal", "rolling_restart", "election_storm")
        ]
        drills.append((get_scenario("flapping_leader", n_scn), {}))
        drills.append((get_scenario("slandered_leader", n_scn), {"quorum": True}))
        for scenario, config in drills:
            seed = self.draw_seed()
            self.ops.append(
                Op(
                    name=f"scenario:{scenario.name}@{n_scn}",
                    layer="scenarios.run_scenario",
                    call=lambda s=scenario, seed=seed, c=config: run_scenario(
                        s, n_scn, engine="fast", seed=seed, ids=scn_ids, **c
                    ),
                    meta={"scenario": scenario, "seeds": (seed,), "n": n_scn,
                          "ids": scn_ids, "config": config},
                )
            )
        scenario = get_scenario("partition_heal", n_batch)
        seeds = [self.draw_seed() for _ in range(self.LANES)]
        self.ops.append(
            Op(
                name=f"scenario_batch:partition_heal@{n_batch}x{self.LANES}",
                layer="scenarios.run_scenario_batch",
                call=lambda: run_scenario_batch(scenario, n_batch, seeds, engine="fast"),
                meta={"scenario": scenario, "seeds": tuple(seeds), "n": n_batch,
                      "batch": True},
            )
        )

    def elections(self, op: Op, output: Any) -> int:
        if "scenario" not in op.meta:
            return len(output)
        results = output if op.meta.get("batch") else [output]
        return sum(len(r.epochs) for r in results)

    def check(self, rounds):
        self._twins = self.replay_twins()
        return super().check(rounds)

    def replay_twins(self) -> Dict[str, List[str]]:
        """One small exact faulted run per fault kind, replayed on SyncNetwork."""
        from repro.analysis.runner import _fast_algorithm
        from repro.core.registry import get_algorithm
        from repro.fastsync import FastSyncNetwork
        from repro.sync.engine import SyncNetwork

        rng = random.Random(f"{self.name}:twins:{self.seed}")
        n = 256
        ids = rng.sample(range(1, 8 * n + 1), n)
        out = {}
        saved, self.rng = self.rng, rng
        try:
            for kind in FAULT_KINDS:
                plan = self.fault_plan(kind, n)
                seed = rng.randrange(2**31)
                fast_net = FastSyncNetwork(n, ids=ids, seed=seed, mode="exact", faults=plan)
                fast = fast_net.run(_fast_algorithm("improved_tradeoff", {"ell": 5}))
                obj = SyncNetwork(
                    n,
                    get_algorithm("improved_tradeoff").make(ell=5),
                    ids=ids,
                    seed=seed,
                    port_map=fast_net.port_map(),
                    faults=plan,
                ).run()
                out[kind] = [f"{kind} n={n}: {f}" for f in compare_twin(fast, obj)]
        finally:
            self.rng = saved
        return out

    @staticmethod
    def _scenario_face(results) -> List[tuple]:
        return [
            (r.final_leader_id, len(r.epochs), r.metrics.total_messages) for r in results
        ]

    def inspect(self, op: Op, output: Any) -> Tuple[Any, List[str]]:
        if "scenario" not in op.meta:
            record = output[0]
            return summary(record), check_fault_run(op.meta["kind"], op.meta["plan"], record)
        results = output if op.meta.get("batch") else [output]
        fails: List[str] = []
        for result in results:
            fails += check_scenario(op.meta["scenario"], result)
        return self._scenario_face(results), fails

    def replay(self, op: Op, output: Any) -> List[str]:
        if "scenario" not in op.meta:
            return self._twins[op.meta["kind"]]
        if not op.meta.get("batch"):
            return []
        from repro.scenarios import run_scenario

        sequential = [
            run_scenario(op.meta["scenario"], op.meta["n"], engine="fast", seed=s)
            for s in op.meta["seeds"]
        ]
        return compare_summaries(
            f"{op.name} batched vs per-seed",
            self._scenario_face(output),
            self._scenario_face(sequential),
        )

    # ------------------------------------------------------------ traced

    def probe(self, tracer) -> Dict[str, Any]:
        """Clean twins of the faulted specs, per-seed scenario runs."""
        from repro.scenarios import run_scenario
        from repro.sweep import execute_spec

        clean: Dict[int, float] = {}
        sequential = None
        for index, op in enumerate(self.ops):
            tracer.op = index
            if "spec" in op.meta:
                spec = dataclasses.replace(op.meta["spec"], faults=None)
                with tracer.span("probe.clean_execute_spec") as s:
                    execute_spec(spec)
                clean[index] = s.wall
            elif op.meta.get("batch"):
                n = op.meta["n"]
                with tracer.span("probe.per_seed_scenarios") as s:
                    for seed in op.meta["seeds"]:
                        run_scenario(op.meta["scenario"], n, engine="fast", seed=seed)
                sequential = s.wall
        tracer.op = None
        return {"clean": clean, "sequential": sequential}

    def layers(self, tracer, rounds, probe) -> Dict[str, float]:
        def median_wall(index):
            return statistics.median(r.wall for r in _by_op(rounds, index))

        replay, mask, rng_sends = [], [], 0
        for index, clean in probe["clean"].items():
            extra = median_wall(index) - clean
            if self.ops[index].meta["kind"] in ("drop", "duplicate"):
                replay.append(extra)
                rng_sends += rounds[0][index].output[0].messages
            else:
                mask.append(extra)
        acts = walls = 0.0
        batch_wall = None
        for index, op in enumerate(self.ops):
            if "scenario" not in op.meta:
                continue
            acts += rounds[0][index].elections
            walls += median_wall(index)
            if op.meta.get("batch"):
                batch_wall = median_wall(index)
        return {
            "fastsync.faults.replay_ms": 1e3 * statistics.mean(replay),
            "fastsync.faults.mask_ms": 1e3 * statistics.mean(mask),
            "fastsync.faults.sends_per_s": rng_sends / sum(replay),
            "scenarios.act_ms": 1e3 * walls / acts,
            "scenarios.batch_speedup": probe["sequential"] / batch_wall,
            # The n=512 acts: the only exact-mode engines this workload builds.
            "fastsync.construct_exact_ms": 1e3 * statistics.mean(
                span.wall for span in tracer.named("fastsync.construct")
                if span.op is not None and span.attrs.get("mode") == "exact"
            ),
        }

    def counts(self, rounds) -> Dict[str, int]:
        out = dict.fromkeys(
            ("fastsync.faults.dropped", "fastsync.faults.duplicated",
             "scenarios.acts", "scenarios.agreed_acts"),
            0,
        )
        for result in rounds[0]:
            if result.error is not None:
                continue
            op = self.ops[result.index]
            if "scenario" not in op.meta:
                metrics = result.output[0].extra["fault_metrics"]
                out["fastsync.faults.dropped"] += metrics.dropped_messages
                out["fastsync.faults.duplicated"] += metrics.duplicated_messages
                continue
            results = result.output if op.meta.get("batch") else [result.output]
            for r in results:
                out["scenarios.acts"] += len(r.epochs)
                out["scenarios.agreed_acts"] += sum(
                    e.concurrent_leaders == 1 and e.surviving_leader_id is not None
                    for e in r.epochs
                )
        return out


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (Table1Exact, FrontierScale, FaultedFleet)
}
