"""Output checks that do not rely on the program judging itself.

Every check returns a list of failure strings (empty = pass).  The
properties come from the paper's theorems (who wins, in how many rounds,
under which message budget), from fault-plan arithmetic, or from a second
implementation (the object engine replaying a fast-engine run on the same
port map).  No check compares against a stored copy of earlier output, so
a change that alters an RNG stream on purpose still passes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "MESSAGE_BOUNDS",
    "check_election",
    "check_fault_run",
    "check_scenario",
    "compare_summaries",
    "compare_twin",
    "expected_acts",
    "message_bound",
    "summary",
]

#: Per algorithm: (constant c, human-readable formula).  The bound checked
#: is ``c * formula(n, params)``; the README lists the same table.
MESSAGE_BOUNDS = {
    "improved_tradeoff": (1.0, "ell * n^(1 + 2/(ell+1))"),
    "afek_gafni": (1.0, "ell * n^(1 + 2/ell)"),
    "small_id": (1.0, "n * d * g"),
    "kutten16": (64.0, "sqrt(n) * ln(n)^(3/2)"),
    "las_vegas": (32.0, "n"),
    "adversarial_2round": (4.0, "n^(3/2) * ln(1/epsilon)"),
    "async_tradeoff": (8.0, "n^(1 + 1/k)"),
    "async_afek_gafni": (8.0, "n * ln(n)"),
}


def message_bound(algorithm: str, n: int, params: Dict[str, Any]) -> float:
    """``c * formula`` for one Table-1 row (see :data:`MESSAGE_BOUNDS`)."""
    c = MESSAGE_BOUNDS[algorithm][0]
    if algorithm == "improved_tradeoff":
        ell = params.get("ell", 3)
        return c * ell * n ** (1 + 2 / (ell + 1))
    if algorithm == "afek_gafni":
        ell = params.get("ell", 4)
        return c * ell * n ** (1 + 2 / ell)
    if algorithm == "small_id":
        return c * n * params["d"] * params.get("g", 1)
    if algorithm == "kutten16":
        return c * math.sqrt(n) * math.log(n) ** 1.5
    if algorithm == "las_vegas":
        return c * n
    if algorithm == "adversarial_2round":
        return c * n ** 1.5 * math.log(1 / params.get("epsilon", 0.05))
    if algorithm == "async_tradeoff":
        return c * n ** (1 + 1 / params.get("k", 2))
    if algorithm == "async_afek_gafni":
        return c * n * math.log(n)
    raise KeyError(algorithm)


def check_election(
    algorithm: str,
    params: Dict[str, Any],
    n: int,
    ids: Optional[Sequence[int]],
    record: Any,
) -> List[str]:
    """Theorem properties of one fault-free election record.

    ``record`` needs ``leaders`` (count), ``elected_id``, ``time`` (last
    send round, or async time) and ``messages``.
    """
    ids = range(1, n + 1) if ids is None else ids
    fails: List[str] = []
    leaders, rounds = record.leaders, record.time

    def need(cond: bool, text: str) -> None:
        if not cond:
            fails.append(f"{algorithm}: {text}")

    if algorithm in ("improved_tradeoff", "afek_gafni", "small_id"):
        need(leaders == 1, f"deterministic port elected {leaders} leaders")
        want = min(ids) if algorithm == "small_id" else max(ids)
        need(
            record.elected_id == want,
            f"elected ID {record.elected_id}, theorem says {want}",
        )
    if algorithm == "improved_tradeoff":
        need(rounds == params["ell"], f"{rounds} rounds, theorem says ell={params['ell']}")
    elif algorithm == "afek_gafni":
        want = params["ell"] + 1
        need(rounds == want, f"{rounds} rounds, theorem says ell+1={want}")
    elif algorithm == "small_id":
        cap = math.ceil(n / params["d"])
        need(rounds <= cap, f"{rounds} rounds > ceil(n/d)={cap}")
    elif algorithm in ("kutten16", "adversarial_2round"):
        need(rounds <= 2, f"{rounds} rounds > 2")
        need(leaders <= 1, f"{leaders} leaders")
    elif algorithm in ("las_vegas", "async_afek_gafni"):
        need(leaders == 1, f"{leaders} leaders, theorem says exactly one")
    elif algorithm == "async_tradeoff":
        need(leaders <= 1, f"{leaders} leaders")
    bound = message_bound(algorithm, n, params)
    need(
        record.messages <= bound,
        f"{record.messages} messages > {bound:.0f} "
        f"({MESSAGE_BOUNDS[algorithm][0]:g} * {MESSAGE_BOUNDS[algorithm][1]})",
    )
    return fails


def _within_sigmas(observed: int, trials: int, p: float, sigmas: float = 6.0) -> bool:
    sd = math.sqrt(trials * p * (1 - p))
    return abs(observed - p * trials) <= sigmas * sd


def check_fault_run(kind: str, plan: Any, record: Any) -> List[str]:
    """Fault accounting of one faulted election record.

    ``kind`` is ``drop``/``duplicate``/``partition``/``crash``; ``plan``
    the :class:`~repro.faults.FaultPlan` the run was given.  The single
    wildcard link rule sees every send, so its expected count is
    ``p * messages``; partition runs must block traffic; crash runs must
    crash exactly the scheduled nodes.  Safety holds under every fault:
    never more than one leader.
    """
    fails: List[str] = []
    metrics = record.extra.get("fault_metrics")
    if record.leaders > 1:
        fails.append(f"{kind}: {record.leaders} leaders")
    if metrics is None:
        return fails + [f"{kind}: run reported no fault metrics"]
    sends = record.messages
    if kind == "drop":
        p = plan.links[0].drop_prob
        if not _within_sigmas(metrics.dropped_messages, sends, p):
            fails.append(
                f"drop: {metrics.dropped_messages} dropped of {sends} sends, "
                f"expected {p * sends:.0f} +- 6 sigma"
            )
    elif kind == "duplicate":
        p = plan.links[0].duplicate_prob
        if not _within_sigmas(metrics.duplicated_messages, sends, p):
            fails.append(
                f"duplicate: {metrics.duplicated_messages} duplicated of {sends} "
                f"sends, expected {p * sends:.0f} +- 6 sigma"
            )
    elif kind == "partition":
        if metrics.partition_blocked <= 0:
            fails.append("partition: no send was blocked")
    elif kind == "crash":
        want = sorted(c.node for c in plan.crashes)
        got = sorted(record.extra.get("crashed") or [])
        if got != want:
            fails.append(f"crash: crashed {got[:8]}..., scheduled {want[:8]}...")
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return fails


def summary(record: Any) -> tuple:
    """The seed-deterministic face of a record, for equality checks."""
    return (record.leaders, record.elected_id, record.messages, record.time)


def compare_summaries(label: str, got: Any, want: Any) -> List[str]:
    if got == want:
        return []
    return [f"{label}: {got} != {want}"]


#: FaultMetrics fields two engines must agree on for the same plan.
_FAULT_FIELDS = (
    "crashes",
    "policy_kills",
    "suppressed_crashes",
    "dropped_messages",
    "duplicated_messages",
    "partition_blocked",
    "tampered_messages",
)


def compare_twin(fast: Any, obj: Any) -> List[str]:
    """Differences between a fast-engine result and its object replay."""
    fails: List[str] = []
    pairs = [
        ("leaders", fast.leaders, list(obj.leaders)),
        ("leader_ids", fast.leader_ids, list(obj.leader_ids)),
        ("messages", fast.messages, obj.messages),
        ("rounds_executed", fast.rounds_executed, obj.rounds_executed),
        ("last_send_round", fast.last_send_round, obj.last_send_round),
        ("decided_count", fast.decided_count, obj.decided_count),
        ("messages_by_kind", fast.messages_by_kind, dict(obj.metrics.messages_by_kind)),
        ("sends_by_round", fast.sends_by_round, dict(obj.metrics.sends_by_round)),
        ("crashed", list(fast.crashed), list(obj.crashed)),
    ]
    if fast.outputs is not None:
        pairs.append(("outputs", list(fast.outputs), list(obj.outputs)))
    if fast.fault_metrics is not None and obj.fault_metrics is not None:
        for name in _FAULT_FIELDS:
            pairs.append(
                (
                    f"fault_metrics.{name}",
                    getattr(fast.fault_metrics, name),
                    getattr(obj.fault_metrics, name),
                )
            )
    for name, a, b in pairs:
        if a != b:
            text = f"twin mismatch on {name}"
            if not isinstance(a, (list, dict)):
                text += f": fast {a} vs object {b}"
            fails.append(text)
    return fails


def expected_acts(scenario: Any) -> int:
    """Election acts a timeline implies under its membership policy.

    One initial act; one per ``elect``; a partition window adds its own
    act and the heal act; a crash of the sitting leader and each slander
    of it force a failover; joins and recoveries re-elect only under the
    ``membership_change`` policy.  In-act kill policies add no act.
    """
    from repro.scenarios import (
        LEADER,
        CrashEvent,
        ElectEvent,
        JoinEvent,
        PartitionEvent,
        RecoverEvent,
        SlanderEvent,
    )

    acts = 1
    membership = scenario.membership_policy == "membership_change"
    for ev in scenario.events:
        if isinstance(ev, ElectEvent):
            acts += 1
        elif isinstance(ev, PartitionEvent):
            acts += 2
        elif isinstance(ev, SlanderEvent):
            acts += 1
        elif isinstance(ev, CrashEvent) and (ev.node == LEADER or membership):
            acts += 1
        elif isinstance(ev, (JoinEvent, RecoverEvent)) and membership:
            acts += 1
    return acts


def check_scenario(scenario: Any, result: Any) -> List[str]:
    """Scenario invariants: agreement, no split brain, the implied acts."""
    fails: List[str] = []
    m = result.metrics
    name = scenario.name
    if not m.final_agreed:
        fails.append(f"{name}: did not end in agreement")
    if m.split_brain_acts != 0:
        fails.append(f"{name}: {m.split_brain_acts} split-brain acts")
    want = expected_acts(scenario)
    if len(result.epochs) != want:
        fails.append(f"{name}: {len(result.epochs)} acts, timeline implies {want}")
    return fails
