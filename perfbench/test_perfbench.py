"""Self-test of the election benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

Every check is fed a planted wrong output (two leaders, a wrong round
count, a twin mismatch, a drop count far off its rule, a missing act) and
must report it; a planted output inside a real smoke-size round must be
counted as a failed operation.  Each workload also runs one smoke-size
round with zero failures.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    check_election,
    check_fault_run,
    check_scenario,
    compare_twin,
    expected_acts,
)
from run import score  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(**fields):
    base = dict(leaders=1, elected_id=64, time=3.0, messages=100, extra={})
    base.update(fields)
    return SimpleNamespace(**base)


IDS = list(range(1, 65))


def test_correct_record_passes():
    assert check_election("improved_tradeoff", {"ell": 3}, 64, IDS, record()) == []


def test_two_leaders_fail():
    fails = check_election("improved_tradeoff", {"ell": 3}, 64, IDS, record(leaders=2))
    assert any("2 leaders" in f for f in fails)
    fails = check_election("kutten16", {}, 64, IDS, record(leaders=2, time=2.0))
    assert fails


def test_wrong_winner_fails():
    fails = check_election("small_id", {"d": 8}, 64, IDS, record(elected_id=64, time=1.0))
    assert any("elected ID" in f for f in fails)


def test_wrong_round_count_fails():
    assert check_election("improved_tradeoff", {"ell": 3}, 64, IDS, record(time=4.0))
    assert check_election("afek_gafni", {"ell": 4}, 64, IDS, record(time=4.0))
    assert check_election("adversarial_2round", {}, 64, IDS, record(time=3.0))


def test_message_budget_fails():
    fails = check_election("las_vegas", {}, 64, IDS, record(messages=64 * 64))
    assert any("messages" in f for f in fails)


def _twin(**fields):
    base = dict(
        leaders=[3],
        leader_ids=[64],
        messages=10,
        rounds_executed=4,
        last_send_round=3,
        decided_count=64,
        messages_by_kind={"compete": 10},
        sends_by_round={1: 10},
        crashed=[],
        outputs=None,
        fault_metrics=None,
    )
    base.update(fields)
    return SimpleNamespace(**base)


def _object_twin(**fields):
    twin = _twin(**fields)
    twin.metrics = SimpleNamespace(
        messages_by_kind=twin.messages_by_kind, sends_by_round=twin.sends_by_round
    )
    return twin


def test_twin_mismatch_fails():
    assert compare_twin(_twin(), _object_twin()) == []
    assert any("messages" in f for f in compare_twin(_twin(), _object_twin(messages=11)))
    assert compare_twin(_twin(leaders=[3, 5]), _object_twin())
    outputs = [64] * 64
    planted = _twin(outputs=outputs)
    assert compare_twin(planted, _object_twin(outputs=[63] + outputs[1:]))


def _fault_record(**metrics):
    counts = dict(dropped_messages=0, duplicated_messages=0, partition_blocked=0)
    counts.update(metrics)
    return record(leaders=0, messages=100_000, extra={"fault_metrics": SimpleNamespace(**counts)})


def test_drop_count_far_off_fails():
    from repro.faults import FaultPlan, LinkFaults

    plan = FaultPlan(links=(LinkFaults(drop_prob=0.05),))
    assert check_fault_run("drop", plan, _fault_record(dropped_messages=5_000)) == []
    assert check_fault_run("drop", plan, _fault_record(dropped_messages=6_500))
    assert check_fault_run("drop", plan, _fault_record(dropped_messages=0))


def test_partition_and_crash_accounting():
    from repro.faults import CrashFault, FaultPlan, PartitionMask

    plan = FaultPlan(partitions=(PartitionMask(components=((0, 1), (2, 3))),))
    assert check_fault_run("partition", plan, _fault_record())
    crash = FaultPlan(crashes=(CrashFault(node=1, at=2), CrashFault(node=3, at=2)))
    good = _fault_record()
    good.extra["crashed"] = [1, 3]
    assert check_fault_run("crash", crash, good) == []
    good.extra["crashed"] = [1]
    assert check_fault_run("crash", crash, good)


def test_scenario_invariants():
    from repro.scenarios import get_scenario

    scenario = get_scenario("election_storm", 16)
    assert expected_acts(scenario) == 5
    assert expected_acts(get_scenario("partition_heal", 16)) == 3
    assert expected_acts(get_scenario("rolling_restart", 16)) == 4
    metrics = SimpleNamespace(final_agreed=True, split_brain_acts=0)
    ok = SimpleNamespace(metrics=metrics, epochs=[None] * 5)
    assert check_scenario(scenario, ok) == []
    assert check_scenario(scenario, SimpleNamespace(metrics=metrics, epochs=[None] * 4))
    split = SimpleNamespace(final_agreed=True, split_brain_acts=1)
    assert check_scenario(scenario, SimpleNamespace(metrics=split, epochs=[None] * 5))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_round_has_no_failures(name):
    workload = WORKLOADS[name](3, smoke=True)
    rounds = [workload.run_round()[0], workload.run_round()[0]]
    workload.settle(rounds[0], keep_outputs=True)
    workload.settle(rounds[1], keep_outputs=False)
    assert workload.check(rounds) == {}


def test_same_seed_same_inputs():
    a = WORKLOADS["faulted_fleet"](5, smoke=True)
    b = WORKLOADS["faulted_fleet"](5, smoke=True)
    assert [op.meta.get("spec") for op in a.ops] == [op.meta.get("spec") for op in b.ops]
    c = WORKLOADS["faulted_fleet"](6, smoke=True)
    assert [op.meta.get("spec") for op in a.ops] != [op.meta.get("spec") for op in c.ops]


def test_planted_output_counts_as_failed_operation():
    workload = WORKLOADS["table1_exact"](3, smoke=True)
    rounds = [workload.run_round()[0], workload.run_round()[0]]
    index = next(
        i for i, op in enumerate(workload.ops)
        if op.meta["engine"] == "fast" and op.meta["spec"].algorithm == "improved_tradeoff"
    )
    good = rounds[1][index].output[0]
    rounds[1][index].output = [dataclasses.replace(good, leaders=2)]
    workload.settle(rounds[0], keep_outputs=True)
    workload.settle(rounds[1], keep_outputs=False)
    fails = workload.check(rounds)
    assert list(fails) == [index]
    assert any("2 leaders" in text for text in fails[index])
    stats = score(workload, rounds, [1.0, 1.0], fails)
    assert stats["attempted"] == 2 * len(workload.ops)
    assert stats["failed"] == 2


def test_command_prints_one_result_line():
    import json
    import subprocess

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "faulted_fleet",
         "--seed", "4", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_reports_a_failed_operation_as_incorrect(monkeypatch, capsys):
    import json

    import run

    cls = WORKLOADS["faulted_fleet"]
    inspect = cls.inspect

    def planted(self, op, output):
        face, fails = inspect(self, op, output)
        if op is self.ops[0]:
            fails = fails + ["planted: 2 leaders"]
        return face, fails

    monkeypatch.setattr(cls, "inspect", planted)
    code = run.main(["--workload", "faulted_fleet", "--seed", "4", "--seconds", "1",
                     "--trace", "0", "--smoke"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_command_without_program_fails(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
