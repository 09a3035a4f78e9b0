"""tools/event_census.py end to end, on one perf workload at 5 % size."""

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def census(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "event_census.py"), *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )


def test_a_small_run_prints_the_census():
    proc = census("--workload", "geo_wheat", "--scale", "0.05")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload geo_wheat  seed 0  scale 0.05"
    total = int(re.fullmatch(r"window events +(\d+)  over \d+ envelopes", lines[1])[1])
    assert lines[2].split(None, 1) == ["sim_*", "equal to an untraced run"]
    assert lines[3].split() == ["verify", "ok"]
    assert lines[4] == "events per callback:"
    assert lines[5].split() == ["events", "share", "callback"]
    guards = lines.index("no-op fires at the epoch guards:")
    rows = [line.split() for line in lines[6:guards]]
    counts = [int(events) for events, _share, _name in rows]
    assert sum(counts) == total and counts == sorted(counts, reverse=True)
    assert {name for _e, _s, name in rows} >= {"Network._deliver", "WorkloadEngine._tick"}
    assert lines[guards + 1].split() == ["fires", "no-op", "share", "callback"]
    fires = {name: (int(f), int(n)) for f, n, _share, name in map(str.split, lines[guards + 2:])}
    assert list(fires) == [
        "TimeToCutMachine._when_due",
        "SmartBFTNode._send_prepare",
        "SmartBFTNode._heartbeat_tick",
        "SmartBFTNode._watchdog_tick",
    ]
    # geo_wheat's blocks all fill by count: a superseded timer is
    # cancelled, so none fires at all
    assert fires["TimeToCutMachine._when_due"] == (0, 0)


def test_an_unknown_workload_is_a_usage_error():
    proc = census("--workload", "no_such_workload")
    assert proc.returncode == 2
    assert "unknown workload 'no_such_workload'" in proc.stderr
