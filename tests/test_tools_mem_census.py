"""tools/mem_census.py end to end, on one perf workload at 5 % size."""

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def census(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "mem_census.py"), *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )


def test_a_small_run_prints_the_census():
    proc = census("--workload", "lan_n4_fanout16_sat", "--scale", "0.05", "--top", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload lan_n4_fanout16_sat  seed 0  scale 0.05"
    figures = {}
    for line in lines[1:4]:
        name, value = re.fullmatch(r"(\S+(?: \S+)?) +([0-9.]+) MiB.*", line).groups()
        figures[name] = float(value)
    assert set(figures) == {"ru_maxrss", "traced current", "traced peak"}
    assert 0 < figures["traced current"] <= figures["traced peak"] < figures["ru_maxrss"]
    assert lines[4].split() == ["verify", "ok"]
    assert lines[5] == "top 5 allocation sites alive at exit:"
    assert lines[6].split() == ["MiB", "count", "B/item", "site"]
    check_sites(lines[7:12])
    # the same table at the sampled peak: the slice that ended highest
    sampled = re.fullmatch(
        r"top 5 allocation sites at the sampled peak, ([0-9.]+) MiB traced"
        r" after run (\d+) of (\d+):",
        lines[12],
    )
    assert sampled, lines[12]
    peak_mib, run, runs = float(sampled[1]), int(sampled[2]), int(sampled[3])
    assert 0 < peak_mib <= figures["traced peak"]
    assert 1 <= run <= runs
    assert lines[13].split() == ["MiB", "count", "B/item", "site"]
    check_sites(lines[14:19])
    # each phase's entering level and peak; the highest is the run's peak
    assert lines[19:21] == ["traced memory by phase:", "phase     entering      peak"]
    rows = [line.split() for line in lines[21:]]
    assert [row[0] for row in rows] == [
        "build", "warm-up", "window", "drain", "report", "verify"
    ]
    peaks = [float(row[2]) for row in rows]
    assert all(0 <= float(row[1]) <= float(row[2]) for row in rows)
    assert max(peaks) == figures["traced peak"] >= peak_mib
    marked = [row[0] for row in rows if row[3:] == ["<-", "the", "run's", "peak"]]
    assert marked == [rows[peaks.index(max(peaks))][0]]
    assert lines[3].endswith(f"(in {marked[0]})")


def check_sites(lines):
    """Five site rows, largest first."""
    rows = [line.split(None, 3) for line in lines]  # a site may hold a space
    assert len(rows) == 5
    sizes = []
    for mib, count, per_item, site in rows:
        assert int(count) > 0 and float(per_item) > 0 and re.search(r":\d+$", site)
        sizes.append(float(mib))
    assert sizes == sorted(sizes, reverse=True)


def test_an_unknown_workload_is_a_usage_error():
    proc = census("--workload", "no_such_workload")
    assert proc.returncode == 2
    assert "unknown workload 'no_such_workload'" in proc.stderr
