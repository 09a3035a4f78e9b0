"""Network topologies: the Gigabit LAN and the paper's AWS deployment.

Section 6.3 places ordering nodes in Oregon, Ireland, Sydney and São
Paulo (plus Virginia as WHEAT's fifth replica) and frontends in
Canada, Oregon, Virginia and São Paulo.  The round-trip times below
are representative public inter-region measurements for EC2 circa
2017 (milliseconds); one-way delay is RTT/2.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sim.network import ConstantLatency, MatrixLatency

#: The six regions of the paper's geo-distributed experiment.
AWS_REGIONS = ("oregon", "virginia", "canada", "saopaulo", "ireland", "sydney")

#: Representative inter-region RTTs in milliseconds.
AWS_RTT_MS: Dict[Tuple[str, str], float] = {
    ("oregon", "virginia"): 70.0,
    ("oregon", "canada"): 60.0,
    ("oregon", "saopaulo"): 180.0,
    ("oregon", "ireland"): 130.0,
    ("oregon", "sydney"): 160.0,
    ("virginia", "canada"): 25.0,
    ("virginia", "saopaulo"): 120.0,
    ("virginia", "ireland"): 75.0,
    ("virginia", "sydney"): 200.0,
    ("canada", "saopaulo"): 125.0,
    ("canada", "ireland"): 80.0,
    ("canada", "sydney"): 210.0,
    ("saopaulo", "ireland"): 185.0,
    ("saopaulo", "sydney"): 310.0,
    ("ireland", "sydney"): 280.0,
}

#: In-region (availability-zone) RTT, milliseconds.
AWS_LOCAL_RTT_MS = 1.0

#: One-way LAN latency of the Gigabit cluster, seconds.
LAN_ONE_WAY = 0.0001


def aws_oneway_seconds() -> Dict[Tuple[str, str], float]:
    """One-way delays (seconds) between all region pairs."""
    matrix: Dict[Tuple[str, str], float] = {}
    for (a, b), rtt in AWS_RTT_MS.items():
        matrix[(a, b)] = rtt / 2.0 / 1000.0
    for region in AWS_REGIONS:
        matrix[(region, region)] = AWS_LOCAL_RTT_MS / 2.0 / 1000.0
    return matrix


def aws_latency_model(jitter_fraction: float = 0.05) -> MatrixLatency:
    """The WAN latency model used by Figures 8 and 9."""
    return MatrixLatency(
        aws_oneway_seconds(),
        jitter_fraction=jitter_fraction,
        local_delay=AWS_LOCAL_RTT_MS / 2.0 / 1000.0,
    )


def lan_latency_model(jitter_fraction: float = 0.1) -> ConstantLatency:
    """The Gigabit-Ethernet cluster of section 6.2."""
    return ConstantLatency(LAN_ONE_WAY, jitter_fraction=jitter_fraction)
