"""One-call reproduction self-check.

``validate_reproduction()`` measures every headline number of the paper
on the simulator and reports paper-vs-measured with a pass/fail flag —
the distilled version of the benchmark suite, usable as a smoke test
after any modification to the device models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .microbench import bandwidth_of, rtt_of
from .report import format_table
from .timelines import figure3_timeline, figure4_timeline

__all__ = ["Claim", "validate_reproduction", "render_validation"]


@dataclass
class Claim:
    """One checkable paper claim."""

    name: str
    paper: float
    measured: float
    tolerance: float  # relative

    @property
    def passed(self) -> bool:
        if self.paper == 0:
            return abs(self.measured) <= self.tolerance
        return abs(self.measured - self.paper) / abs(self.paper) <= self.tolerance

    @property
    def deviation(self) -> float:
        return (self.measured - self.paper) / self.paper if self.paper else 0.0


def validate_reproduction(rounds: int = 4) -> List[Claim]:
    """Measure every headline number; returns the list of claims."""
    claims: List[Claim] = []

    def rtt(config: str, size: int) -> float:
        return rtt_of(config, size, rounds)

    claims.append(Claim("FE hub 40B RTT (us)", 57.0, rtt("hub", 40), 0.10))
    claims.append(Claim("FE FN100 40B RTT (us)", 91.0, rtt("fn100", 40), 0.10))
    claims.append(Claim("ATM 40B RTT (us)", 89.0, rtt("atm", 40), 0.10))
    claims.append(Claim("ATM 44B RTT, multi-cell (us)", 130.0, rtt("atm", 44), 0.15))
    claims.append(Claim("ATM 1500B RTT (us)", 351.0, rtt("atm", 1498), 0.12))
    claims.append(Claim("FE saturation bandwidth (Mb/s)", 96.5, bandwidth_of("hub", 1498), 0.05))
    claims.append(Claim("ATM peak bandwidth (Mb/s)", 118.0, bandwidth_of("atm", 1498), 0.08))
    claims.append(Claim("FE TX trap path (us)", 4.2, figure3_timeline().total, 0.02))
    # our receive spans include one trailing empty ring poll (0.52 us)
    claims.append(Claim("FE RX handler, 40B (us)", 4.1, figure4_timeline(40).total - 0.52, 0.06))
    claims.append(Claim("FE RX handler, 100B (us)", 5.6, figure4_timeline(100).total - 0.52, 0.06))
    # latency slopes (measured over the linear upper range)
    fe_slope = (rtt("hub", 1024) - rtt("hub", 128)) / 8.96
    claims.append(Claim("FE RTT slope (us/100B)", 25.0, fe_slope, 0.20))
    atm_slope = (rtt("atm", 1498) - rtt("atm", 44)) / 14.54
    claims.append(Claim("ATM RTT slope (us/100B)", 17.0, atm_slope, 0.20))
    return claims


def render_validation(claims: List[Claim]) -> str:
    rows = [
        (c.name, c.paper, c.measured, f"{c.deviation * 100:+.0f}%",
         "ok" if c.passed else "FAIL")
        for c in claims
    ]
    passed = sum(1 for c in claims if c.passed)
    return format_table(
        ("claim", "paper", "measured", "dev", ""),
        rows,
        title=f"Reproduction self-check: {passed}/{len(claims)} claims within tolerance",
    )
