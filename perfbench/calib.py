"""Calibration: the host's speed, measured next to every timed operation.

The host this was tuned on (2 shared cores) runs the same code at speeds up
to 1.8x apart, switching within milliseconds, in a mix that changes from
minute to minute.  A fixed step of plain Python that never touches the package
is timed PROBES times before every operation (and after the last); an
operation's time is scaled by REF_S over the mean of the steps just before and
just after it.  Scaled times read as seconds on a host where the step takes
REF_S, so two commits measured on one host at different moments compare.
"""

from __future__ import annotations

from fractions import Fraction

import inputs

PROBES = 3  # calibration steps before each operation and after the last
REF_S = 0.00025  # the step's time on the tuning host, about its median there
PROBE_GRAM = inputs.block_sum(inputs.parse_blocks("U+E6+A2"))[0]


def probe() -> None:
    """The calibration step: integer elimination, fractions and a dict."""
    inputs.determinant(PROBE_GRAM)
    total = Fraction(0)
    for i in range(1, 24):
        total += Fraction(i, i + 7)
    {(i, i % 7): i * i for i in range(200)}


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled by REF_S over the mean of the PROBES steps before and after it."""
    return [t * REF_S * 2 * PROBES / sum(probes[PROBES * i:PROBES * (i + 2)])
            for i, t in enumerate(times)]


def scaled_setup(setup: float, probes: list[float]) -> float:
    """A round's set-up time scaled by the steps that follow it."""
    return setup * REF_S * PROBES / sum(probes[:PROBES])
