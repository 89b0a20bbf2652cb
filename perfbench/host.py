"""Host block: what a reader needs to attribute spread to the machine."""

from __future__ import annotations

import os
import platform


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_s() -> float:
    """Cumulative CPU steal of the whole host, in seconds (``/proc/stat``)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def load1() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def host_block(cpus: list[int], numpy: str) -> dict:
    """``numpy`` is the version the children import (the harness itself
    never imports NumPy, so its memory stays out of every measurement)."""
    return {
        "nproc": os.cpu_count(),
        "affinity": cpus,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
    }


class RepProbe:
    """Load average and CPU steal around one measured repetition."""

    def __init__(self) -> None:
        self.load_before = load1()
        self.steal0 = steal_s()

    def finish(self) -> dict:
        return {"load1_before": self.load_before, "load1_after": load1(),
                "steal_s": steal_s() - self.steal0}
