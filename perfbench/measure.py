"""Measurement helpers shared by the workloads: timing summaries and RSS."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it.

    That is the ``TAIL_BEYOND + 1``-th largest sample, at percentile
    ``100 * (1 - TAIL_BEYOND / n)``.  With too few samples for any tail
    it falls back to the median (percentile 50).
    """
    n = len(values)
    if n <= 2 * TAIL_BEYOND:
        return median(values), 50.0, n
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (1 - TAIL_BEYOND / n), n


def _status_kb(pid: object, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (read from ``/proc``)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Peak resident set (``VmHWM``) of this process plus ``pids``, in MB."""
    total_kb = _status_kb("self", "VmHWM")
    for pid in pids:
        total_kb += _status_kb(pid, "VmHWM")
    return total_kb / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps an end-to-end metric name to its value; ``report``
    holds the workload's own named figures (printed, not in the result
    line); ``layer`` holds per-layer figures the workload computes from
    its results rather than from spans.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    report: List[Tuple[str, float, str, str]] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def note(self, name: str, value: float, unit: str, extra: str = "") -> None:
        self.report.append((name, value, unit, extra))

    def timing(self, name: str, seconds: Sequence[float]) -> None:
        """Record ``<name>_p50_ms`` and ``<name>_tail_ms`` in the report."""
        value, pct, n = tail(seconds)
        self.note(f"{name}_p50_ms", median(seconds) * 1000.0, "ms", f"n={n}")
        self.note(f"{name}_tail_ms", value * 1000.0, "ms", f"p{pct:.2f} n={n}")


def summarise(
    outcome: Outcome,
    *,
    setup_s: Sequence[float],
    batch_s: Sequence[float],
    ops: int,
    op_seconds: Sequence[float],
    busy_s: float,
    decided: int,
    decidable: int,
    rss_mb: Optional[float] = None,
) -> None:
    """Fill the end-to-end metrics every workload reports."""
    outcome.metrics.update(
        setup_s=median(setup_s),
        wall_s=median(batch_s),
        peak_rss_mb=rss_mb if rss_mb is not None else peak_rss_mb(),
        ops_per_s=ops / busy_s if busy_s > 0 else 0.0,
        op_p50_ms=median(op_seconds) * 1000.0,
        decided_share=decided / decidable if decidable else 0.0,
    )


