"""Per-phase peak resident set size.

``ru_maxrss`` is a process-lifetime high-water mark: it never falls, so
it cannot tell one phase (a mine, one shard job of a long-lived worker)
from everything the process did before.  On Linux the kernel's
``VmHWM`` counter can be reset (``echo 5 > /proc/self/clear_refs``);
:func:`reset_peak_rss` does that and :func:`peak_rss_kb` reads the peak
since.  Elsewhere the reset is a no-op and the reading falls back to
``ru_maxrss``.
"""

from __future__ import annotations

import resource


def reset_peak_rss() -> bool:
    """Reset this process's VmHWM counter; ``False`` where that is impossible."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_kb() -> int:
    """Peak RSS in KB since the last :func:`reset_peak_rss` (Linux VmHWM)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


__all__ = ["peak_rss_kb", "reset_peak_rss"]
