"""Process facts read from ``/proc`` and host facts for every result."""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, List, Optional

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def peak_rss_mb(pid="self") -> float:
    """The process's resident-set high-water mark (VmHWM) in MiB, or 0
    when the process is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def _stat_fields(pid) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            text = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # the command name is parenthesized and may contain spaces
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pid) -> float:
    """User plus system CPU time the process has used so far."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # fields[0] is field 3 (state); utime/stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / _TICK


def is_repro(pid: int) -> bool:
    """Whether ``pid`` is alive and runs this repository's program."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"repro" in handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return False


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, found through parent links."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        for child, parent in parents.items():
            if parent == current:
                found.append(child)
                frontier.append(child)
    return sorted(found)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except FileNotFoundError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
