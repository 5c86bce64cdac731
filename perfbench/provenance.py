"""Where a benchmark record came from: code, interpreter, libraries, machine."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Tuple


def _git(root: Path) -> Tuple[str, object]:
    """``(sha, dirty)`` of the checkout, or ``("unknown", None)`` outside git.

    Only a ``.git`` directly in ``root`` counts: a source tree copied out of
    git (no ``.git``) must not report the sha of some enclosing repository.
    """
    if not (root / ".git").exists():
        return "unknown", None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return sha, bool(status.strip())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def collect(root: Path) -> Dict[str, object]:
    """Provenance shared by every workload's record."""
    import networkx
    import numpy
    import scipy

    sha, dirty = _git(root)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
    }
