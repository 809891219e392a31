"""Run manifest: the reproducibility sidecar written next to traces.

A :class:`RunManifest` captures everything needed to interpret a trace
file later — what code produced it (git SHA, dirty flag), on what stack
(python / numpy / platform), with what configuration, and the metric
snapshot at export time.  ``Tracer.export_*`` writes one automatically
as ``<trace>.manifest.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["RunManifest"]


def _git_info() -> dict:
    """Best-effort ``{"sha": ..., "dirty": ...}``; never raises."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=here, capture_output=True, text=True, timeout=5,
        )
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=here, capture_output=True, text=True, timeout=5,
        )
        return {
            "sha": sha.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def _versions() -> dict:
    versions = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    np = sys.modules.get("numpy")
    if np is None:
        try:
            import numpy as np  # noqa: F811
        except ImportError:  # pragma: no cover - numpy is a hard dep
            np = None
    if np is not None:
        versions["numpy"] = np.__version__
    return versions


@dataclass
class RunManifest:
    """Config + git SHA + library versions + metric snapshot."""

    git: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    config: Optional[dict] = None
    metrics: Optional[dict] = None
    tracer_stats: Optional[dict] = None

    @classmethod
    def collect(
        cls,
        config: Optional[dict] = None,
        metrics: Optional[dict] = None,
        tracer_stats: Optional[dict] = None,
    ) -> "RunManifest":
        """Gather the environment; ``metrics=None`` snapshots the global
        registry (pass ``{}`` explicitly for an empty manifest)."""
        if metrics is None:
            from .metrics import get_registry

            metrics = get_registry().snapshot()
        return cls(
            git=_git_info(),
            versions=_versions(),
            config=config,
            metrics=metrics,
            tracer_stats=tracer_stats,
        )

    def as_dict(self) -> dict:
        return {
            "git": self.git,
            "versions": self.versions,
            "config": self.config,
            "metrics": self.metrics,
            "tracer_stats": self.tracer_stats,
        }

    def write(self, path) -> str:
        path = os.fspath(path)
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, default=str)
            fh.write("\n")
        return path

    def write_next_to(self, trace_path) -> str:
        """Write as ``<trace_path>.manifest.json`` and return that path."""
        return self.write(os.fspath(trace_path) + ".manifest.json")
