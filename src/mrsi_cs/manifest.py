"""Run manifests: a reproducibility record written by every CLI command.

The manifest lists the resolved configuration, the seeds used, every
input and output file with its SHA-256 content hash, and wall-clock
timings per stage.  Re-running a command with the configuration and
seeds recorded here must reproduce the listed output hashes exactly.

``hashlib`` is imported on the first hash, not with the module: it
loads OpenSSL, a few MB that a command needs only once its work is
done, so they stay out of the peak memory of the stage itself.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable

from . import __version__
from .configio import write_json

__all__ = ["sha256_file", "write_manifest", "StageTimer"]

TOOL = "mrsi-cs"


def sha256_file(path: str | Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class StageTimer:
    """Accumulates named wall-clock durations."""

    def __init__(self):
        self.timings_s: dict[str, float] = {}
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.timings_s[stage] = round(now - self._mark, 6)
        self._mark = now


def write_manifest(
    outdir: str | Path,
    command: str,
    timings_s: dict,
    *,
    arguments: dict,
    inputs: Iterable[str | Path],
    outputs: Iterable[str | Path],
    config: dict | None = None,
    seeds: dict | None = None,
) -> None:
    """Hash every input and output file and write ``outdir/manifest.json``."""

    def entries(paths):
        return [{"path": str(p), "sha256": sha256_file(p)} for p in paths]

    doc = {
        "tool": TOOL,
        "version": __version__,
        "command": command,
        "arguments": arguments,
        "config": config or {},
        "seeds": seeds or {},
        "inputs": entries(inputs),
        "outputs": entries(outputs),
        "timings_s": timings_s,
    }
    write_json(Path(outdir) / "manifest.json", doc)
