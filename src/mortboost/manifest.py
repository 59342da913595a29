"""Run manifests: one JSON per CLI run recording the resolved configuration,
input digests, outputs and warnings. No timestamps, so identical runs write
byte-identical manifests; no NaN or Infinity, which RFC 8259 JSON lacks."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def file_digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(
    out_dir,
    command: str,
    config: dict,
    inputs: list,
    outputs: list,
    warnings: list[str],
    extra: dict | None = None,
) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": command,
        "config": config,
        "inputs": {str(Path(p).name): file_digest(p) for p in inputs},
        "outputs": sorted(str(Path(p).name) for p in outputs),
        "warnings": list(warnings),
    }
    if extra:
        doc.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path
