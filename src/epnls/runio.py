"""Small IO utilities: 17-digit float formatting, CSVs whose floats read
back bit-exactly by float(), atomic writes, run manifests, and
output-directory locking.  The curve cache's records are sweep's own
(epnls.sweep._write_cached)."""

from __future__ import annotations

import hashlib
import json
import os
import re
import time


_FLOAT = "%.17g"


def fmt(x):
    """Format a float with 17 significant digits (lossless roundtrip)."""
    return _FLOAT % float(x)


def atomic_write_text(path, text):
    """Write-then-rename so concurrent readers never see partial files."""
    path = str(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def sha256_hex(text):
    return hashlib.sha256(text.encode()).hexdigest()


def write_csv(path, header, rows):
    """One line per row: floats as fmt writes them, anything else by str.
    Each column keeps the type of its first row, so one %-template formats
    every line (curve files run to thousands of rows)."""
    lines = [",".join(header)]
    template = None
    for row in rows:
        if template is None:
            template = ",".join(_FLOAT if isinstance(v, float) else "%s" for v in row)
        lines.append(template % tuple(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


class OutputLock:
    """Exclusive ownership of an output directory via an O_EXCL lockfile."""

    def __init__(self, outdir):
        self.path = os.path.join(str(outdir), ".lock")
        self._fd = None

    def __enter__(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"output directory is locked by another run ({self.path}); "
                "remove the lockfile if that run is dead"
            ) from None
        os.write(self._fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            os.remove(self.path)
        return False


class ManifestBuilder:
    """Collects job statuses and the output-file inventory for a run."""

    def __init__(self, outdir, config_hash, tool_version):
        self.outdir = str(outdir)
        self.config_hash = config_hash
        self.tool_version = tool_version
        self.started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.jobs = []

    def add_job(self, name, status, detail=""):
        self.jobs.append({"name": name, "status": status, "detail": detail})

    def write(self):
        """Write manifest.json listing every file under the output directory
        (the manifest itself, the lockfile and temp files excluded)."""
        inventory = []
        for root, _dirs, files in os.walk(self.outdir):
            for name in sorted(files):
                full = os.path.join(root, name)
                rel = os.path.relpath(full, self.outdir)
                # atomic_write_text leaves <path>.tmp.<pid> if it is killed
                temp = re.fullmatch(r".+\.tmp\.\d+", name)
                if rel in ("manifest.json", ".lock") or temp:
                    continue
                inventory.append({"path": rel, "bytes": os.path.getsize(full)})
        inventory.sort(key=lambda e: e["path"])
        doc = {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "started_at": self.started_at,
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "jobs": self.jobs,
            "files": inventory,
        }
        atomic_write_text(
            os.path.join(self.outdir, "manifest.json"), json.dumps(doc, indent=2)
        )
        return doc
