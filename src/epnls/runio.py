"""Small IO utilities: 17-digit float formatting, CSVs whose floats read
back bit-exactly by float(), atomic writes, run manifests, and
output-directory locking.  The curve cache's records are sweep's own
(epnls.sweep._write_cached)."""

from __future__ import annotations

import hashlib
import json
import locale
import os
import re
import time


_FLOAT = "%.17g"
# atomic_write_text leaves <path>.tmp.<pid> if it is killed
_TEMP = re.compile(r".+\.tmp\.\d+")
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def fmt(x):
    """Format a float with 17 significant digits (lossless roundtrip)."""
    return _FLOAT % float(x)


def atomic_write_text(path, text):
    """Write-then-rename so concurrent readers never see partial files.
    The bytes are those open(path, "w") writes (the locale's encoding,
    newlines as os.linesep), written through one descriptor; the parent
    directory is made only when the temp file cannot be opened without."""
    path = str(path)
    if os.linesep != "\n":
        text = text.replace("\n", os.linesep)
    data = memoryview(text.encode(locale.getpreferredencoding(False)))
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
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


def _files(top, prefix):
    """(path, bytes) of every file under top that os.walk(top) lists, its
    path prefix + the names below top joined by os.sep and its size that
    of its target, temp files excluded.  As in os.walk, a symlinked
    directory is neither listed nor entered, and a directory that cannot
    be listed is skipped."""
    try:
        with os.scandir(top) as it:
            entries = list(it)
    except OSError:
        return
    for entry in entries:
        try:
            is_dir = entry.is_dir()
        except OSError:
            is_dir = False
        if not is_dir:
            if not _TEMP.fullmatch(entry.name):
                yield prefix + entry.name, entry.stat().st_size
        elif not entry.is_symlink():
            yield from _files(entry.path, prefix + entry.name + os.sep)


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
        inventory = [{"path": rel, "bytes": size}
                     for rel, size in _files(self.outdir, "")
                     if rel not in ("manifest.json", ".lock")]
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
