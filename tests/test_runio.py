import json
import os
import re

import numpy as np
import pytest

from epnls.runio import ManifestBuilder, atomic_write_text, write_csv


def test_curve_csv_round_trips_every_finite_double_bitwise(tmp_path):
    # signed zeros, the smallest subnormal and normal, the largest double,
    # and 1,000 random finite bit patterns
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, size=2000, dtype=np.uint64, endpoint=False)
    drawn = bits.view(np.float64)
    drawn = drawn[np.isfinite(drawn)][:1000]
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308, -1.7976931348623157e308])
    values = np.concatenate([edges, drawn, [0.0]])  # an even count
    assert len(drawn) == 1000
    table = values.reshape(-1, 2)
    path = tmp_path / "curve.csv"
    write_csv(str(path), ["t", "rho"], (tuple(map(float, row)) for row in table))
    header, *lines = path.read_text().splitlines()
    assert header == "t,rho"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert rows.tobytes() == table.tobytes()


def _walk_inventory(outdir):
    """The manifest's files as os.walk lists them: every file under outdir
    but the top-level manifest.json and .lock and any <name>.tmp.<pid>,
    each at its target's size, sorted by path."""
    inventory = []
    for root, _dirs, files in os.walk(outdir):
        for name in files:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, outdir)
            if rel in ("manifest.json", ".lock") or re.fullmatch(r".+\.tmp\.\d+", name):
                continue
            inventory.append({"path": rel, "bytes": os.path.getsize(full)})
    return sorted(inventory, key=lambda e: e["path"])


def test_manifest_lists_the_files_os_walk_lists(tmp_path):
    out = tmp_path / "out"
    files = {
        "curves/0123/delta=1.csv": b"t,rho\n0,0\n",
        "curves/0123/x.csv.tmp.123": b"partial",
        "curves/manifest.json": b"{}",  # only the top-level one is the manifest
        "a/b/c/deep.txt": b"x" * 1000,
        "a-b.txt": b"sorts before a/",
        "summary.json": b"{}",
        ".lock": b"123",
        "x.csv.tmp.123": b"partial",
        "empty": b"",
    }
    for rel, data in files.items():
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_bytes(data)
    (out / "no_files" / "at_all").mkdir(parents=True)
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "big.bin").write_bytes(b"y" * 5000)
    (out / "linked_dir").symlink_to(outside, target_is_directory=True)
    (out / "linked.csv").symlink_to(outside / "big.bin")

    for _ in range(2):  # the second run finds the first's manifest.json
        doc = ManifestBuilder(out, "hash", "0").write()
        expected = _walk_inventory(str(out))
        assert doc["files"] == expected
        assert json.loads((out / "manifest.json").read_text())["files"] == expected
    listed = {entry["path"]: entry["bytes"] for entry in expected}
    assert listed["linked.csv"] == 5000
    assert not any(path.startswith("linked_dir") for path in listed)
    assert len(listed) == 7


def test_atomic_write_text_makes_a_missing_parent(tmp_path):
    path = tmp_path / "new" / "deeper" / "f.txt"
    atomic_write_text(path, "one\n")
    assert path.read_text() == "one\n"
    assert os.listdir(path.parent) == ["f.txt"]


def test_atomic_write_text_overwrites_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "f.txt"
    atomic_write_text(str(path), "first, and longer\n")
    atomic_write_text(str(path), "second\n")
    assert path.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["f.txt"]


@pytest.mark.parametrize("text", [
    "t,rho\n0,0\n",
    "[output]\ncache_dir = /tmp/cach\u00e9/\u03b4=1/\u7f13\u5b58\n",
    "",
    "no final newline",
])
def test_atomic_write_text_writes_what_a_text_open_writes(tmp_path, text):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    atomic_write_text(ours, text)
    with open(theirs, "w") as fh:
        fh.write(text)
    assert ours.read_bytes() == theirs.read_bytes()
    assert os.stat(ours).st_mode == os.stat(theirs).st_mode
