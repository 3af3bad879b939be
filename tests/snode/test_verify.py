"""Failure-injection tests: the offline S-Node check catches storage
corruption, on its own (``verify_snode``) and as fsck's S-Node pass."""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
import cut_body  # noqa: E402

from repro.snode.encode import decode_intranode  # noqa: E402
from repro.snode.storage import (  # noqa: E402
    MANIFEST_NAME,
    POINTERS_NAME,
    QUARANTINE_NAME,
    read_layout,
)
from repro.snode.store import SNodeStore  # noqa: E402
from repro.snode.verify import verify_snode  # noqa: E402
from repro.storage import integrity  # noqa: E402
from repro.storage.fsck import fsck  # noqa: E402


@pytest.fixture()
def copy_of_build(small_build, tmp_path):
    target = tmp_path / "copy"
    shutil.copytree(small_build.root, target)
    return target


def problems(report) -> list[str]:
    return [finding.problem for finding in report.findings]


class TestCleanBuild:
    def test_fresh_build_verifies(self, small_build):
        report = verify_snode(small_build.root)
        assert report.ok, problems(report)
        assert report.graphs_checked > 0
        assert report.graphs_checked == report.regions_checked

    def test_fsck_runs_the_same_check(self, small_build):
        report = fsck(small_build.root)
        assert report.ok, problems(report)
        assert report.graphs_checked == verify_snode(small_build.root).graphs_checked


class TestCorruption:
    def test_missing_manifest(self, copy_of_build):
        (copy_of_build / MANIFEST_NAME).unlink()
        report = verify_snode(copy_of_build)
        assert not report.ok

    def test_missing_index_file(self, copy_of_build):
        manifest = json.loads((copy_of_build / MANIFEST_NAME).read_text())
        (copy_of_build / manifest["index_files"][0]).unlink()
        report = verify_snode(copy_of_build)
        assert not report.ok
        assert any("missing index file" in p for p in problems(report))

    def test_truncated_index_file(self, copy_of_build):
        manifest = json.loads((copy_of_build / MANIFEST_NAME).read_text())
        path = copy_of_build / manifest["index_files"][-1]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        report = verify_snode(copy_of_build)
        assert not report.ok

    def test_flipped_payload_bytes(self, copy_of_build):
        # Corrupt payload bits: decoding should fail or row counts break.
        manifest = json.loads((copy_of_build / MANIFEST_NAME).read_text())
        path = copy_of_build / manifest["index_files"][0]
        data = bytearray(path.read_bytes())
        for position in range(0, min(len(data), 400), 7):
            data[position] ^= 0xFF
        path.write_bytes(bytes(data))
        report = verify_snode(copy_of_build)
        assert not report.ok

    def test_corrupt_pageid_index(self, copy_of_build):
        path = copy_of_build / "pageid.bin"
        payload = bytearray(path.read_bytes())
        payload[0] = 0x7F  # first boundary != 0
        path.write_bytes(bytes(payload))
        report = verify_snode(copy_of_build)
        assert not report.ok

    def test_manifest_size_mismatch(self, copy_of_build):
        manifest = json.loads((copy_of_build / MANIFEST_NAME).read_text())
        manifest["payload_bytes"] += 1000
        (copy_of_build / MANIFEST_NAME).write_text(json.dumps(manifest))
        report = verify_snode(copy_of_build)
        assert not report.ok
        assert any("manifest says" in p for p in problems(report))


def swappable_superedges(layout) -> tuple[tuple, tuple]:
    """Two superedge graphs of one source stored with one polarity: the
    pointer records of either can point at the other's bytes and every
    region still passes its checksum and decodes to a sound shape."""
    for source, targets in enumerate(layout.super_adjacency):
        for first, second in zip(targets, targets[1:]):
            first, second = (source, first), (source, second)
            if layout.superedge[first][1] == layout.superedge[second][1]:
                return first, second
    raise AssertionError("no two superedge graphs of one source and polarity")


def test_swapped_regions_break_the_linear_order(copy_of_build):
    layout = read_layout(copy_of_build)
    first, second = swappable_superedges(layout)
    superedge = layout.superedge
    superedge[first], superedge[second] = superedge[second], superedge[first]
    cut_body.write_pointer_table(copy_of_build, layout)

    report = verify_snode(copy_of_build)
    assert not report.ok
    assert report.findings
    for finding in report.findings:
        assert finding.file == POINTERS_NAME
        assert "out of the linear order" in finding.problem
        assert not finding.region  # every region is sound where it lies
    assert report.graphs_checked == report.regions_checked
    assert problems(fsck(copy_of_build)) == problems(report)


def test_fsck_reports_cut_payloads_it_cannot_decode(copy_of_build):
    """An intranode payload and a superedge body cut short, each checksum
    recomputed: the region pass decodes them, reports each as a finding
    of its region and quarantines neither."""
    with SNodeStore(copy_of_build) as store:
        superedge, keep, _local = cut_body.breakable_superedge(store)
        cut_body.truncate_region(store, superedge, keep)
        supernode = cut_body.richest_intranode(store)
        location = store._layout.intranode[supernode]
        payload = cut_body.region(store, location)[: location.length // 2]
        with pytest.raises(Exception):
            decode_intranode(payload)
        store._layout.intranode[supernode] = dataclasses.replace(
            location, length=len(payload), crc=integrity.crc32(payload)
        )
        cut_body.write_pointer_table(copy_of_build, store._layout)

    cut = sorted([["intranode", supernode], ["superedge", *superedge]])
    report = fsck(copy_of_build)
    assert not report.ok
    assert sorted(f.region for f in report.findings if f.region) == cut
    for finding in report.findings:
        if finding.region:
            assert finding.problem.startswith("does not decode")

    repaired = fsck(copy_of_build, repair=True)
    assert repaired.repaired == []
    assert not (copy_of_build / QUARANTINE_NAME).exists()
    assert problems(repaired) == problems(report)


@pytest.mark.parametrize("damage", ["deleted", "cut"])
def test_fsck_reports_a_damaged_index_file_once(copy_of_build, damage):
    """fsck's file-table pass names a missing or resized index file; its
    S-Node pass adds no second finding for the file, nor the byte total
    the file throws off.  ``verify_snode`` alone still reports both."""
    name = read_layout(copy_of_build).index_files[0]
    path = copy_of_build / name
    if damage == "deleted":
        path.unlink()
    else:
        path.write_bytes(path.read_bytes()[:-3])
    report = fsck(copy_of_build)
    assert [f.problem for f in report.findings if f.file == name and not f.region] == [
        "missing" if damage == "deleted" else f"holds {path.stat().st_size} bytes, "
        f"manifest recorded {path.stat().st_size + 3}"
    ]
    assert not [f for f in report.findings if f.file == MANIFEST_NAME]
    alone = problems(verify_snode(copy_of_build))
    assert any("manifest says" in problem for problem in alone)
    if damage == "deleted":
        assert "missing index file" in alone
