"""Atomic artifact writes (temp file + ``os.replace``).

The corruption these tests pin down: artifacts were written in place,
so a writer crashing mid-``json.dump`` (cancelled job) truncated the
destination, and two concurrent workers could interleave partial
writes.  Post-fix every writer goes through :mod:`repro.ioutil` and a
reader can only ever observe a complete payload.
"""

import json
import threading

import pytest

from repro.ioutil import atomic_write_json, atomic_write_text, atomic_write_with


def test_atomic_write_text_roundtrip(tmp_path):
    p = tmp_path / "artifact.json"
    atomic_write_text(p, '{"v": 1}\n')
    assert json.loads(p.read_text()) == {"v": 1}


def test_crash_mid_write_preserves_old_content(tmp_path):
    p = tmp_path / "artifact.json"
    atomic_write_json(p, {"v": 1})

    def boom(fh):
        fh.write('{"v": 2, "partial', )
        raise RuntimeError("writer died mid-stream")

    with pytest.raises(RuntimeError):
        atomic_write_with(p, boom)
    assert json.loads(p.read_text()) == {"v": 1}


def test_crash_leaves_no_temp_residue(tmp_path):
    p = tmp_path / "artifact.json"
    with pytest.raises(RuntimeError):
        atomic_write_with(p, lambda fh: (_ for _ in ()).throw(RuntimeError()))
    atomic_write_json(p, {"ok": True})
    assert sorted(f.name for f in tmp_path.iterdir()) == ["artifact.json"]


def test_unserializable_payload_aborts_without_touching_target(tmp_path):
    p = tmp_path / "artifact.json"
    atomic_write_json(p, {"v": 1})
    with pytest.raises(TypeError):
        atomic_write_json(p, {"bad": object()})
    assert json.loads(p.read_text()) == {"v": 1}


def test_concurrent_writers_never_expose_partial_file(tmp_path):
    """Many writers hammering one path; every read parses completely.

    With in-place writes this interleaves truncate+write windows; with
    temp+rename each observed file is exactly one writer's payload.
    """
    p = tmp_path / "shared.json"
    atomic_write_json(p, {"writer": -1, "fill": "x" * 4096})
    stop = threading.Event()
    errors = []

    def writer(wid):
        i = 0
        while not stop.is_set():
            atomic_write_json(p, {"writer": wid, "i": i, "fill": "x" * 4096})
            i += 1

    def reader():
        while not stop.is_set():
            try:
                doc = json.loads(p.read_text())
            except ValueError as exc:  # truncated/interleaved content
                errors.append(exc)
                return
            if set(doc) != {"writer", "fill"} and set(doc) != {
                "writer", "i", "fill",
            }:
                errors.append(AssertionError(f"mixed payload: {sorted(doc)}"))
                return

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    timer = threading.Timer(0.5, stop.set)
    timer.start()
    for t in threads:
        t.join()
    timer.cancel()
    assert not errors
    assert json.loads(p.read_text())["fill"] == "x" * 4096
    assert sorted(f.name for f in tmp_path.iterdir()) == ["shared.json"]


def test_manifest_export_crash_preserves_prior_manifest(tmp_path):
    """Pre-fix-failing case on a real writer: ``write_run_manifest``.

    A manifest export whose metadata turns out not to be
    JSON-serializable raises ``TypeError`` *mid-dump*.  In-place
    writing truncated the previously-exported manifest; the atomic
    writer leaves it byte-identical.
    """
    from repro.trace import Tracer
    from repro.trace.exporters import write_run_manifest

    class Clock:
        now = 0.0

    tr = Tracer(Clock())
    tr.add_finalizer(lambda: tr.counters.update(msgs=3))
    tr.finish()
    path = tmp_path / "run.manifest.json"
    write_run_manifest(tr, str(path), label="good")
    before = path.read_text()
    with pytest.raises(TypeError):
        write_run_manifest(tr, str(path), label="bad", poison=object())
    assert path.read_text() == before
    assert json.loads(before)["counters"]["msgs"] == 3

