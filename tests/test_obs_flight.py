"""Flight recorder: mmap ring semantics, the per-process scope, stack dumps."""

import faulthandler
import json
import os
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.obs.flight import (
    DEFAULT_SLOTS,
    HEADER_SIZE,
    MAGIC,
    SLOT_SIZE,
    FlightRecorder,
    ProcessObs,
    append_stack_dump,
    dump_stacks,
    flight_paths,
    load_flight_dir,
    read_events,
    write_postmortem,
)
from repro.obs import Observer


class TestRing:
    def test_roundtrip(self, tmp_path):
        ring = FlightRecorder(tmp_path / "main.bin", slots=8)
        ring.record("sweep", "pubs=3", 1.0)
        ring.record("checkpoint", "gen 5", 5.0)
        events = ring.events()
        assert [e["kind"] for e in events] == ["sweep", "checkpoint"]
        assert events[0]["msg"] == "pubs=3"
        assert events[1]["value"] == 5.0
        assert events[0]["seq"] == 0
        assert ring.n_recorded == 2
        ring.close()

    def test_wrap_keeps_newest(self, tmp_path):
        ring = FlightRecorder(tmp_path / "r.bin", slots=4)
        for i in range(10):
            ring.record("sweep", value=float(i))
        events = ring.events()
        assert len(events) == 4
        assert [e["value"] for e in events] == [6.0, 7.0, 8.0, 9.0]
        assert [e["seq"] for e in events] == [6, 7, 8, 9]
        assert ring.n_recorded == 10
        ring.close()

    def test_file_size_is_header_plus_slots(self, tmp_path):
        ring = FlightRecorder(tmp_path / "r.bin", slots=16)
        ring.close()
        assert (tmp_path / "r.bin").stat().st_size == HEADER_SIZE + 16 * SLOT_SIZE

    def test_default_capacity(self, tmp_path):
        ring = FlightRecorder(tmp_path / "r.bin")
        assert ring.slots == DEFAULT_SLOTS
        ring.close()

    def test_readable_without_close(self, tmp_path):
        """The crash-survival property: events are readable from the
        file while the writer still holds the mapping (no flush)."""
        ring = FlightRecorder(tmp_path / "r.bin", slots=8)
        ring.record("stall", "w1", 2.5)
        events = read_events(tmp_path / "r.bin")
        assert events and events[0]["kind"] == "stall"
        ring.close()

    def test_mid_write_death_drops_at_most_newest(self, tmp_path):
        """Simulate a writer killed between slot write and cursor bump:
        the reader must decode the published prefix, never torn data."""
        ring = FlightRecorder(tmp_path / "r.bin", slots=8)
        ring.record("sweep", value=1.0)
        ring.close()
        raw = bytearray((tmp_path / "r.bin").read_bytes())
        # hand-write garbage into the *next* slot without bumping the cursor
        offset = HEADER_SIZE + 1 * SLOT_SIZE
        raw[offset : offset + SLOT_SIZE] = os.urandom(SLOT_SIZE)
        (tmp_path / "r.bin").write_bytes(raw)
        events = read_events(tmp_path / "r.bin")
        assert len(events) == 1 and events[0]["kind"] == "sweep"

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"\x00" * (HEADER_SIZE + SLOT_SIZE))
        with pytest.raises(ValueError, match="not a flight ring"):
            read_events(p)
        assert MAGIC not in p.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "short.bin"
        p.write_bytes(b"tiny")
        with pytest.raises(ValueError, match="too short"):
            read_events(p)

    def test_too_few_slots_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2 slots"):
            FlightRecorder(tmp_path / "r.bin", slots=1)

    def test_record_after_close_is_noop(self, tmp_path):
        ring = FlightRecorder(tmp_path / "r.bin", slots=4)
        ring.close()
        ring.record("sweep")  # must not raise
        assert ring.n_recorded == 0

    def test_non_ascii_truncated_not_fatal(self, tmp_path):
        ring = FlightRecorder(tmp_path / "r.bin", slots=4)
        ring.record("crash", "émoji ☃ and a very long message " * 4)
        (event,) = ring.events()
        assert len(event["msg"]) <= 36
        ring.close()

    def test_shared_epoch_aligns_rings(self, tmp_path):
        a = FlightRecorder(tmp_path / "a.bin", slots=4, epoch_unix=100.0)
        b = FlightRecorder(tmp_path / "b.bin", slots=4, epoch_unix=100.0)
        assert a.epoch == b.epoch == 100.0
        a.close()
        b.close()

    def test_survives_sigkill(self, tmp_path):
        """A child SIGKILLed mid-run leaves its recorded events readable."""
        ring_path = tmp_path / "w0.bin"
        code = textwrap.dedent(
            f"""
            import os, sys, time
            sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})
            from repro.obs.flight import FlightRecorder
            ring = FlightRecorder({str(ring_path)!r}, slots=64)
            for i in range(20):
                ring.record("sweep", f"i={{i}}", float(i))
            print("READY", flush=True)
            time.sleep(30)
            """
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True
        )
        assert proc.stdout.readline().strip() == "READY"
        proc.kill()
        proc.wait()
        events = read_events(ring_path)
        assert len(events) == 20
        assert events[-1]["value"] == 19.0


class TestLayout:
    def test_flight_paths_shape(self, tmp_path):
        paths = flight_paths(tmp_path, "w3")
        assert paths["ring"].name == "w3.bin"
        assert paths["stacks"].name == "stacks-w3.txt"
        assert paths["postmortem"].name == "postmortem-w3.json"
        assert paths["crashlog"].name == "crash-w3.log"
        assert paths["resources"].name == "resources-w3.jsonl"
        assert paths["samples"].name == "samples-w3.collapsed"
        assert all(p.parent == tmp_path / "flight" for p in paths.values())

    def test_load_flight_dir(self, tmp_path):
        for role in ("main", "w0"):
            ring = FlightRecorder(flight_paths(tmp_path, role)["ring"], slots=4)
            ring.record("sweep", role)
            ring.close()
        rings = load_flight_dir(tmp_path)
        assert set(rings) == {"main", "w0"}
        assert rings["w0"][0]["msg"] == "w0"

    def test_load_flight_dir_skips_unreadable(self, tmp_path):
        (tmp_path / "flight").mkdir()
        (tmp_path / "flight" / "bad.bin").write_bytes(b"nope")
        assert load_flight_dir(tmp_path) == {}

    def test_load_flight_dir_missing(self, tmp_path):
        assert load_flight_dir(tmp_path / "nothing") == {}


class TestStackDumps:
    def test_dump_stacks_contains_this_test(self):
        text = dump_stacks(note="unit")
        assert "unit" in text
        assert "test_dump_stacks_contains_this_test" in text
        assert f"pid={os.getpid()}" in text

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "stacks.txt"
        append_stack_dump(path, note="first")
        append_stack_dump(path, note="second")
        text = path.read_text()
        assert text.count("=== stack dump") == 2
        assert "(first)" in text and "(second)" in text


class TestPostmortemRecord:
    def test_write_postmortem_shape(self, tmp_path):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            path = write_postmortem(tmp_path, "w1", exc, resources={"rss_mb": 5.0})
        record = json.loads(path.read_text())
        assert record["role"] == "w1"
        assert record["pid"] == os.getpid()
        assert record["exception"]["type"] == "ValueError"
        assert record["exception"]["message"] == "boom"
        assert any("boom" in ln for ln in record["exception"]["traceback"])
        assert record["resources"] == {"rss_mb": 5.0}
        assert "test_write_postmortem_shape" in record["stacks"]


class TestCrashScope:
    def test_exception_writes_postmortem_and_reraises(self, tmp_path):
        with pytest.raises(RuntimeError, match="kaput"):
            with ProcessObs(tmp_path, "w0", flight=True):
                raise RuntimeError("kaput")
        record = json.loads(flight_paths(tmp_path, "w0")["postmortem"].read_text())
        assert record["exception"]["type"] == "RuntimeError"
        events = read_events(flight_paths(tmp_path, "w0")["ring"])
        assert events[-1]["kind"] == "crash"
        assert "kaput" in events[-1]["msg"]

    def test_clean_exit_writes_nothing(self, tmp_path):
        with ProcessObs(tmp_path, "w0", flight=True):
            pass
        assert not flight_paths(tmp_path, "w0")["postmortem"].exists()

    def test_hooks_restored_after_scope(self, tmp_path):
        before = sys.excepthook
        with ProcessObs(tmp_path, "w0", flight=True):
            assert sys.excepthook is not before
        assert sys.excepthook is before

    def test_child_without_out_is_inert(self):
        parent = ProcessObs(
            None, "main", flight=True, resources=True, stack_sample_s=0.005
        )
        with parent.child("w0") as child:
            assert (child.ring, child.resources, child.stacks, child.hooks) == (
                None,
                None,
                None,
                None,
            )


class TestSigusr1:
    def test_handler_dumps_stacks_and_records_event(self, tmp_path):
        proc = ProcessObs(tmp_path, "main", flight=True).start()
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            stacks = flight_paths(tmp_path, "main")["stacks"]
            assert stacks.exists()
            assert "SIGUSR1" in stacks.read_text()
            events = read_events(flight_paths(tmp_path, "main")["ring"])
            assert events[-1]["kind"] == "signal"
        finally:
            proc.close()

    def test_uninstall_restores_previous_handler(self, tmp_path):
        previous = signal.getsignal(signal.SIGUSR1)
        proc = ProcessObs(tmp_path, "main", flight=True).start()
        assert signal.getsignal(signal.SIGUSR1) is not previous
        proc.close()
        assert signal.getsignal(signal.SIGUSR1) is previous


def _process_state():
    return {
        "excepthook": sys.excepthook,
        "sigusr1": signal.getsignal(signal.SIGUSR1),
        "sigalrm": signal.getsignal(signal.SIGALRM),
        "itimer_real": signal.getitimer(signal.ITIMER_REAL),
        "faulthandler": faulthandler.is_enabled(),
    }


class TestObserverTeardown:
    @pytest.mark.parametrize("raises", [False, True])
    def test_finalized_observer_restores_process_state(self, tmp_path, raises):
        """Every hook, handler, timer and thread the observer's process
        scope starts is gone after finalize, whether the observed block
        ends cleanly or raises (which writes no parent post-mortem)."""
        before = _process_state()
        obs = Observer(
            out=tmp_path, flight=True, resources=True, stack_sample_s=0.005
        )
        try:
            with obs:
                time.sleep(0.02)
                if raises:
                    raise RuntimeError("observed block failed")
        except RuntimeError:
            assert raises
        assert _process_state() == before
        assert not [t.name for t in threading.enumerate() if t.name.startswith("obs-")]
        assert not flight_paths(tmp_path, "main")["postmortem"].exists()
        ring = read_events(flight_paths(tmp_path, "main")["ring"])
        assert ring[-1]["kind"] == "budget.done"


def test_event_struct_is_64_bytes():
    assert SLOT_SIZE == 64
    assert struct.calcsize("<d12s36sd") == 64
