"""Tests for the checkpoint container and the resumable run plan."""

import json
import math
import shutil
import struct
import zlib

import pytest

from repro.noc.packet import Packet
from repro.sim import scaled_config
from repro.sim.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    ResumableRun,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
)
from repro.sim.simulator import Simulator


def small_config(**overrides):
    kwargs = dict(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=1_200,
        warmup_cycles=200,
    )
    kwargs.update(overrides)
    return scaled_config(**kwargs)


class TestContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        payload = {"numbers": [1, 2, 3], "nested": {"a": (4, 5)}}
        save_checkpoint(path, payload, {"design": "rl", "cycle": 42})
        restored, meta = load_checkpoint(path)
        assert restored == payload
        assert meta["design"] == "rl" and meta["cycle"] == 42

    def test_meta_readable_without_unpickle(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, object(), {"phase": "pretrain"})
        assert read_checkpoint_meta(path)["phase"] == "pretrain"

    def test_no_tmp_residue(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"x": 1}, {})
        save_checkpoint(path, {"x": 2}, {})
        leftovers = [p for p in tmp_path.iterdir() if p.name != "snap.ckpt"]
        assert leftovers == []
        assert load_checkpoint(path)[0] == {"x": 2}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint_meta(tmp_path / "nope.ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"x": 1}, {})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 10_000) + b"{}")
        with pytest.raises(CheckpointError, match="header cut short"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"x": 1}, {})
        blob = path.read_bytes()
        offset = len(CHECKPOINT_MAGIC)
        (header_len,) = struct.unpack_from("<I", blob, offset)
        start = offset + 4
        header = json.loads(blob[start:start + header_len])
        header["version"] = CHECKPOINT_VERSION + 1
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<I", len(raw)) + raw
            + blob[start + header_len:]
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_corrupt_body_fails_crc(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"x": 1}, {})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_unpicklable_body_rejected(self, tmp_path):
        # Valid container whose body is not a pickle: load must raise
        # CheckpointError, not a bare pickle exception.
        path = tmp_path / "snap.ckpt"
        body = b"this is not a pickle"
        header = json.dumps(
            {
                "version": CHECKPOINT_VERSION,
                "crc32": zlib.crc32(body) & 0xFFFFFFFF,
                "body_bytes": len(body),
                "meta": {},
            }
        ).encode("utf-8")
        path.write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header + body
        )
        with pytest.raises(CheckpointError, match="unpickle"):
            load_checkpoint(path)


class TestResumableRun:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        config = small_config()
        plain = ResumableRun(config, "rl", "swaptions", trace_cycles=300).run()
        ckpt = ResumableRun(
            config, "rl", "swaptions", trace_cycles=300,
            checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=75,
        ).run()
        assert ckpt == plain

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        """A snapshot taken mid-pretraining resumes to exactly the result
        an uninterrupted run produces — the tentpole determinism contract."""
        config = small_config()
        baseline = ResumableRun(config, "rl", "swaptions", trace_cycles=300).run()

        run = ResumableRun(
            config, "rl", "swaptions", trace_cycles=300,
            checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=75,
        )
        snapshots = []
        original_save = run.save

        def keep_copies(path=None):
            saved = original_save(path)
            copy = tmp_path / f"snap_{run.sim.network.now}.ckpt"
            if not copy.exists():
                shutil.copy(saved, copy)
                snapshots.append(copy)
            return saved

        run.save = keep_copies
        assert run.run() == baseline
        # Resume from an early and a late mid-run snapshot (fresh objects,
        # nothing shared with the original run instance).
        mid_run = [p for p in snapshots if not read_checkpoint_meta(p)["finished"]]
        assert len(mid_run) >= 2
        for snap in (mid_run[1], mid_run[-1]):
            resumed = ResumableRun.resume(
                snap, checkpoint_path=tmp_path / "scratch.ckpt",
                checkpoint_every=0,
            ).run()
            assert resumed == baseline

    def test_naive_snapshot_resumes_under_fast_kernel(self, tmp_path, monkeypatch):
        """A mode-1 (``arq_ecc``) run snapshotted mid-traffic under the
        naive kernel resumes under the fast kernel to exactly the
        uninterrupted result: both kernels keep the channel due lists
        exact, and resume re-resolves the kernel for its own process."""
        config = small_config(error_scale=4.0)
        baseline = ResumableRun(config, "arq_ecc", "canneal", trace_cycles=600).run()
        assert baseline.flit_retransmissions > 0  # ACK/NACK traffic ran

        monkeypatch.setenv("REPRO_NAIVE_KERNEL", "1")
        run = ResumableRun(
            config, "arq_ecc", "canneal", trace_cycles=600,
            checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=150,
        )
        assert run.sim.network.kernel == "naive"
        snapshots = []
        original_save = run.save

        def keep_copies(path=None):
            saved = original_save(path)
            activity = run.sim.network.activity
            if activity.sideband or activity.arrivals:
                copy = tmp_path / f"snap_{run.sim.network.now}.ckpt"
                shutil.copy(saved, copy)
                snapshots.append(copy)
            return saved

        run.save = keep_copies
        assert run.run() == baseline
        assert snapshots, "no snapshot caught traffic in flight"

        monkeypatch.delenv("REPRO_NAIVE_KERNEL")
        resumed = ResumableRun.resume(
            snapshots[len(snapshots) // 2],
            checkpoint_path=tmp_path / "scratch.ckpt", checkpoint_every=0,
        )
        assert resumed.sim.network.kernel == "fast"
        assert resumed.run() == baseline

    def test_snapshot_restores_packet_id_counter(self, tmp_path):
        """Packet ids come from a process-global counter; a snapshot must
        carry it so a resumed process cannot reissue ids that collide
        with the pickled in-flight packets' (regression test)."""
        config = small_config()
        run = ResumableRun(
            config, "rl", "swaptions", trace_cycles=300,
            checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=75,
        )

        class Stop(Exception):
            pass

        original_save = run.save

        def stop_after_first(path=None):
            original_save(path)
            raise Stop()

        run.save = stop_after_first
        with pytest.raises(Stop):
            run.run()
        payload, _ = load_checkpoint(tmp_path / "run.ckpt")
        assert payload["next_pid"] == Packet._next_pid
        # Simulate the fresh-process case: wind the counter back, resume,
        # and check the restore moved it forward again.
        Packet._next_pid = 0
        resumed = ResumableRun.resume(tmp_path / "run.ckpt", checkpoint_every=0)
        assert Packet._next_pid == payload["next_pid"]
        assert resumed.sim.network.now == run.sim.network.now

    def test_restore_packet_counter_never_regresses(self):
        before = Packet._next_pid
        Simulator.restore_packet_counter(before - 1 if before else None)
        assert Packet._next_pid == before
        Simulator.restore_packet_counter(None)
        assert Packet._next_pid == before

    def test_finished_snapshot_returns_stored_result(self, tmp_path):
        config = small_config(pretrain_cycles=0)
        run = ResumableRun(
            config, "crc", "swaptions", trace_cycles=300,
            checkpoint_path=tmp_path / "run.ckpt",
        )
        result = run.run()
        resumed = ResumableRun.resume(tmp_path / "run.ckpt")
        assert resumed.result == result
        assert resumed.run() == result

    def test_meta_describes_run(self, tmp_path):
        config = small_config(pretrain_cycles=0)
        ResumableRun(
            config, "crc", "swaptions", trace_cycles=300,
            checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=50,
        ).run()
        meta = read_checkpoint_meta(tmp_path / "run.ckpt")
        assert meta["design"] == "crc"
        assert meta["benchmark"] == "swaptions"
        assert meta["finished"] is True
        assert meta["checkpoint_every"] == 50
        assert meta["config"]["width"] == config.width

    def test_resume_inherits_checkpoint_cadence_from_meta(self, tmp_path):
        config = small_config(pretrain_cycles=0)
        run = ResumableRun(
            config, "crc", "swaptions", trace_cycles=300,
            checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=64,
        )
        run.save()
        resumed = ResumableRun.resume(tmp_path / "run.ckpt")
        assert resumed.checkpoint_every == 64
        overridden = ResumableRun.resume(tmp_path / "run.ckpt", checkpoint_every=7)
        assert overridden.checkpoint_every == 7

    def test_poisoned_q_table_degrades_to_safe_mode(self, tmp_path):
        """A snapshot whose stored Q-state is corrupt must resume with the
        affected routers pinned to safe mode, not crash."""
        config = small_config(pretrain_cycles=0)
        run = ResumableRun(
            config, "rl", "swaptions", trace_cycles=300,
            checkpoint_path=tmp_path / "run.ckpt",
        )
        run.save()
        payload, meta = load_checkpoint(tmp_path / "run.ckpt")
        agent_state = payload["policy_state"]["agents"][0]
        state_key = next(iter(agent_state["table"]), None)
        if state_key is None:
            agent_state["table"] = {(0,) * 5: [math.nan] * agent_state["num_actions"]}
        else:
            agent_state["table"][state_key][0] = math.nan
        save_checkpoint(tmp_path / "run.ckpt", payload, meta)

        resumed = ResumableRun.resume(tmp_path / "run.ckpt")
        assert resumed.sim.policy.safe_mode_routers
        assert resumed.sim.policy.safe_mode_events

    def test_non_run_checkpoint_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "other.ckpt", {"not": "a run"}, {})
        with pytest.raises(CheckpointError, match="not a run checkpoint"):
            ResumableRun.resume(tmp_path / "other.ckpt")
