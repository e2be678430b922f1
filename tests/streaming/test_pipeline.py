"""Pipeline accounting, checkpoint/resume, journal, exact-once ledger."""

import json

import pytest

from repro.errors import ConfigError
from repro.perf.checkpoint import CheckpointStore
from repro.perf.parallel import Shard
from repro.resilience.clock import ManualClock
from repro.resilience.faults import FaultPlan, StreamFaultSpec
from repro.streaming import (
    StreamConfig,
    StreamCounters,
    StreamJournal,
    StreamPipeline,
    StreamRecord,
    synthetic_stream,
)
from repro.streaming.pipeline import BoundedQueue, emissions_digest

SPEC = StreamFaultSpec(
    base_delay_s=2.0,
    reorder_rate=0.3,
    reorder_extra_s=25.0,
    duplicate_rate=0.08,
    duplicate_delay_s=8.0,
)


def deliveries_for(seed, duration_s=240.0, rate_per_s=6.0, spec=SPEC):
    records = synthetic_stream(
        seed=seed, duration_s=duration_s, rate_per_s=rate_per_s,
    )
    return FaultPlan(seed=seed).stream_faults("test", records, spec)


def ingest(pipeline, deliveries):
    for delivery in deliveries:
        gap = delivery.at_s - pipeline.clock.now()
        if gap > 0:
            pipeline.clock.advance(gap)
        pipeline.ingest(delivery.record)


def drive(pipeline, deliveries, start=0):
    ingest(pipeline, deliveries[start:])
    return pipeline.finish()


def ingest_until_epoch(pipeline, deliveries, epoch):
    """Ingest until ``epoch`` is committed; returns the crash index."""
    for i, delivery in enumerate(deliveries):
        if pipeline.counters.checkpoints >= epoch:
            return i
        ingest(pipeline, [delivery])
    raise AssertionError(f"stream ended before epoch {epoch}")


def epoch_file(root, epoch):
    return root / f"shard-{epoch:05d}.jsonl"


class TestLedger:
    def test_every_delivery_is_accounted_exactly_once(self):
        deliveries = deliveries_for(seed=21)
        result = drive(
            StreamPipeline(StreamConfig(seed=21), clock=ManualClock()),
            deliveries,
        )
        c = result.counters
        assert c["emitted"] == len(deliveries)
        assert c["emitted"] == (
            c["aggregated"] + c["late_dropped"]
            + c["late_side"] + c["deduped"]
        )
        assert c["deduped"] > 0  # the chaos spec guarantees duplicates

    def test_side_channel_policy_keeps_late_records(self):
        config = StreamConfig(
            seed=21, late_policy="side", allowed_lateness_s=5.0,
            dedup_horizon_s=5.0, reorder_capacity=8,
        )
        deliveries = deliveries_for(seed=21)
        pipeline = StreamPipeline(config, clock=ManualClock())
        result = drive(pipeline, deliveries)
        assert result.counters["late_dropped"] == 0
        assert result.counters["late_side"] == len(pipeline.side_channel)
        assert result.counters["late_side"] > 0

    def test_forced_flush_counts_overflow(self):
        config = StreamConfig(
            seed=21, reorder_capacity=4, allowed_lateness_s=60.0,
            dedup_horizon_s=60.0,
        )
        result = drive(
            StreamPipeline(config, clock=ManualClock()),
            deliveries_for(seed=21),
        )
        assert result.counters["forced_flushes"] > 0
        assert result.counters["emitted"] == (
            result.counters["aggregated"] + result.counters["late_dropped"]
            + result.counters["late_side"] + result.counters["deduped"]
        )

    def test_violation_raises(self):
        counters = StreamCounters(emitted=3, aggregated=2)
        with pytest.raises(ConfigError, match="exact-once ledger"):
            counters.check_exact_once()


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = drive(
            StreamPipeline(StreamConfig(seed=5), clock=ManualClock()),
            deliveries_for(seed=5),
        )
        b = drive(
            StreamPipeline(StreamConfig(seed=5), clock=ManualClock()),
            deliveries_for(seed=5),
        )
        assert a.digest == b.digest
        assert a.counters == b.counters
        assert a.change_points == b.change_points

    def test_different_seed_differs(self):
        a = drive(
            StreamPipeline(StreamConfig(seed=5), clock=ManualClock()),
            deliveries_for(seed=5),
        )
        b = drive(
            StreamPipeline(StreamConfig(seed=6), clock=ManualClock()),
            deliveries_for(seed=6),
        )
        assert a.digest != b.digest

    def test_backpressure_batching_does_not_change_results(self):
        """Tiny queues force constant drains; the digest must not move."""
        deliveries = deliveries_for(seed=9)
        roomy = drive(
            StreamPipeline(
                StreamConfig(seed=9, queue_capacity=512),
                clock=ManualClock(),
            ),
            deliveries,
        )
        cramped = drive(
            StreamPipeline(
                StreamConfig(seed=9, queue_capacity=2),
                clock=ManualClock(),
            ),
            deliveries,
        )
        assert cramped.counters["backpressure_waits"] > 0
        assert roomy.digest == cramped.digest
        assert roomy.change_points == cramped.change_points


class TestCheckpointResume:
    def test_crash_resume_converges_byte_identically(self, tmp_path):
        config = StreamConfig(seed=31, checkpoint_every_s=30.0)
        deliveries = deliveries_for(seed=31)

        uninterrupted = drive(
            StreamPipeline(
                config, clock=ManualClock(),
                checkpoint_dir=tmp_path / "a",
            ),
            deliveries,
        )

        # Crash at delivery 60%: drop the pipeline object on the floor,
        # resume from the latest epoch, replay from the cursor.
        crash_at = int(len(deliveries) * 0.6)
        pipeline = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=tmp_path / "b",
        )
        for delivery in deliveries[:crash_at]:
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record)
        resumed, cursor = StreamPipeline.resume(config, tmp_path / "b")
        assert 0 < cursor <= crash_at
        result = drive(resumed, deliveries, start=cursor)

        assert result.digest == uninterrupted.digest
        assert result.emissions == uninterrupted.emissions
        assert result.change_points == uninterrupted.change_points
        assert result.counters["resumes"] == 1
        for key, value in result.counters.items():
            if key != "resumes":
                assert value == uninterrupted.counters[key], key

    def test_resume_requires_a_checkpoint(self, tmp_path):
        with pytest.raises(ConfigError, match="no resumable checkpoint"):
            StreamPipeline.resume(StreamConfig(seed=1), tmp_path)

    def test_checkpoint_keyed_on_config_fingerprint(self, tmp_path):
        config = StreamConfig(seed=31, checkpoint_every_s=10.0)
        pipeline = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=tmp_path,
        )
        for delivery in deliveries_for(seed=31)[:200]:
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record)
        assert pipeline.counters.checkpoints > 0
        other = StreamConfig(seed=31, checkpoint_every_s=10.0, window_s=30.0)
        with pytest.raises(ConfigError, match="no resumable checkpoint"):
            StreamPipeline.resume(other, tmp_path)

    def test_resume_truncates_journal_to_checkpoint(self, tmp_path):
        """Crash after emissions were journaled but not checkpointed:
        resume rewrites the journal so nothing is re-emitted twice."""
        config = StreamConfig(seed=31, checkpoint_every_s=30.0)
        deliveries = deliveries_for(seed=31)
        journal_path = tmp_path / "journal.jsonl"

        journal = StreamJournal(journal_path)
        pipeline = StreamPipeline(
            config, clock=ManualClock(),
            checkpoint_dir=tmp_path / "ckpt", journal=journal,
        )
        crash_at = int(len(deliveries) * 0.6)
        for delivery in deliveries[:crash_at]:
            gap = delivery.at_s - pipeline.clock.now()
            if gap > 0:
                pipeline.clock.advance(gap)
            pipeline.ingest(delivery.record)

        journal2 = StreamJournal(journal_path)
        resumed, cursor = StreamPipeline.resume(
            config, tmp_path / "ckpt", journal=journal2,
        )
        result = drive(resumed, deliveries, start=cursor)

        journaled = StreamJournal(journal_path).recover()
        assert tuple(journaled) == result.emissions  # no dupes, no holes

    def test_finished_pipeline_rejects_ingest(self):
        pipeline = StreamPipeline(StreamConfig(seed=1), clock=ManualClock())
        pipeline.ingest(StreamRecord(
            event_time_s=1.0, source="t", metric="m", value=1.0,
        ))
        pipeline.finish()
        with pytest.raises(ConfigError):
            pipeline.ingest(StreamRecord(
                event_time_s=2.0, source="t", metric="m", value=1.0,
            ))


class TestDeltaCheckpoints:
    """Epochs hold bounded state plus log deltas; resume chains them."""

    def test_epoch_files_stop_growing_with_stream_age(self, tmp_path):
        config = StreamConfig(seed=41)
        pipeline = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=tmp_path,
        )
        drive(pipeline, deliveries_for(seed=41, duration_s=1800.0))
        late = pipeline.counters.checkpoints
        assert late >= 25
        # By epoch 4 (240 s) the lateness (30 s) and dedup horizon
        # (120 s) have filled, so the bounded state is at full size.
        early = epoch_file(tmp_path, 4).stat().st_size
        assert epoch_file(tmp_path, late).stat().st_size <= 1.5 * early

    @pytest.mark.parametrize("second_crash", [False, True])
    def test_corrupt_middle_epoch_falls_back_to_the_prefix(
        self, tmp_path, second_crash
    ):
        config = StreamConfig(seed=31, checkpoint_every_s=30.0)
        deliveries = deliveries_for(seed=31)
        uninterrupted = drive(
            StreamPipeline(
                config, clock=ManualClock(),
                checkpoint_dir=tmp_path / "a",
            ),
            deliveries,
        )

        root = tmp_path / "b"
        pipeline = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=root,
        )
        ingest(pipeline, deliveries[: int(len(deliveries) * 0.9)])
        newest = pipeline.counters.checkpoints
        middle = newest // 2
        assert middle >= 2
        raw = bytearray(epoch_file(root, middle).read_bytes())
        raw[len(raw) // 2] ^= 0x01
        epoch_file(root, middle).write_bytes(bytes(raw))

        resumed, cursor = StreamPipeline.resume(config, root)
        assert resumed.counters.checkpoints == middle - 1
        if second_crash:
            # Committing the replacement epoch retires the first run's
            # epochs above it, so this crash cannot chain onto them.
            ingest_until_epoch(resumed, deliveries[cursor:], middle)
            store = CheckpointStore(
                root, run_key=config.checkpoint_run_key()
            )
            assert store.completed_indices() == list(range(1, middle + 1))
            assert not epoch_file(root, middle + 1).exists()
            resumed, cursor = StreamPipeline.resume(config, root)
            assert resumed.counters.checkpoints == middle

        result = drive(resumed, deliveries, start=cursor)
        assert result.digest == uninterrupted.digest
        assert result.change_points == uninterrupted.change_points
        assert result.counters["resumes"] == 1 + second_crash
        for key, value in result.counters.items():
            if key != "resumes":
                assert value == uninterrupted.counters[key], key

    def test_an_earlier_runs_epochs_are_never_chained(self, tmp_path):
        """A fresh run over a directory holding another stream's epochs
        (same config) must not resume into them after its own crash."""
        config = StreamConfig(seed=31, checkpoint_every_s=30.0)
        ingest(
            StreamPipeline(
                config, clock=ManualClock(), checkpoint_dir=tmp_path,
            ),
            deliveries_for(seed=31),
        )
        deliveries = deliveries_for(seed=32)
        uninterrupted = drive(
            StreamPipeline(config, clock=ManualClock()), deliveries,
        )
        pipeline = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=tmp_path,
        )
        crash_at = ingest_until_epoch(pipeline, deliveries, 2)

        resumed, cursor = StreamPipeline.resume(config, tmp_path)
        assert resumed.counters.checkpoints == 2
        assert cursor <= crash_at
        result = drive(resumed, deliveries, start=cursor)
        assert result.digest == uninterrupted.digest
        assert result.change_points == uninterrupted.change_points

    def test_side_channel_survives_crash_resume(self, tmp_path):
        config = StreamConfig(
            seed=21, late_policy="side", allowed_lateness_s=5.0,
            dedup_horizon_s=5.0, reorder_capacity=8,
            checkpoint_every_s=30.0,
        )
        deliveries = deliveries_for(seed=21)
        plain = StreamPipeline(config, clock=ManualClock())
        drive(plain, deliveries)

        crashed = StreamPipeline(
            config, clock=ManualClock(), checkpoint_dir=tmp_path,
        )
        ingest(crashed, deliveries[: int(len(deliveries) * 0.6)])
        resumed, cursor = StreamPipeline.resume(config, tmp_path)
        assert 0 < len(resumed.side_channel) < len(plain.side_channel)
        drive(resumed, deliveries, start=cursor)

        def dump(pipeline):
            return "".join(
                json.dumps(r.to_dict(), sort_keys=True) + "\n"
                for r in pipeline.side_channel
            )

        assert dump(resumed) == dump(plain)

    def test_full_history_layout_is_refused(self, tmp_path):
        config = StreamConfig(seed=31, checkpoint_every_s=30.0)
        pipeline = StreamPipeline(config, clock=ManualClock())
        ingest(pipeline, deliveries_for(seed=31)[:500])
        pipeline.pump()
        # The earlier layout: one record per epoch carrying every log
        # in full, under the bare config fingerprint.
        legacy = pipeline.state_dict()
        legacy["epoch"] = 1
        legacy["emissions"] = [e.to_dict() for e in pipeline.emissions]
        legacy["side_channel"] = []
        legacy["detector"]["change_points"] = []
        CheckpointStore(tmp_path, run_key=config.fingerprint()).commit(
            Shard(index=1, start=0, stop=0), [legacy]
        )
        with pytest.raises(ConfigError, match="no resumable checkpoint"):
            StreamPipeline.resume(config, tmp_path)


class TestConfigAndQueue:
    def test_config_fingerprint_is_stable_json(self):
        a = StreamConfig(seed=1)
        b = StreamConfig(seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != StreamConfig(seed=2).fingerprint()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            StreamConfig(late_policy="teleport")
        with pytest.raises(ConfigError):
            StreamConfig(dedup_horizon_s=1.0, allowed_lateness_s=30.0)
        with pytest.raises(ConfigError):
            StreamConfig(reorder_capacity=0)

    def test_bounded_queue_overflow_is_an_error(self):
        q = BoundedQueue(capacity=2)
        q.push(1)
        q.push(2)
        assert q.full
        with pytest.raises(ConfigError):
            q.push(3)
        assert q.drain() == [1, 2]
        assert len(q) == 0

    def test_emissions_digest_is_order_sensitive(self):
        from repro.streaming.operators import Emission
        a = Emission(
            at_s=1.0, operator="o", metric="m", value=1.0, count=1,
            role="network",
        )
        b = Emission(
            at_s=2.0, operator="o", metric="m", value=2.0, count=1,
            role="network",
        )
        assert emissions_digest([a, b]) != emissions_digest([b, a])

    def test_result_summary_mentions_ledger_fields(self):
        result = drive(
            StreamPipeline(StreamConfig(seed=3), clock=ManualClock()),
            deliveries_for(seed=3, duration_s=120.0),
        )
        text = result.summary()
        assert "emitted=" in text and "digest=" in text
        json.dumps(result.counters)  # counters stay JSON-safe
