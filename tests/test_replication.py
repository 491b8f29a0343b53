"""Replication: WAL shipping, epoch fencing, failover, follower reads.

Covers the feed primitives (framed reads, byte-mirror appends, rotation
and torn-tail handling, pruned/diverged detection, bootstrap packaging),
epoch persistence through the replication state file and checkpoint
manifests, standby engines fed through the replay path, the HTTP
replication surface end to end (convergence, coherent ETags, 503
``not_writable`` rejections, promotion and fencing), the SDK's
``FailoverClient``, and the ``APIClient`` total retry deadline.
"""

from __future__ import annotations

import os
import socket
import time

import pytest

from repro.client.api import APIClient, APIError
from repro.client.failover import FailoverClient
from repro.client.resources import ReplicationClient, ViewsClient
from repro.durability import WriteAheadLog
from repro.durability.checkpoint import list_checkpoints, read_manifest
from repro.durability.faults import engine_state, state_differences
from repro.durability.manager import load_replication_state
from repro.engine import Engine
from repro.errors import EngineError, ReproError
from repro.replication import (
    ReplicationError,
    append_mirror_frames,
    count_lag,
    decode_frames,
    encode_frames,
    frame_payload,
    install_bootstrap,
    normalize_position,
    package_bootstrap,
    read_frames,
    wal_end_position,
)
from repro.serve import ReproServer, ServerConfig
from repro.workloads import MOVIE_SCHEMA, PAPER_MOVIES, movie_update_stream, related_query


# --------------------------------------------------------------------------- #
# Feed primitives
# --------------------------------------------------------------------------- #
class TestFeed:
    def _fill(self, wal_dir: str, payloads, segment_bytes: int = 1 << 20) -> None:
        wal = WriteAheadLog(wal_dir, fsync="batch", segment_bytes=segment_bytes)
        for payload in payloads:
            wal.append(payload)
            wal.sync()
        wal.close()

    def test_read_and_mirror_round_trip(self, tmp_path):
        source = str(tmp_path / "src")
        mirror = str(tmp_path / "dst")
        payloads = [b"alpha", b"", b"gamma" * 100]
        self._fill(source, payloads)
        chunk = read_frames(source, 1, 8)
        assert chunk.status == "ok"
        assert [frame_payload(raw) for _, _, raw in chunk.frames] == payloads
        end = append_mirror_frames(mirror, chunk.frames)
        assert end == wal_end_position(source) == wal_end_position(mirror)
        with open(os.path.join(source, os.listdir(source)[0]), "rb") as handle:
            original = handle.read()
        with open(os.path.join(mirror, os.listdir(mirror)[0]), "rb") as handle:
            assert handle.read() == original

    def test_mirror_redelivery_is_idempotent(self, tmp_path):
        source, mirror = str(tmp_path / "src"), str(tmp_path / "dst")
        self._fill(source, [b"one", b"two"])
        chunk = read_frames(source, 1, 8)
        first = append_mirror_frames(mirror, chunk.frames)
        again = append_mirror_frames(mirror, chunk.frames)
        assert first == again == wal_end_position(source)

    def test_mirror_rejects_gaps(self, tmp_path):
        source, mirror = str(tmp_path / "src"), str(tmp_path / "dst")
        self._fill(source, [b"one", b"two", b"three"])
        frames = read_frames(source, 1, 8).frames
        with pytest.raises(ReplicationError):
            append_mirror_frames(mirror, frames[2:])

    def test_tail_across_rotation_boundary(self, tmp_path):
        """A subscriber polling ``next`` positions crosses sealed segments
        without skipping or duplicating a record."""
        source = str(tmp_path / "src")
        payloads = [bytes([65 + i]) * 40 for i in range(8)]
        self._fill(source, payloads, segment_bytes=64)
        segment, offset = 1, 8
        collected = []
        for _ in range(50):
            chunk = read_frames(source, segment, offset, max_bytes=64)
            assert chunk.status == "ok"
            collected.extend(frame_payload(raw) for _, _, raw in chunk.frames)
            if not chunk.frames:
                break
            segment, offset = chunk.next
        assert collected == payloads
        # Parked one past the newest segment: still "ok", nothing to ship.
        parked = read_frames(source, segment, offset)
        assert parked.status == "ok" and parked.frames == []

    def test_position_at_sealed_eof_normalizes_forward(self, tmp_path):
        source = str(tmp_path / "src")
        self._fill(source, [b"x" * 48] * 4, segment_bytes=64)
        segments = sorted(
            int(name.split("-")[1].split(".")[0]) for name in os.listdir(source)
        )
        first_size = os.path.getsize(
            os.path.join(source, f"wal-{segments[0]:08d}.log")
        )
        assert normalize_position(source, segments[0], first_size) == (
            segments[0] + 1,
            8,
        )

    def test_torn_tail_is_not_served(self, tmp_path):
        source = str(tmp_path / "src")
        self._fill(source, [b"whole", b"torn-away"])
        path = os.path.join(source, sorted(os.listdir(source))[-1])
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        chunk = read_frames(source, 1, 8)
        assert chunk.status == "ok"
        assert [frame_payload(raw) for _, _, raw in chunk.frames] == [b"whole"]

    def test_pruned_and_diverged_statuses(self, tmp_path):
        source = str(tmp_path / "src")
        self._fill(source, [b"x" * 48] * 4, segment_bytes=64)
        oldest = sorted(os.listdir(source))[0]
        os.unlink(os.path.join(source, oldest))
        assert read_frames(source, 1, 8).status == "pruned"
        newest = max(
            int(name.split("-")[1].split(".")[0]) for name in os.listdir(source)
        )
        assert read_frames(source, newest + 7, 8).status == "diverged"

    def test_count_lag_and_wire_codec(self, tmp_path):
        source = str(tmp_path / "src")
        self._fill(source, [b"aa", b"bb", b"cc"])
        records, lag_bytes = count_lag(source, (1, 8))
        assert records == 3 and lag_bytes > 0
        assert count_lag(source, wal_end_position(source)) == (0, 0)
        frames = read_frames(source, 1, 8).frames
        assert decode_frames(encode_frames(frames)) == frames
        corrupted = encode_frames(frames)
        import base64

        raw = bytearray(base64.b64decode(corrupted[0]["data"]))
        raw[-1] ^= 0xFF
        corrupted[0]["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        with pytest.raises(ReplicationError):
            decode_frames(corrupted)
        # A bad CRC on the last frame: the feed never ships it, so the lag
        # reported from where the feed stops must not count it either.
        path = os.path.join(source, sorted(os.listdir(source))[-1])
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        chunk = read_frames(source, 1, 8)
        assert [frame_payload(raw) for _, _, raw in chunk.frames] == [b"aa", b"bb"]
        assert count_lag(source, chunk.next) == (0, 0)
        assert count_lag(source, (1, 8)) == (2, chunk.next[1] - 8)


# --------------------------------------------------------------------------- #
# Epochs, fencing, promotion (engine level)
# --------------------------------------------------------------------------- #
class TestEpochs:
    def test_epoch_persists_across_reopen(self, tmp_path):
        data_dir = str(tmp_path / "db")
        engine = Engine(data_dir=data_dir)
        engine.set_replication_epoch(3)
        engine.close()
        reopened = Engine(data_dir=data_dir)
        try:
            assert reopened.replication_epoch == 3
            assert load_replication_state(data_dir)["epoch"] == 3
        finally:
            reopened.close()

    def test_epoch_never_lowers(self, tmp_path):
        engine = Engine(data_dir=str(tmp_path / "db"))
        try:
            engine.set_replication_epoch(5)
            engine.set_replication_epoch(2)
            assert engine.replication_epoch == 5
        finally:
            engine.close()

    def test_checkpoint_manifest_floors_epoch(self, tmp_path):
        data_dir = str(tmp_path / "db")
        engine = Engine(data_dir=data_dir)
        engine.dataset("M", MOVIE_SCHEMA, rows=PAPER_MOVIES)
        engine.set_replication_epoch(4)
        engine.checkpoint()
        engine.close()
        _, newest = list_checkpoints(os.path.join(data_dir, "checkpoints"))[-1]
        assert read_manifest(newest)["epoch"] == 4
        # Even with the state file gone, the manifest keeps the epoch floor.
        os.unlink(os.path.join(data_dir, "replication.json"))
        reopened = Engine(data_dir=data_dir)
        try:
            assert reopened.replication_epoch == 4
        finally:
            reopened.close()

    def test_fence_and_promote_writable_round_trip(self, tmp_path):
        data_dir = str(tmp_path / "db")
        engine = Engine(data_dir=data_dir)
        engine.dataset("M", MOVIE_SCHEMA, rows=PAPER_MOVIES)
        engine.fence(7, "superseded in test")
        assert engine.read_only and engine.replication_epoch == 7
        with pytest.raises(ReproError):
            engine.dataset("N", MOVIE_SCHEMA)
        engine.close()
        # Fencing survives a restart ...
        fenced = Engine(data_dir=data_dir)
        assert fenced.read_only
        # ... and promote_writable is its lifecycle-locked inverse.
        version = fenced.promote_writable(epoch=8)
        assert version == fenced.state_version
        assert fenced.read_only is None and fenced.replication_epoch == 8
        for update in movie_update_stream(1, batch_size=1, existing=PAPER_MOVIES):
            fenced.apply(update)
        fenced.close()
        healthy = Engine(data_dir=data_dir)
        try:
            assert healthy.read_only is None
            assert healthy.state_version == version + 1
        finally:
            healthy.close()

    def test_promote_rejected_mid_replay_and_when_closed(self, tmp_path):
        engine = Engine(data_dir=str(tmp_path / "db"))
        engine._durability.replaying = True
        with pytest.raises(EngineError, match="replay"):
            engine.promote_writable()
        engine._durability.replaying = False
        engine.close()
        with pytest.raises(EngineError, match="closed"):
            engine.promote_writable()


# --------------------------------------------------------------------------- #
# Standby engines: mirror + replay-path applies
# --------------------------------------------------------------------------- #
class TestStandby:
    def _drive(self, engine: Engine, updates: int = 3) -> None:
        engine.dataset("M", MOVIE_SCHEMA, rows=PAPER_MOVIES)
        engine.view("related", related_query(), strategy="nested")
        for update in movie_update_stream(
            updates, batch_size=2, existing=PAPER_MOVIES
        ):
            engine.apply(update)

    def test_shipping_into_a_standby_reaches_the_same_state(self, tmp_path):
        primary_dir = str(tmp_path / "primary")
        replica_dir = str(tmp_path / "replica")
        primary = Engine(data_dir=primary_dir, fsync="always")
        self._drive(primary)
        primary_wal = os.path.join(primary_dir, "wal")
        replica_wal = os.path.join(replica_dir, "wal")
        chunk = read_frames(primary_wal, 1, 8)
        append_mirror_frames(replica_wal, chunk.frames)
        standby = Engine(data_dir=replica_dir, standby=True)
        assert standby.standby
        problems = state_differences(engine_state(primary), engine_state(standby))
        assert problems == []
        # Incremental tail: ship the next ops through the replay path.
        for update in movie_update_stream(2, batch_size=1, seed=99):
            primary.apply(update)
        tail = read_frames(primary_wal, *chunk.next)
        append_mirror_frames(replica_wal, tail.frames)
        for _, _, raw in tail.frames:
            standby.apply_replicated(frame_payload(raw))
        assert state_differences(engine_state(primary), engine_state(standby)) == []
        primary.close()
        standby.close()

    def test_bootstrap_package_round_trip(self, tmp_path):
        primary_dir = str(tmp_path / "primary")
        replica_dir = str(tmp_path / "replica")
        primary = Engine(data_dir=primary_dir, fsync="always")
        self._drive(primary, updates=2)
        primary.checkpoint()
        # Post-checkpoint tail the bootstrap does NOT cover.
        for update in movie_update_stream(2, batch_size=1, seed=51):
            primary.apply(update)
        bootstrap = package_bootstrap(os.path.join(primary_dir, "checkpoints"))
        assert bootstrap is not None and bootstrap["files"]
        install_bootstrap(replica_dir, bootstrap)
        # The seeded mirror resumes exactly where the checkpoint stream does.
        assert wal_end_position(os.path.join(replica_dir, "wal")) == (
            bootstrap["wal_start_segment"],
            8,
        )
        standby = Engine(data_dir=replica_dir, standby=True)
        assert standby.state_version == bootstrap["state_version"]
        tail = read_frames(
            os.path.join(primary_dir, "wal"), bootstrap["wal_start_segment"], 8
        )
        append_mirror_frames(os.path.join(replica_dir, "wal"), tail.frames)
        for _, _, raw in tail.frames:
            standby.apply_replicated(frame_payload(raw))
        assert state_differences(engine_state(primary), engine_state(standby)) == []
        primary.close()
        standby.close()


# --------------------------------------------------------------------------- #
# HTTP: converge, follower reads, promote, fence
# --------------------------------------------------------------------------- #
DRAMAS_SPEC = {
    "from": "M",
    "var": "m",
    "where": ["eq", ["field", "m", "gen"], ["const", "Drama"]],
    "select": [["field", "m", "name"]],
}


def _wait(predicate, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached in time")


@pytest.fixture
def pair(tmp_path):
    primary = ReproServer(
        ServerConfig(port=0, quiet=True, data_dir=str(tmp_path / "p"), fsync="batch")
    ).start()
    replica = ReproServer(
        ServerConfig(
            port=0,
            quiet=True,
            data_dir=str(tmp_path / "r"),
            fsync="batch",
            replica_of=primary.url,
            poll_wait=0.5,
            poll_interval=0.01,
        )
    ).start()
    try:
        yield primary, replica
    finally:
        replica.close(drain=False)
        primary.close(drain=False)


def _seed(api: APIClient, rows=None) -> None:
    api.post(
        "v1/default/datasets",
        {
            "name": "M",
            "fields": ["name", "gen", "dir"],
            "rows": rows or [["Drive", "Drama", "Refn"], ["Rush", "Action", "Howard"]],
        },
    )
    api.post(
        "v1/default/views",
        {"name": "dramas", "query": DRAMAS_SPEC, "strategy": "classic"},
    )


def _wait_replica_version(replica, version: int) -> None:
    def _ready() -> bool:
        from repro.serve.sessions import TenantRecoveringError

        try:
            status = replica.sessions.get("default").replication_status()
        except TenantRecoveringError:
            return False
        lag = status.get("replication_lag") or {}
        return status["state_version"] >= version and lag.get("records") == 0

    _wait(_ready)


class TestServeReplication:
    def test_replica_converges_with_coherent_etags(self, pair):
        primary, replica = pair
        api = APIClient(primary.url, max_retries=1, sleep=lambda _: None)
        _seed(api)
        api.post(
            "v1/default/apply",
            {"updates": [{"M": {"rows": [["Jarhead", "Drama", "Mendes"]]}}]},
        )
        _wait_replica_version(replica, 3)
        primary_view = ViewsClient(api).show("dramas")
        replica_views = ViewsClient(
            APIClient(replica.url, max_retries=1, sleep=lambda _: None)
        )
        replica_view = replica_views.show("dramas")
        assert replica_view["version"] == primary_view["version"]
        assert replica_view["pairs"] == primary_view["pairs"]
        # ETag coherence: the primary's version tag 304s on the replica.
        conditional = replica_views.show("dramas", etag=primary_view["version"])
        assert conditional.get("unchanged") is True
        # /health and /replication report the follower's lag.
        health = APIClient(replica.url).get("health")
        assert health["replica_of"] == primary.url
        assert "default" in health["replication"]
        status = ReplicationClient(APIClient(replica.url)).status()
        assert status["role"] == "replica"
        assert status["replication_lag"]["records"] == 0

    def test_replica_polls_reuse_one_connection(self, pair):
        """The link's long polls go through one persistent ``APIClient``
        connection: the primary sees no new connection per poll."""
        primary, replica = pair
        _seed(APIClient(primary.url, max_retries=1, sleep=lambda _: None))
        link = replica.sessions.get("default").link
        _wait(lambda: link.status()["polls"] >= 2)
        (connection,) = list(link._api._connections)
        sock = connection.sock
        polls = link.status()["polls"]
        _wait(lambda: link.status()["polls"] >= polls + 3)
        assert sock is not None and connection.sock is sock

    def test_wal_feed_endpoint_ships_decodable_frames(self, pair):
        primary, replica = pair
        api = APIClient(primary.url, max_retries=1, sleep=lambda _: None)
        _seed(api)
        body = api.get("v1/default/wal?from_segment=1&from_offset=8")
        assert body["status"] == "ok" and body["role"] == "primary"
        frames = decode_frames(body["frames"])
        assert len(frames) == 2
        assert body["next"] == body["end"]
        assert body["lag_records"] == 0

    def test_replica_rejects_writes_503_without_retry_after(self, pair):
        primary, replica = pair
        api = APIClient(primary.url, max_retries=1, sleep=lambda _: None)
        _seed(api)
        _wait_replica_version(replica, 2)
        sleeps = []
        replica_api = APIClient(replica.url, max_retries=3, sleep=sleeps.append)
        with pytest.raises(APIError) as excinfo:
            replica_api.post(
                "v1/default/apply",
                {"updates": [{"M": {"rows": [["Nope", "Drama", "NoOne"]]}}]},
            )
        assert excinfo.value.status == 503
        assert excinfo.value.code == "not_writable"
        # No Retry-After header: the client must NOT have retried/slept.
        assert sleeps == []
        with pytest.raises(APIError) as excinfo:
            replica_api.post("v1/default/datasets", {"name": "X", "fields": ["a"]})
        assert excinfo.value.code == "not_writable"

    def test_promote_fences_old_primary(self, pair):
        primary, replica = pair
        api = APIClient(primary.url, max_retries=1, sleep=lambda _: None)
        _seed(api)
        _wait_replica_version(replica, 2)
        replica_api = APIClient(replica.url, max_retries=1, sleep=lambda _: None)
        result = ReplicationClient(replica_api).promote()
        assert result["promoted"] and result["epoch"] >= 1
        # The new primary takes writes immediately.
        replica_api.post(
            "v1/default/apply",
            {"updates": [{"M": {"rows": [["Post", "Drama", "Promotion"]]}}]},
        )
        # The fencer thread demotes the old primary.
        _wait(lambda: primary.sessions.get("default").role == "fenced")
        with pytest.raises(APIError) as excinfo:
            api.post(
                "v1/default/apply",
                {"updates": [{"M": {"rows": [["Stale", "Drama", "Primary"]]}}]},
            )
        assert excinfo.value.status == 503
        # Promotion of a fenced tenant is refused with an epoch conflict.
        with pytest.raises(APIError) as excinfo:
            ReplicationClient(api).promote()
        assert excinfo.value.status == 409
        # A stale demote cannot lower the new primary's epoch.
        with pytest.raises(APIError) as excinfo:
            ReplicationClient(replica_api).demote(result["epoch"])
        assert excinfo.value.status == 409


class TestFailoverClient:
    def test_writes_follow_promotion_and_reads_prefer_replicas(self, pair):
        primary, replica = pair
        client = FailoverClient(
            [primary.url, replica.url],
            failover_deadline=20.0,
            probe_interval=0.05,
        )
        client.create_dataset(
            "M",
            ["name", "gen", "dir"],
            rows=[["Drive", "Drama", "Refn"]],
        )
        client.create_view("dramas", DRAMAS_SPEC)
        client.insert("M", [["Jarhead", "Drama", "Mendes"]])
        _wait_replica_version(replica, 3)
        assert client.primary().base_url == primary.url
        follower = client.view("dramas")
        assert sorted(pair_[0] for pair_ in follower["pairs"]) == ["Drive", "Jarhead"]
        # Operator promotes the replica; subsequent writes fail over to it.
        client.promote(replica.url)
        _wait(lambda: primary.sessions.get("default").role == "fenced")
        payload = client.insert("M", [["After", "Drama", "Failover"]])
        assert payload["results"][-1]["version"] == 4
        assert client.primary().base_url == replica.url
        assert client.failovers >= 0  # probed rather than errored is fine
        # Strongly consistent read goes through the primary path.
        strong = client.view("dramas", stale_ok=False)
        assert sorted(pair_[0] for pair_ in strong["pairs"]) == [
            "After",
            "Drive",
            "Jarhead",
        ]

    def test_failover_exhausted_when_no_primary_exists(self, tmp_path):
        replica_only = ReproServer(
            ServerConfig(
                port=0, quiet=True, data_dir=str(tmp_path / "r2"), fsync="off"
            )
        ).start()
        try:
            session = replica_only.sessions.get("default")
            session.engine.fence(1, "fenced for the failover test")
            session.role = "fenced"
            client = FailoverClient(
                [replica_only.url],
                failover_deadline=0.4,
                probe_interval=0.05,
            )
            with pytest.raises(APIError) as excinfo:
                client.insert("M", [["x", "y", "z"]])
            assert excinfo.value.code == "failover_exhausted"
        finally:
            replica_only.close(drain=False)


class TestRetryDeadline:
    def _closed_port_url(self) -> str:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return f"http://127.0.0.1:{port}"

    def test_connection_retries_bounded_by_deadline(self):
        sleeps = []
        api = APIClient(
            self._closed_port_url(),
            max_retries=10_000,
            backoff_base=2.0,
            retry_deadline=3.0,
            sleep=sleeps.append,
        )
        with pytest.raises(APIError) as excinfo:
            api.get("health")
        assert excinfo.value.code == "retry_deadline"
        # The injected sleep never waits, so the budget must have come from
        # the accumulated requested delays, not wall clock.
        assert sum(sleeps) <= 3.0

    def test_deadline_none_falls_back_to_max_retries(self):
        api = APIClient(
            self._closed_port_url(),
            max_retries=2,
            retry_deadline=None,
            sleep=lambda _: None,
        )
        with pytest.raises(APIError) as excinfo:
            api.get("health")
        assert excinfo.value.code == "connection"
        assert api.retries_performed == 2
