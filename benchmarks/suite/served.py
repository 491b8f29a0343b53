"""The benchmark-owned server launcher, and the harness's handle on it.

Run as a script this is a thin wrapper over :class:`repro.serve.ReproServer`
— the same object ``repro-cli serve`` starts — used for traced *and*
untraced served runs, so both share one topology::

    python3 benchmarks/suite/served.py --port 0 [--data-dir D --fsync batch]
        [--replica-of URL] [--trace TAG --dump FILE]

It prints ``{"url", "pid"}`` as its first stdout line (ephemeral port
resolved), drains and exits cleanly on SIGTERM, and — when ``--dump`` is
given — writes its spans and the engine's public reports on SIGUSR1 and
again on exit (SIGUSR1 exists because a primary about to be SIGKILLed never
reaches its exit path — which is also why the harness reads peak RSS from
``/proc/<pid>/status`` and not from an exit line).

Imported, :class:`Served` is how the workloads spawn, signal and reap one.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))


# --------------------------------------------------------------------------- #
# Harness side
# --------------------------------------------------------------------------- #
class Served:
    """One launcher subprocess (a primary or a replica)."""

    def __init__(
        self,
        *,
        port: int = 0,
        data_dir: Optional[str] = None,
        replica_of: Optional[str] = None,
        trace_tag: Optional[str] = None,
        dump_path: Optional[str] = None,
    ) -> None:
        command = [sys.executable, os.path.abspath(__file__), "--port", str(port)]
        if data_dir is not None:
            command += ["--data-dir", data_dir, "--fsync", "batch"]
        if replica_of is not None:
            command += ["--replica-of", replica_of]
        if trace_tag is not None:
            command += ["--trace", trace_tag]
        if dump_path is not None:
            command += ["--dump", dump_path]
        self.dump_path = dump_path
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=sut_environment()
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait()
            raise RuntimeError(f"launcher exited with {self.process.returncode} before listening")
        hello = json.loads(line)
        self.url: str = hello["url"]
        self.port = int(self.url.rsplit(":", 1)[1])
        self.pid: int = hello["pid"]
        self.peak_rss_mb = 0.0

    def _sample_rss(self) -> None:
        """Peak resident set so far, from the kernel's high-water mark (the
        only source that also works for a process about to be SIGKILLed)."""
        try:
            with open(f"/proc/{self.pid}/status", "r", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = max(self.peak_rss_mb, int(line.split()[1]) / 1024.0)
        except OSError:
            pass

    def request_dump(self, timeout: float = 30.0) -> None:
        """SIGUSR1 → wait until the dump file is (re)written."""
        assert self.dump_path is not None
        before = _mtime(self.dump_path)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while _mtime(self.dump_path) == before:
            if time.monotonic() > deadline:
                raise RuntimeError(f"no span dump from pid {self.pid} within {timeout}s")
            time.sleep(0.02)

    def terminate(self) -> None:
        """SIGTERM: the launcher drains, checkpoints, dumps and exits."""
        if self.process.poll() is None:
            self._sample_rss()
            self.process.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        """SIGKILL, as a crash would; unflushed state is lost."""
        if self.process.poll() is None:
            self._sample_rss()
            self.process.kill()
        self.wait(10.0)

    def wait(self, timeout: float = 60.0) -> None:
        """Reap the process (escalating to SIGKILL if it outlives ``timeout``)."""
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _mtime(path: str) -> float:
    try:
        return os.stat(path).st_mtime_ns
    except FileNotFoundError:
        return 0


def sut_environment() -> Dict[str, str]:
    """Environment of every system-under-test process.

    ``PYTHONHASHSEED`` is pinned because shard routing hashes strings: with
    the default per-process random seed, which genres share a shard — and
    with it how many shard groups a 4-row delta fans out to — would differ
    from run to run and show up as A/A noise.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


# --------------------------------------------------------------------------- #
# Launcher side
# --------------------------------------------------------------------------- #
def _engine_reports(server: Any) -> Dict[str, Any]:
    """The public report dicts of every tenant, for the per-layer counts."""
    reports: Dict[str, Any] = {}
    for name in server.sessions.names():
        engine = server.sessions.get(name).engine
        reports[name] = {
            "storage": engine.storage_report(),
            "update_operations": sum(
                handle.stats.total_update_operations for handle in engine.views()
            ),
        }
    return reports


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--data-dir")
    parser.add_argument("--fsync")
    parser.add_argument("--replica-of")
    parser.add_argument("--trace", metavar="TAG", help="record spans, ids prefixed TAG")
    parser.add_argument("--dump", metavar="FILE", help="write spans + reports here")
    args = parser.parse_args(argv)

    sys.path[:0] = [REPO_ROOT, os.path.join(REPO_ROOT, "src")]
    tracer = None
    if args.trace:
        from benchmarks.suite import layers
        from benchmarks.suite.tracing import Tracer

        tracer = Tracer(args.trace)
        layers.install(tracer)
    from repro.serve import ReproServer, ServerConfig

    # Everything but the deployment settings stays at ServerConfig defaults.
    server = ReproServer(
        ServerConfig(
            port=args.port,
            data_dir=args.data_dir,
            fsync=args.fsync,
            replica_of=args.replica_of,
        )
    )

    def dump(*_signal_args: Any) -> None:
        if args.dump is None:
            return
        payload: Dict[str, Any] = {"proc": args.trace, "spans": [], "counts": {}}
        if tracer is not None:
            payload = tracer.export(layers.layer_of)
        payload["reports"] = _engine_reports(server)
        partial = args.dump + ".partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(partial, args.dump)

    server.install_signal_handlers()
    signal.signal(signal.SIGUSR1, dump)
    print(json.dumps({"url": server.url, "pid": os.getpid()}), flush=True)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, OSError):
        pass
    finally:
        server.close(drain=True)
        dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
