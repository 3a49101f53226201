"""The ``gateway`` workload: ``repro gateway`` over HTTP, shipped defaults.

The gateway runs as the CLI ships it (default poll intervals, lease
timeout, admission limits and solve method) with ``--local-workers``
worker processes.  One client process drives it over keep-alive
connections, closed loop: each connection sends its next request when the
previous answer arrived.  About one request in five repeats an earlier
instance, so the result cache and request coalescing serve it.

``setup_s`` is the median, over several fresh spools, of the time from
spawning the gateway to its first correct answer.  The layer split is read
afterwards from the spool's own event log (``repro.observability.audit``)
joined with the client's send and receive times; the gateway itself is not
instrumented, so traced and untraced runs do the same work.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from perfbench import workloads
from perfbench.common import HostClock, Tally, end_to_end, judge
from perfbench.oracle import optima, spec_key

#: Gateway start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _parallelism() -> int:
    return max(1, min(2, os.cpu_count() or 1))


#: Local worker processes and client connections (at most ``nproc``).
WORKERS = CONNECTIONS = _parallelism()

_LISTENING = re.compile(r"gateway listening on http://([\d.]+):(\d+)")


class GatewayProcess:
    """``python -m repro gateway`` in its own session, stopped for sure."""

    def __init__(self, root: str, spool: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--spool", spool,
             "--port", "0", "--local-workers", str(WORKERS)],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        self.port: Optional[int] = None
        self._bound = threading.Event()
        self.output: List[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        # workers share the pipe: keep reading so none ever blocks on it
        for line in self.proc.stdout:
            self.output.append(line.rstrip())
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.port = int(match.group(2))
                self._bound.set()
        self._bound.set()

    def wait_bound(self, timeout: float = 60.0) -> int:
        self._bound.wait(timeout)
        if self.port is None:
            raise RuntimeError("gateway did not start:\n"
                               + "\n".join(self.output[-20:]))
        return self.port

    def stop(self) -> None:
        """SIGINT lets the gateway stop its workers; SIGKILL what remains."""
        group = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # workers are the gateway's children: wait until the group is gone
        for _ in range(500):
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self._reader.join(timeout=5)
        self.proc.stdout.close()


def _body(spec: workloads.Spec) -> bytes:
    from repro.model.serialization import problem_to_dict

    return json.dumps({"problem": problem_to_dict(workloads.build(spec)),
                       "timeout_s": 60}).encode("utf-8")


def _post(conn: http.client.HTTPConnection, body: bytes
          ) -> Tuple[int, Dict[str, Any]]:
    conn.request("POST", "/v1/solve", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    try:
        return response.status, json.loads(payload)
    except ValueError:
        return response.status, {"error": payload[:200].decode("latin-1")}


class _Record(NamedTuple):
    spec: workloads.Spec
    sent_wall: float          #: time.time() at send, to join the audit log
    received_wall: float
    latency_s: float
    status: int               #: HTTP status, 0 when the connection failed
    answer: Dict[str, Any]


def _one_request(conn: http.client.HTTPConnection,
                 spec: workloads.Spec) -> _Record:
    body = _body(spec)
    sent_wall = time.time()
    started = time.perf_counter()
    try:
        status, answer = _post(conn, body)
    except (OSError, http.client.HTTPException) as exc:
        status, answer = 0, {"error": repr(exc)}
    latency = time.perf_counter() - started
    return _Record(spec, sent_wall, time.time(), latency, status, answer)


def _load(port: int, seed: int, seconds: float) -> Tuple[List[_Record], float]:
    """Closed loop from :data:`CONNECTIONS` threads for ``seconds``."""
    records: List[_Record] = []
    lock = threading.Lock()
    cursor = [0]
    stop_at = time.perf_counter() + seconds

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                unique = workloads.gateway_request(seed, index)
                record = _one_request(conn,
                                      workloads.gateway_spec(seed, unique))
                if record.status != 200:
                    # the server closes the connection after an error
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=120)
                with lock:
                    records.append(record)
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - started


def _judge_record(record: _Record, optimum: Dict[str, float],
                  tally: Tally) -> None:
    answer = record.answer
    if record.status != 200 or not answer.get("ok"):
        tally.add_failure(record.latency_s,
                          f"HTTP {record.status}: {answer.get('error')}")
        return
    tally.add(record.latency_s, judge(
        workloads.build(record.spec), answer.get("placement"),
        answer.get("objective"), answer.get("status"),
        optimum[spec_key(record.spec)]))


def _layer_split(spool: str, records: List[_Record]) -> Dict[str, Any]:
    """Mean per fresh request of each serving stage, from the audit log."""
    from repro.observability.audit import build_timelines

    timelines = {t["task_id"]: t for t in build_timelines(spool)}
    stages: Dict[str, List[float]] = {
        "distributed.gateway.admit_ms": [],
        "distributed.spool.queue_wait_ms": [],
        "distributed.worker.prep_ms": [],
        "distributed.worker.solve_ms": [],
        "distributed.spool.ack_ms": [],
        "distributed.gateway.detect_ms": [],
    }
    seen = set()
    for record in records:
        task_id = record.answer.get("task_id")
        if (record.status != 200 or task_id is None or task_id in seen
                or record.answer.get("coalesced")):
            continue
        seen.add(task_id)
        timeline = timelines.get(task_id)
        if timeline is None:
            continue
        ts = {}
        for event in timeline["events"]:
            ts.setdefault(event.get("kind"), event.get("ts"))
        marks = [record.sent_wall, ts.get("submit"), ts.get("claim"),
                 ts.get("solve_start"), ts.get("solve_end"), ts.get("ack"),
                 record.received_wall]
        if any(mark is None for mark in marks):
            continue
        for name, begin, end in zip(stages, marks, marks[1:]):
            stages[name].append((end - begin) * 1e3)
    out: Dict[str, Any] = {
        name: (sum(values) / len(values) if values else 0.0, "ms")
        for name, values in stages.items()}
    answered = [r for r in records if r.status == 200]
    out["runtime.cache.hit_share"] = (
        sum(1 for r in answered if r.answer.get("cached"))
        / max(len(answered), 1), "share")
    out["distributed.spool.requeues"] = (
        sum(t.get("requeues", 0) for t in timelines.values()), "count")
    out["distributed.gateway.shed"] = (
        sum(1 for r in records if r.status in (429, 503)), "count")
    return out


def run(seed: int, seconds: float, trace: bool, root: str,
        clock: HostClock) -> Dict[str, Any]:
    scratch = os.path.join(root, ".perfbench-run")
    os.makedirs(scratch, exist_ok=True)
    setup: List[_Record] = []
    setup_times: List[float] = []
    with tempfile.TemporaryDirectory(prefix="gateway-", dir=scratch) as tmp:
        gateway: Optional[GatewayProcess] = None
        try:
            for attempt in range(SETUP_REPEATS):
                if gateway is not None:
                    gateway.stop()
                    # sampled with no gateway running, like the run's
                    # first samples
                    clock.sample(5)
                spool = os.path.join(tmp, f"spool-{attempt}")
                started = time.perf_counter()
                gateway = GatewayProcess(root, spool)
                port = gateway.wait_bound()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=120)
                setup.append(_one_request(
                    conn, workloads.gateway_spec(seed, -1 - attempt)))
                setup_times.append(time.perf_counter() - started)
                conn.close()
            records, wall = _load(port, seed, seconds)
        finally:
            if gateway is not None:
                gateway.stop()
        layers = _layer_split(spool, records)

    optimum = optima(record.spec for record in setup + records)
    tally, setup_tally = Tally(), Tally()
    for record in records:
        _judge_record(record, optimum, tally)
    for record in setup:
        _judge_record(record, optimum, setup_tally)
    report: Dict[str, Any] = {
        # start-up is interpreter start-up and imports, CPU time: set-up
        # is in reference-host time, like the in-process workloads'
        "metrics": end_to_end(tally, tally.correct / wall, clock.reference_s(
            statistics.median(setup_times))),
        "attempted": tally.attempted + setup_tally.attempted,
        "failures": setup_tally.failures + tally.failures,
        "notes": {"requests": tally.attempted,
                  "unique instances": len(optimum),
                  "workers": WORKERS, "connections": CONNECTIONS,
                  "times": ("as measured, setup_s reference-host (see "
                            "README); as measured: setup "
                            f"{statistics.median(setup_times):.4g} s")},
    }
    if trace:
        report["layers"] = layers
        report["overhead_pct"] = None
    return report
