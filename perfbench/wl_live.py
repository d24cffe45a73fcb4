"""Workload ``live-gossip-8``: sites that keep serving clients while gossip runs.

Eight ``GossipNode``\\ s with the default ``NodeConfig`` (push-pull
full-compare anti-entropy every 0.2 s, rumor mongering k=2 every 0.05 s)
run on localhost TCP in one child process (``live_child.py``).  They
start from 64 prefilled, converged keys.  This process is the only
load generator: two client connections, to nodes 0 and 4, each with at
most one request outstanding, over a seeded 70% write / 30% read mix of
Zipf(1.1) keys.  Clients speak the v1 JSON wire; the nodes negotiate v4
among themselves.  Generator and nodes are pinned to the same CPU, the
one that was fastest when the run began.

The run is four equal cycles, so every figure samples the whole run.
Each cycle has three phases:

1. **open loop** (40% of the cycle): Poisson arrivals at 100 ops/s,
   a fraction of saturation, alternating between the connections.
   Each request is timed from the moment it was due, so a stall also
   charges the requests queued behind it, and the generator's own
   lateness is recorded.  It starts from a converged cluster.
2. **closed loop** (30% of the cycle, after a 0.5 s warm-up): each
   connection sends its next request as soon as the last one is
   answered; the completion rate is the saturated throughput.  Both
   connections are reopened every 0.5 s.
3. **quiesce** (the rest): after the closed loop, and after each of
   several 16-write bursts, the time from the last ack until every
   node's checksum agrees.

Correctness: every quiesce converges, and afterwards every node holds
the latest acknowledged version of every key.  A request that errors,
times out or is refused counts as failed.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from bench_common import (
    TAIL_Q, Result, child_env, peak_rss_mb, percentile, pin_to_fastest_cpu, run_config,
    tail_quantile,
)
from live_child import KEY_SPACE, NODES, ZIPF_S, prefill

from repro.core.serialize import decode_timestamp, encode_updates
from repro.core.store import StoreUpdate
from repro.core.timestamps import Timestamp
from repro.net.binwire import msgpack_available
from repro.net.membership import PeerInfo
from repro.net.peer import Peer, PeerError, RetryPolicy
from repro.net.wire import BASE_VERSION, Message, MessageType, WireError, encode_message
from repro.obs.spans import SpanContext, trace_id_of
from repro.sim.rng import derive_seed
from repro.workload.generators import ZipfKeys

CLIENT_NODES = (0, NODES // 2)
WRITE_SHARE = 0.7
OPEN_LOOP_RATE = 100.0
BURST_WRITES = 16
CYCLES = 4
WARMUP_S = 0.5
SEGMENT_S = 0.5
OPEN_SHARE = 0.4
CLOSED_SHARE = 0.3
CLIENT_ID = -1
#: Clients speak the JSON wire (v1), whose stdlib codec keeps the
#: generator's share of the work small; the nodes negotiate among
#: themselves as usual.
CLIENT_WIRE_VERSION = BASE_VERSION
CLIENT_POLICY = RetryPolicy(connect_timeout=2.0, io_timeout=5.0, attempts=1)
#: A fixed clock reading for the canonical frame behind wire.bytes_per_update.
CANONICAL_BASE = 1_700_000_000.0

Op = Tuple[str, str, Optional[str]]   # (kind, key, value)


class ChildCluster:
    """The child process and its line-per-command control pipe."""

    def __init__(self, seed: int, spans_path: Optional[str], node_cpu: int):
        here = os.path.dirname(os.path.abspath(__file__))
        command = [sys.executable, os.path.join(here, "live_child.py"), "--seed", str(seed)]
        if spans_path is not None:
            command += ["--spans", spans_path]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(),
        )
        os.sched_setaffinity(self.proc.pid, {node_cpu})
        ready = self._read()
        self.ports = {int(k): v for k, v in ready["ports"].items()}
        self.base = ready["base"]
        self.child_rss_mb = 0.0

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the node process exited early")
        return json.loads(line)

    def call(self, cmd: str, **args: Any) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps(dict(args, cmd=cmd)) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.child_rss_mb = self.call("stop")["peak_rss_mb"]
                self.proc.wait(timeout=20)
            except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError):
                self.proc.kill()
                self.proc.wait()


class Client:
    """Two client connections, an oracle of acknowledged versions, and
    the per-request outcomes."""

    def __init__(self, ports: Dict[int, int], base: float, seed: int):
        self.peers = [
            Peer(PeerInfo(node_id, "127.0.0.1", ports[node_id]), CLIENT_POLICY)
            for node_id in CLIENT_NODES
        ]
        self.latest: Dict[str, Timestamp] = {
            key: entry.timestamp for key, entry in prefill(seed, base)
        }
        self.attempted = 0
        self.failed = 0
        self.reads = 0
        self.stale_reads = 0

    async def request(self, conn: int, op: Op) -> bool:
        kind, key, value = op
        self.attempted += 1
        if kind == "write":
            payload: Dict[str, Any] = {"key": key, "value": value}
        else:
            payload = {"read": key}
            expected = self.latest[key]
        try:
            reply = await self.peers[conn].call(
                Message(type=MessageType.MAIL, sender=CLIENT_ID, payload=payload,
                        version=CLIENT_WIRE_VERSION, max_version=CLIENT_WIRE_VERSION)
            )
        except (PeerError, WireError, OSError, asyncio.TimeoutError):
            self.failed += 1
            return False
        answer = reply.payload
        if kind == "write":
            if not answer.get("applied"):
                self.failed += 1   # refused or errored
                return False
            stamp = decode_timestamp(answer["timestamp"])
            if stamp > self.latest[key]:
                self.latest[key] = stamp
            return True
        if "found" not in answer:
            self.failed += 1
            return False
        self.reads += 1
        held = decode_timestamp(answer["timestamp"]) if answer["found"] else None
        if held is None or held < expected:
            self.stale_reads += 1
        return True

    async def close(self) -> None:
        for peer in self.peers:
            await peer.close()


class OpStream:
    """A seeded request sequence: 70% writes, Zipf(1.1) keys."""

    def __init__(self, seed: int, label: str):
        self.rng = random.Random(derive_seed(seed, "live", "ops", label))
        self.keys = ZipfKeys(KEY_SPACE, ZIPF_S)
        self.label = label
        self.count = 0

    def next(self, write_only: bool = False) -> Op:
        key = self.keys.pick(self.rng)
        if write_only or self.rng.random() < WRITE_SHARE:
            self.count += 1
            return ("write", key, f"{self.label}-{self.count:012d}"[-16:])
        return ("read", key, None)


def poisson_arrivals(seed: int, rate: float, duration: float, cycle: int = 0) -> List[float]:
    rng = random.Random(derive_seed(seed, "live", "arrivals", cycle))
    times = []
    t = rng.expovariate(rate)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate)
    return times


async def closed_loop(client: Client, streams: List[OpStream], seconds: float,
                      write_only: bool = False, per_conn: Optional[int] = None) -> int:
    """Each connection keeps one request outstanding; returns completions."""
    deadline = time.perf_counter() + seconds
    done = [0]

    async def worker(conn: int) -> None:
        sent = 0
        while (time.perf_counter() < deadline) if per_conn is None else sent < per_conn:
            sent += 1
            if await client.request(conn, streams[conn].next(write_only)):
                done[0] += 1

    await asyncio.gather(*(worker(conn) for conn in range(len(client.peers))))
    return done[0]


async def open_loop(client: Client, stream: OpStream, arrivals: List[float]):
    """Requests due at ``arrivals``; returns (latencies by kind, lateness)."""
    queues = [asyncio.Queue() for __ in client.peers]
    latencies: Dict[str, List[float]] = {"write": [], "read": []}
    lateness: List[float] = []

    async def worker(conn: int) -> None:
        while True:
            item = await queues[conn].get()
            if item is None:
                return
            due, op = item
            if await client.request(conn, op):
                latencies[op[0]].append((time.perf_counter() - due) * 1000)

    workers = [asyncio.create_task(worker(conn)) for conn in range(len(queues))]
    started = time.perf_counter()
    for index, offset in enumerate(arrivals):
        due = started + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append((time.perf_counter() - due) * 1000)
        queues[index % len(queues)].put_nowait((due, stream.next()))
    for queue in queues:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return latencies, lateness


def canonical_bytes_per_update(seed: int, version: int) -> float:
    """Size of one full-compare PUSH frame carrying the 256 prefilled
    updates at a fixed clock, per update: a pure function of the seed
    and the codec."""
    updates = [StoreUpdate(key=key, entry=entry) for key, entry in prefill(seed, CANONICAL_BASE)]
    payload = {
        "mode": "push-pull",
        "updates": encode_updates(updates),
        "spans": [SpanContext(trace=trace_id_of(u), hop=0, sent_at=CANONICAL_BASE).to_wire()
                  for u in updates],
    }
    frame = encode_message(Message(type=MessageType.PUSH, sender=0, payload=payload,
                                   version=version))
    return len(frame) / len(updates)


def _check_final(client: Client, dump: Dict[str, Dict[str, list]]) -> List[str]:
    problems = []
    for node_id, held in sorted(dump.items()):
        behind = 0
        for key, latest in client.latest.items():
            stamp = held.get(key)
            mine = None if stamp is None else Timestamp(time=stamp[0], site=stamp[1],
                                                         sequence=stamp[2])
            if mine is None or mine < latest or (not client.failed and mine != latest):
                behind += 1
        if behind:
            problems.append(f"node {node_id} misses the latest acked version of {behind} keys")
    return problems


async def _quiesce(cluster: ChildCluster, out: Dict[str, Any]) -> bool:
    ended = time.monotonic()
    answer = cluster.call("quiesce", timeout=10.0)
    if not answer["converged"]:
        out["problems"].append("a quiesce did not converge within 10 s")
        return False
    out["converge_ms"].append((answer["at"] - ended) * 1000)
    return True


async def _drive(cluster: ChildCluster, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """CYCLES cycles of open loop, closed loop and quiesces, so every
    figure samples the whole run rather than one stretch of it."""
    client = Client(cluster.ports, cluster.base, seed)
    closed_streams = [OpStream(seed, f"closed{conn}") for conn in range(len(CLIENT_NODES))]
    open_stream = OpStream(seed, "open")
    burst = OpStream(seed, "burst")
    cycle_s = seconds / CYCLES
    out: Dict[str, Any] = {
        "problems": [], "latencies": {"write": [], "read": []}, "lateness": [],
        "offered": 0, "closed_ops": {True: 0, False: 0}, "closed_s": {True: 0.0, False: 0.0},
        "converge_ms": [], "cycles": [],
    }
    try:
        for cycle in range(CYCLES):
            cycle_began = time.perf_counter()
            # A traced run traces the first cycle: its open loop and its
            # closed loop, which the untraced closed loops compare with.
            traced = trace and cycle == 0
            if traced:
                cluster.call("trace_on")
                out["status_before"] = cluster.call("status")
                ops_before = client.attempted
            # Each open loop starts from a converged cluster: the one
            # prefilled, or the one the last quiesce left.
            arrivals = poisson_arrivals(seed, OPEN_LOOP_RATE, cycle_s * OPEN_SHARE, cycle)
            latencies, lateness = await open_loop(client, open_stream, arrivals)
            for kind, values in latencies.items():
                out["latencies"][kind].extend(values)
            out["lateness"].extend(lateness)
            out["offered"] += len(arrivals)
            # Writes make rumors hot, and hot rumors cost gossip work: let
            # the cluster reach that state before the closed loop counts.
            await closed_loop(client, closed_streams, WARMUP_S)
            # The closed-loop rate settles into one of a few levels that
            # depend on the pair of client connections; reconnecting every
            # segment makes each run average over many of them.
            closed_s = cycle_s * CLOSED_SHARE
            segments = max(1, round(closed_s / SEGMENT_S))
            completed = 0
            for __ in range(segments):
                await client.close()
                completed += await closed_loop(client, closed_streams, closed_s / segments)
            out["closed_ops"][traced] += completed
            out["closed_s"][traced] += closed_s
            out["cycles"].append({
                "open_p50_ms": percentile(latencies["write"] + latencies["read"], 0.5),
                "closed_ops_s": completed / closed_s,
            })
            if traced:
                out["trace"] = cluster.call("trace_off")
                out["status_after"] = cluster.call("status")
                out["traced_ops"] = client.attempted - ops_before
            # Quiesce after the closed loop, then after bursts of writes.
            ok = await _quiesce(cluster, out)
            while ok and time.perf_counter() - cycle_began < cycle_s:
                await closed_loop(client, [burst, burst], 0, write_only=True,
                                  per_conn=BURST_WRITES // 2)
                ok = await _quiesce(cluster, out)
            if not ok:
                break
        out["problems"].extend(_check_final(client, cluster.call("dump")))
        out["status_end"] = cluster.call("status")
    finally:
        await client.close()
    out["client"] = client
    return out


def _spawn_timed(seed: int, spans_path: Optional[str],
                 node_cpu: int) -> Tuple[float, ChildCluster]:
    began = time.perf_counter()
    cluster = ChildCluster(seed, spans_path, node_cpu)
    return time.perf_counter() - began, cluster


def run(seed: int, seconds: float, trace: bool, out_dir: str, import_s: float) -> Result:
    spans_path = os.path.join(out_dir, f"live-gossip-8-seed{seed}-spans.jsonl") if trace else None
    # Generator and nodes share one CPU, as if they were one process.
    # Spread over two CPUs of a shared machine, every figure followed
    # whichever of the two was slower at the time, and run-to-run spread
    # tripled.
    node_cpu = pin_to_fastest_cpu()
    setups = []
    cluster = None
    try:
        for attempt in range(3):
            took, cluster = _spawn_timed(seed, spans_path, node_cpu)
            setups.append(took)
            if attempt < 2:
                cluster.stop()
        drive = asyncio.run(_drive(cluster, seed, seconds, trace))
    finally:
        if cluster is not None:
            cluster.stop()
    client: Client = drive["client"]
    problems = drive["problems"]
    status = drive["status_end"]
    if status["peer_versions"] != [status["wire_version"]]:
        problems.append(f"nodes negotiated mixed wire versions {status['peer_versions']}")
    if client.failed:
        problems.append(f"{client.failed} client requests failed")

    latencies = drive["latencies"]
    saturated_ops_s = drive["closed_ops"][False] / drive["closed_s"][False]
    every = latencies["write"] + latencies["read"]

    def split(values: List[float]) -> Dict[str, float]:
        q = tail_quantile(len(values), 0.99)
        return {"p50": percentile(values, 0.5), f"p{round(q * 100)}": percentile(values, q),
                "samples": len(values)}

    version = status["wire_version"]
    codec = "json" if version < 4 else ("msgpack" if msgpack_available() else "binary-python")
    report = {
        "config": run_config("live-gossip-8", seed, nodes=NODES, keys=KEY_SPACE,
                             client_connections=len(CLIENT_NODES), wire_version=version,
                             codec=codec),
        "saturated_ops_s": saturated_ops_s,
        "open_loop": {"offered_ops_s": OPEN_LOOP_RATE, "requests": drive["offered"]},
        "write_ms": split(latencies["write"]),
        "read_ms": split(latencies["read"]),
        "stale_read_share": client.stale_reads / max(client.reads, 1),
        "converge_ms": drive["converge_ms"],
        "cycles": drive["cycles"],
        "loadgen_late_p99_ms": percentile(drive["lateness"], 0.99),
    }
    if not trace:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb() + cluster.child_rss_mb,
            "throughput_per_s": saturated_ops_s,
            "p50_ms": percentile(every, 0.5),
            "tail_ms": percentile(every, TAIL_Q),
            "converge_ms": statistics.median(drive["converge_ms"]),
        }
    else:
        before, after, traced = drive["status_before"], drive["status_after"], drive["trace"]

        def delta(name: str) -> float:
            return after[name] - before[name]

        conversations = delta("exchanges") + delta("rumor_frames")
        metrics = {
            "wire.encode_us_per_frame": traced["encode_s"] * 1e6 / traced["encode_calls"],
            "wire.decode_us_per_frame": traced["decode_s"] * 1e6 / traced["decode_calls"],
            "wire.bytes_per_update": canonical_bytes_per_update(seed, version),
            "node.frames_per_op": delta("frames_sent") / drive["traced_ops"],
            "node.updates_shipped_per_exchange": delta("updates_shipped") / conversations,
            "node.useful_update_share": delta("updates_absorbed") / delta("updates_shipped"),
            "node.anti_entropy_busy_share": traced["anti_entropy_busy_share"],
            "node.rumor_busy_share": traced["rumor_busy_share"],
            "node.loop_lag_p99_ms": traced["lag_p99_ms"],
            "node.exchanges_per_s": delta("exchanges") / traced["window_s"],
            "peer.retries": delta("peer_attempts_failed"),
            "peer.failures": delta("peer_calls_failed"),
            "node.rejections": delta("rejections"),
            "loadgen.late_p99_ms": report["loadgen_late_p99_ms"],
            "trace.overhead_ratio": (
                drive["closed_ops"][False] / drive["closed_s"][False]
                / (drive["closed_ops"][True] / drive["closed_s"][True])),
        }
    return Result(
        correct=not problems,
        attempted=client.attempted,
        failed=client.failed,
        metrics=metrics,
        report=report,
        problems=problems,
    )
