"""The cluster side of ``live-gossip-8``: eight gossip nodes in one process.

Started by ``wl_live.py`` as a child process, it launches a
:class:`~repro.net.runner.LiveCluster` of ``GossipNode``\\ s with the
default ``NodeConfig`` on localhost TCP, installs the same prefilled
entries at every node (so the cluster starts converged), prints one
JSON line with the node ports, and then answers one JSON command per
line on stdin with one JSON line on stdout:

* ``trace_on`` / ``trace_off`` — wrap the wire codec and sample
  event-loop lag between the two; ``trace_off`` answers the numbers;
* ``status`` — each node's counters, read over STATUS frames;
* ``quiesce`` — wait until every node's checksum agrees (the probe-based
  check :meth:`LiveCluster.wait_converged` runs) and say when;
* ``dump`` — every node's timestamp for every key;
* ``stop`` — stop the nodes and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from bench_common import percentile
from bench_trace import Tracer

from repro.core.items import VersionedValue
from repro.core.timestamps import Timestamp
from repro.net import node as node_module
from repro.net import peer as peer_module
from repro.net import wire
from repro.net.node import GossipNode, NodeConfig
from repro.net.runner import LiveCluster
from repro.sim.rng import derive_seed
from repro.workload.generators import ZipfKeys

NODES = 8
KEY_SPACE = 64
ZIPF_S = 1.1
LAG_PERIOD = 0.01


def prefill(seed: int, base: float) -> List[Tuple[str, VersionedValue]]:
    """The entries every node starts with; timestamps lie before ``base``."""
    rng = random.Random(derive_seed(seed, "live", "prefill"))
    keys = ZipfKeys(KEY_SPACE, ZIPF_S)
    return [
        (
            keys.key(index),
            VersionedValue(
                value=rng.getrandbits(64).to_bytes(8, "big").hex(),
                timestamp=Timestamp(time=base - 1.0 + index * 1e-3, site=index % NODES,
                                    sequence=index),
            ),
        )
        for index in range(KEY_SPACE)
    ]


def _series_total(status: Dict[str, Any], name: str, **labels: str) -> float:
    family = status["metrics"].get(name)
    if family is None:
        return 0.0
    return sum(
        series["value"]
        for series in family["series"]
        if all(series["labels"].get(k) == v for k, v in labels.items())
    )


class Child:
    def __init__(self, seed: int, spans_path: Optional[str]):
        self.seed = seed
        self.spans_path = spans_path
        # Node rounds stay wrapped for the whole traced run; the codec
        # is wrapped only between trace_on and trace_off.
        self.node_tracer = Tracer() if spans_path is not None else None
        self.codec_tracer = Tracer()
        self.cluster: LiveCluster = None  # type: ignore[assignment]
        self.lags: List[float] = []
        self._lag_task = None
        self._trace_began_ns = 0

    async def start(self) -> Dict[str, Any]:
        if self.node_tracer is not None:
            # The gossip loops hold bound methods from start-up on, so
            # the wrappers must be in place before the nodes start.
            self.node_tracer.wrap(GossipNode, "run_anti_entropy_once", "node.anti_entropy")
            self.node_tracer.wrap(GossipNode, "run_rumor_once", "node.rumor")
        self.cluster = await LiveCluster.launch(NODES, NodeConfig())
        base = time.time()
        entries = prefill(self.seed, base)
        for gossip_node in self.cluster.nodes.values():
            for key, entry in entries:
                gossip_node.store.apply_entry(key, entry)
        return {
            "ports": {str(i): n.port for i, n in sorted(self.cluster.nodes.items())},
            "base": base,
        }

    async def _sample_lag(self) -> None:
        while True:
            began = time.perf_counter()
            await asyncio.sleep(LAG_PERIOD)
            self.lags.append(time.perf_counter() - began - LAG_PERIOD)

    async def handle(self, command: Dict[str, Any]) -> Dict[str, Any]:
        name = command["cmd"]
        if name == "trace_on":
            tracer = self.codec_tracer
            tracer.wrap(peer_module, "encode_message", "wire.encode", keep=False)
            tracer.wrap(node_module, "encode_message", "wire.encode", keep=False)
            tracer.wrap(wire, "decode_body", "wire.decode", keep=False)
            self._trace_began_ns = time.perf_counter_ns()
            self.lags = []
            self._lag_task = asyncio.create_task(self._sample_lag())
            return {"ok": True}
        if name == "trace_off":
            return self._trace_off()
        if name == "status":
            return await self._status()
        if name == "quiesce":
            converged = await self.cluster.wait_converged(timeout=command["timeout"], poll=0.005)
            return {"converged": converged, "at": time.monotonic()}
        if name == "dump":
            return {
                str(i): {
                    key: [e.timestamp.time, e.timestamp.site, e.timestamp.sequence]
                    for key, e in n.store.entries()
                }
                for i, n in sorted(self.cluster.nodes.items())
            }
        raise ValueError(f"unknown command {name!r}")

    def _trace_off(self) -> Dict[str, Any]:
        codec = self.codec_tracer
        codec.uninstall()
        self._lag_task.cancel()
        begin_ns = self._trace_began_ns
        end_ns = time.perf_counter_ns()
        window = (end_ns - begin_ns) / 1e9
        busy = {"node.anti_entropy": 0, "node.rumor": 0}
        for __, __, name, began, ended in self.node_tracer.spans:
            if name in busy:
                busy[name] += max(0, min(ended, end_ns) - max(began, begin_ns))
        out = {
            "window_s": window,
            "encode_calls": codec.calls("wire.encode"),
            "encode_s": codec.seconds("wire.encode"),
            "decode_calls": codec.calls("wire.decode"),
            "decode_s": codec.seconds("wire.decode"),
            "anti_entropy_busy_share": busy["node.anti_entropy"] / 1e9 / (window * NODES),
            "rumor_busy_share": busy["node.rumor"] / 1e9 / (window * NODES),
            "lag_p99_ms": percentile(self.lags, 0.99) * 1000 if self.lags else 0.0,
            "lag_samples": len(self.lags),
        }
        return out

    async def _status(self) -> Dict[str, Any]:
        statuses = await self.cluster.status_all()
        peers = [p for n in self.cluster.nodes.values() for p in n.peers.values()]
        return {
            "exchanges": sum(_series_total(s, "repro_exchanges_total") for s in statuses.values()),
            "updates_shipped": sum(
                _series_total(s, "repro_updates_shipped_total") for s in statuses.values()),
            "updates_absorbed": sum(
                _series_total(s, "repro_updates_absorbed_total") for s in statuses.values()),
            "frames_sent": sum(
                _series_total(s, "repro_frames_sent_total") for s in statuses.values()),
            "rumor_frames": sum(
                _series_total(s, "repro_frames_sent_total", type="rumor")
                for s in statuses.values()),
            "rejections": sum(
                _series_total(s, "repro_rejections_in_total") for s in statuses.values()),
            "peer_attempts_failed": sum(p.failures for p in peers),
            "peer_calls_failed": sum(p.exhausted for p in peers),
            "wire_version": statuses[0]["wire"]["version"],
            "peer_versions": sorted({
                v for s in statuses.values() for v in s["wire"]["peers"].values()}),
        }

    async def serve(self) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
        try:
            _reply(await self.start())
            while True:
                line = await reader.readline()
                if not line:
                    break
                command = json.loads(line)
                if command["cmd"] == "stop":
                    break
                _reply(await self.handle(command))
        finally:
            if self._lag_task is not None:
                self._lag_task.cancel()
            if self.cluster is not None:
                await self.cluster.stop()
        if self.node_tracer is not None:
            self.node_tracer.totals.update(self.codec_tracer.totals)
            self.node_tracer.write(self.spans_path)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _reply({"stopped": True, "peak_rss_mb": rss})


def _reply(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="trace, and write the spans here on stop")
    args = parser.parse_args()
    asyncio.run(Child(args.seed, args.spans).serve())


if __name__ == "__main__":
    main()
