"""Per-layer numbers from the traced run's span file.

Only spans that start inside the timed phase count (the launcher and the
client share ``CLOCK_MONOTONIC`` through ``perf_counter``).  A layer's
self time is its span's duration minus the time its child spans cover.

"Per read" values are times on the reads' blocking path divided by the
number of reads: a span under a batch (``recommend_many``) counts once for
every read that batch resolved, because each of those reads waited for
all of it.  With that weighting the named self times and the unnamed rest
add up to the mean client round trip:

    round trip = frontend.self + respcache.begin + admission.queue_wait
                 + recommend_many (all its layers) + package_to_dict
                 + unattributed (rest of the read span: resolve, JSON
                   encoding, ETag, callback hand-offs)
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

READ = "service.read"
SUBMIT = "service.admission.submit"
BATCH = "recommender.engine.recommend_many"
FILL = "recommender.engine.fill"
COMMIT = "service.registry.commit"

#: Span layers on the read path (besides the front-end and queue wait).
READ_LAYERS = (
    "service.respcache.begin",
    BATCH,
    FILL,
    "measures.compute_all",
    "graphtools.betweenness",
    "recommender.relatedness.score_batch",
    "recommender.ranking.rank_items",
    "measures.structural.class_graph",
    "recommender.diversity.mmr_select",
    "recommender.transparency.explain",
    "io.storage.package_to_dict",
)


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


class TraceReport:
    """The analysed span file of one traced run."""

    def __init__(
        self,
        path: Path,
        window: Tuple[float, float],
        client_round_trips: List[float],
        commits: int,
    ) -> None:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        self.targets: Dict[str, Dict] = data["targets"]
        start, end = (int(t * 1e9) for t in window)
        spans = data["spans"]
        by_id = {span[0]: span for span in spans}
        children: Dict[int, List[list]] = defaultdict(list)
        for span in spans:
            children[span[1]].append(span)
        inside = [s for s in spans if start <= s[3] <= end]
        self.reads = sum(1 for s in inside if s[2] == READ)
        self.round_trip_ms = _mean(sum(client_round_trips), len(client_round_trips)) * 1e3

        def duration(span) -> float:
            return (span[4] - span[3]) / 1e6

        def self_time(span) -> float:
            return duration(span) - sum(duration(c) for c in children[span[0]])

        def outermost(span) -> bool:
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[2] == span[2]:
                    return False
                parent = by_id.get(parent[1])
            return True

        def root(span) -> list:
            while span[1] in by_id:
                span = by_id[span[1]]
            return span

        # Reads resolved per batch: the weight of everything under it.
        weight: Dict[int, int] = defaultdict(int)
        queue_wait: List[float] = []
        for span in inside:
            if span[2] == SUBMIT:
                batch = by_id.get(span[5])
                weight[span[5]] += 1
                queue_wait.append(duration(span) - (duration(batch) if batch else 0.0))

        totals: Dict[str, float] = defaultdict(float)  # inclusive ms, outermost
        calls: Dict[str, int] = defaultdict(int)
        blocking: Dict[str, float] = defaultdict(float)  # weighted inclusive ms
        blocking_self: Dict[str, float] = defaultdict(float)  # weighted self ms
        fill_pairs = set()
        for span in inside:
            name = span[2]
            calls[name] += 1
            if name == FILL:
                fill_pairs.add(span[5])
            if name in (READ, SUBMIT):
                continue
            top = root(span)
            if top[2] == BATCH:
                w = weight.get(top[0], 0)
            elif top[2] in (READ, "io.storage.package_to_dict"):
                w = 1
            else:
                w = 0  # commit path and boot: not on a read's blocking path
            if outermost(span):
                totals[name] += duration(span)
                blocking[name] += w * duration(span)
            blocking_self[name] += w * self_time(span)

        read_ms = _mean(
            sum(duration(s) for s in inside if s[2] == READ), self.reads
        )

        def per_read(name: str) -> float:
            return _mean(blocking[name], self.reads)

        def per_call(name: str) -> float:
            return _mean(totals[name], calls[name])

        self.absent = sorted(
            dotted for t in self.targets.values() for dotted in t["absent"]
        )
        counts = self._count_delta(data["marks"], start, end)
        boot = [duration(s) for s in spans if s[2] == "io.load_kb"]
        fills = len(fill_pairs)

        self.metrics: Dict[str, float] = {
            "frontend.self_ms": self.round_trip_ms - read_ms,
            "service.read_ms": read_ms,
            "service.respcache.begin_ms": per_call("service.respcache.begin"),
            "service.admission.queue_wait_ms": _mean(sum(queue_wait), len(queue_wait)),
            "recommender.engine.recommend_many_ms": per_call(BATCH),
            "recommender.engine.fill_ms": _mean(totals[FILL], fills),
            "measures.compute_all_ms": _mean(totals["measures.compute_all"], fills),
            "graphtools.betweenness_ms": _mean(totals["graphtools.betweenness"], fills),
            "recommender.relatedness.score_batch_ms": per_call(
                "recommender.relatedness.score_batch"),
            "recommender.ranking.rank_items_ms": per_read("recommender.ranking.rank_items"),
            "recommender.diversity.mmr_select_ms": per_read("recommender.diversity.mmr_select"),
            "recommender.diversity.distance_calls_per_read": _mean(
                counts.get("recommender.diversity.distance_calls", 0), self.reads),
            "measures.structural.class_graph_calls_per_read": _mean(
                calls["measures.structural.class_graph"], self.reads),
            "recommender.transparency.explain_ms": per_read("recommender.transparency.explain"),
            "io.storage.package_to_dict_ms": per_call("io.storage.package_to_dict"),
            "kb.ntriples.parse_ms": _mean(totals["kb.ntriples.parse"], commits),
            "service.registry.commit_ms": per_call(COMMIT),
            "io.load_kb_ms": _mean(sum(boot), len(boot)),
        }

        # Self time per read on the blocking path, by named layer.
        self.self_per_read: Dict[str, float] = {
            "frontend": self.round_trip_ms - read_ms,
            "service.admission.queue_wait": _mean(sum(queue_wait), self.reads),
        }
        for name in READ_LAYERS:
            self.self_per_read[name] = _mean(blocking_self[name], self.reads)
        named = sum(self.self_per_read.values())
        self.unattributed_share = (
            1.0 - named / self.round_trip_ms if self.round_trip_ms else 0.0
        )

    @staticmethod
    def _count_delta(marks, start: int, end: int) -> Dict[str, int]:
        """Counter growth between the last mark before and first after the phase."""
        before = [m for m in marks if m[0] <= start]
        after = [m for m in marks if m[0] >= end]
        if not before or not after:
            return {}
        first, last = before[-1][1], after[0][1]
        return {name: last[name] - first.get(name, 0) for name in last}

    def largest_layer(self) -> Optional[str]:
        named = {n: t for n, t in self.self_per_read.items() if t > 0}
        return max(named, key=named.get) if named else None
