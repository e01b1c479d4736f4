"""Seeded benchmark inputs and the serial reference replay.

The served world is the ``bench_service.py`` world (seed 4242: 120
classes, 80 properties, 3 versions of 150 changes) with its 64 users, and
the commit stream is that world's later versions.  What a run sends comes
from ``--seed``: the order in which each connection rotates through the
users, the Zipf request tables, the ``If-None-Match`` coin flips and which
user reads after each commit.  The world and its users stay fixed because
they set the engine's work per read: across world seeds the candidate pool
ranges from 138 to 171 items, and across user seeds the mean serial cost of
a read ranges from 12 to 19 ms, so either would move the metrics by 10-20%
from seed to seed.  The server only ever sees the files written by
:func:`write_world` and the HTTP requests the load generator sends.

The reference is a serial, in-process replay through
``RecommendationService`` with the engine configuration ``repro serve``
builds (``EngineConfig(k=5, spread_depth=1)``): every ``200`` body the
server sends must equal the reference body for its (pair, user, k).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.io import load_kb, load_users, save_kb, save_users
from repro.kb.ntriples import parse_graph, serialize
from repro.recommender.engine import EngineConfig
from repro.service import RecommendationService, ServiceConfig
from repro.synthetic.config import EvolutionConfig, SchemaConfig, UserConfig, WorldConfig
from repro.synthetic.world import generate_world
from repro.util.rng import derive_seed

#: ``bench_service.py``'s ``WORLD_SEED``.
WORLD_SEED = 4242
#: Package size: ``repro serve``'s default ``-k``; requests leave it implicit.
K = 5
N_USERS = 64
SERVED_VERSIONS = 3
ZIPF_EXPONENT = 1.1
#: Requests in each connection's pre-drawn table (cycled when exhausted).
TABLE_SIZE = 8192


def world_config(n_versions: int) -> WorldConfig:
    return WorldConfig(
        schema=SchemaConfig(n_classes=120, n_properties=80),
        evolution=EvolutionConfig(n_versions=n_versions, changes_per_version=150),
        users=UserConfig(n_users=N_USERS),
    )


@dataclass(frozen=True)
class Delta:
    """One commit of the stream: version ``version_id`` as N-Triples changes."""

    version_id: str
    added: str
    deleted: str

    def payload(self, tenant: str) -> bytes:
        return json.dumps(
            {
                "tenant": tenant,
                "added": self.added,
                "deleted": self.deleted,
                "version_id": self.version_id,
            }
        ).encode("utf-8")


@dataclass
class World:
    """The files the server is started on, plus what the client needs."""

    tenant: str
    kb_dir: Path
    users_path: Path
    user_ids: List[str]
    head_pair: Tuple[str, str]


def write_world(directory: Path) -> World:
    """Save the served world as a binary store plus its users file."""
    world = generate_world(seed=WORLD_SEED, config=world_config(SERVED_VERSIONS))
    users = world.users
    kb_dir = directory / "kb"
    users_path = directory / "users.json"
    save_kb(world.kb, kb_dir, format="binary")
    save_users(users, users_path)
    ids = world.kb.version_ids()
    return World(
        tenant=world.kb.name,
        kb_dir=kb_dir,
        users_path=users_path,
        user_ids=[user.user_id for user in users],
        head_pair=(ids[-2], ids[-1]),
    )


def delta_stream(n_commits: int) -> List[Delta]:
    """The version i -> i+1 diffs of the served world generated with more versions.

    The generators derive independent child seeds per component, so the
    longer world's first three versions equal the served world's and each
    delta applies to the served head in order.
    """
    world = generate_world(
        seed=WORLD_SEED, config=world_config(SERVED_VERSIONS + n_commits)
    )
    versions = list(world.kb)
    stream = []
    for parent, child in zip(versions[SERVED_VERSIONS - 1 :], versions[SERVED_VERSIONS:]):
        before, after = set(parent.graph), set(child.graph)
        stream.append(
            Delta(
                version_id=child.version_id,
                added=serialize(after - before),
                deleted=serialize(before - after),
            )
        )
    return stream


def zipf_table(seed: int, label: str, n_users: int, size: int = TABLE_SIZE) -> List[int]:
    """``size`` user indices drawn from Zipf(1.1) over a seeded rank order."""
    rng = random.Random(derive_seed(seed, label))
    ranks = list(range(n_users))
    rng.shuffle(ranks)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n_users)]
    return [ranks[r] for r in rng.choices(range(n_users), weights=weights, k=size)]


def rotation(seed: int, label: str, n_users: int) -> List[int]:
    """A seeded order of all user indices."""
    order = list(range(n_users))
    random.Random(derive_seed(seed, label)).shuffle(order)
    return order


def coin_table(seed: int, label: str, size: int = TABLE_SIZE) -> List[bool]:
    """``size`` seeded fair coin flips."""
    rng = random.Random(derive_seed(seed, label))
    return [rng.random() < 0.5 for _ in range(size)]


class Reference:
    """Serial in-process replay of the served world (and its commit stream)."""

    def __init__(self, world: World) -> None:
        self.tenant = world.tenant
        self._service = RecommendationService(
            ServiceConfig(k=K, workers=1, engine=EngineConfig(k=K, spread_depth=1))
        )
        self._service.add_tenant(
            world.tenant, load_kb(world.kb_dir), load_users(world.users_path)
        )

    def commit(self, delta: Delta) -> None:
        self._service.commit_changes(
            self.tenant,
            added=list(parse_graph(delta.added)),
            deleted=list(parse_graph(delta.deleted)),
            version_id=delta.version_id,
        )

    def body(self, pair: Tuple[str, str], user_id: str) -> bytes:
        """The exact ``/recommend`` body for ``user_id`` on ``pair``."""
        return self._service.recommend_cached(
            self.tenant, user_id, k=K, old_id=pair[0], new_id=pair[1]
        ).body

    def bodies(self, pair: Tuple[str, str], user_ids: Sequence[str]) -> Dict[str, bytes]:
        return {user_id: self.body(pair, user_id) for user_id in user_ids}

    def close(self) -> None:
        self._service.close()
