"""Feedback: recorded interactions between users and recommendation items.

The collaborative half of the relatedness perspective learns from these
events; the synthetic generator (:mod:`repro.synthetic.users`) produces them
with known ground truth so rankings can be evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple


@dataclass(frozen=True)
class FeedbackEvent:
    """One interaction: ``user_id`` rated ``item_key`` with ``rating``.

    ``item_key`` is the stable string key of a recommendation item (see
    :meth:`repro.recommender.items.RecommendationItem.key`).  Ratings are
    in [0, 1]: 1.0 = strong positive signal, 0.0 = explicit negative.
    """

    user_id: str
    item_key: str
    rating: float

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ValueError("user_id must be non-empty")
        if not self.item_key:
            raise ValueError("item_key must be non-empty")
        if not 0.0 <= self.rating <= 1.0:
            raise ValueError(f"rating must be in [0, 1], got {self.rating}")


class FeedbackStore:
    """An append-only store of feedback events with rating aggregation.

    Repeated events for the same (user, item) pair are averaged, which
    matches how implicit-feedback pipelines usually de-noise repeated
    impressions.
    """

    def __init__(self, events: Iterable[FeedbackEvent] = ()) -> None:
        self._events: List[FeedbackEvent] = []
        self._sums: Dict[Tuple[str, str], float] = {}
        self._counts: Dict[Tuple[str, str], int] = {}
        # user -> that user's (user, item) keys, in first-event order.
        self._user_keys: Dict[str, List[Tuple[str, str]]] = {}
        for event in events:
            self.add(event)

    def add(self, event: FeedbackEvent) -> None:
        """Record one event."""
        self._events.append(event)
        key = (event.user_id, event.item_key)
        count = self._counts.get(key, 0)
        if not count:
            self._user_keys.setdefault(event.user_id, []).append(key)
        self._sums[key] = self._sums.get(key, 0.0) + event.rating
        self._counts[key] = count + 1

    def rating(self, user_id: str, item_key: str) -> float | None:
        """Mean rating of the pair, or None when never rated."""
        key = (user_id, item_key)
        if key not in self._counts:
            return None
        return self._sums[key] / self._counts[key]

    def ratings_by_user(self, user_id: str) -> Dict[str, float]:
        """Mean rating of every item the user interacted with, in the order
        of each item's first event."""
        sums, counts = self._sums, self._counts
        return {key[1]: sums[key] / counts[key] for key in self._user_keys.get(user_id, ())}

    def ratings_by_item(self, item_key: str) -> Dict[str, float]:
        """Mean rating of every user who interacted with the item."""
        result: Dict[str, float] = {}
        for (uid, key), count in self._counts.items():
            if key == item_key:
                result[uid] = self._sums[(uid, key)] / count
        return result

    def users(self) -> List[str]:
        """Distinct user ids with at least one event, sorted."""
        return sorted({uid for uid, _ in self._counts})

    def items(self) -> List[str]:
        """Distinct item keys with at least one event, sorted."""
        return sorted({key for _, key in self._counts})

    def popularity(self) -> Dict[str, float]:
        """Per-item sum of ratings (the popularity baseline's signal)."""
        totals: Dict[str, float] = {}
        for (_, item_key), total in self._sums.items():
            totals[item_key] = totals.get(item_key, 0.0) + total
        return totals

    def matrix(self) -> Tuple[List[str], List[str], "FeedbackMatrix"]:
        """Dense user x item mean-rating matrix (numpy) plus its labels."""
        import numpy as np

        users = self.users()
        items = self.items()
        data = np.zeros((len(users), len(items)), dtype=float)
        user_index = {u: i for i, u in enumerate(users)}
        item_index = {k: j for j, k in enumerate(items)}
        for (uid, key), count in self._counts.items():
            data[user_index[uid], item_index[key]] = self._sums[(uid, key)] / count
        return users, items, data

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FeedbackEvent]:
        return iter(self._events)


# Type alias for documentation purposes; the matrix is a plain numpy array.
FeedbackMatrix = "numpy.ndarray"
