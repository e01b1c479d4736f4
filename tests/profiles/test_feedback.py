"""Unit tests for the feedback store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiles.feedback import FeedbackEvent, FeedbackStore


class TestFeedbackEvent:
    def test_valid(self):
        e = FeedbackEvent("u1", "m:c", 0.5)
        assert e.rating == 0.5

    @pytest.mark.parametrize("rating", [-0.1, 1.1])
    def test_rating_bounds(self, rating):
        with pytest.raises(ValueError):
            FeedbackEvent("u1", "m:c", rating)

    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError):
            FeedbackEvent("", "m:c", 0.5)
        with pytest.raises(ValueError):
            FeedbackEvent("u1", "", 0.5)


class TestFeedbackStore:
    def test_rating_none_when_missing(self):
        assert FeedbackStore().rating("u1", "x") is None

    def test_rating_averages_repeats(self):
        store = FeedbackStore(
            [FeedbackEvent("u1", "x", 1.0), FeedbackEvent("u1", "x", 0.0)]
        )
        assert store.rating("u1", "x") == 0.5

    def test_ratings_by_user(self):
        store = FeedbackStore(
            [
                FeedbackEvent("u1", "x", 1.0),
                FeedbackEvent("u1", "y", 0.2),
                FeedbackEvent("u2", "x", 0.8),
            ]
        )
        assert store.ratings_by_user("u1") == {"x": 1.0, "y": 0.2}

    def test_ratings_by_item(self):
        store = FeedbackStore(
            [FeedbackEvent("u1", "x", 1.0), FeedbackEvent("u2", "x", 0.5)]
        )
        assert store.ratings_by_item("x") == {"u1": 1.0, "u2": 0.5}

    def test_users_items_sorted(self):
        store = FeedbackStore(
            [FeedbackEvent("b", "z", 0.1), FeedbackEvent("a", "y", 0.2)]
        )
        assert store.users() == ["a", "b"]
        assert store.items() == ["y", "z"]

    def test_popularity_sums_ratings(self):
        store = FeedbackStore(
            [
                FeedbackEvent("u1", "x", 1.0),
                FeedbackEvent("u2", "x", 0.5),
                FeedbackEvent("u1", "y", 0.2),
            ]
        )
        pop = store.popularity()
        assert pop["x"] == 1.5 and pop["y"] == 0.2

    def test_matrix_layout(self):
        store = FeedbackStore(
            [FeedbackEvent("u1", "x", 1.0), FeedbackEvent("u2", "y", 0.5)]
        )
        users, items, matrix = store.matrix()
        assert users == ["u1", "u2"] and items == ["x", "y"]
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == 1.0 and matrix[1, 1] == 0.5
        assert matrix[0, 1] == 0.0

    def test_len_and_iter(self):
        events = [FeedbackEvent("u1", "x", 1.0), FeedbackEvent("u1", "x", 0.5)]
        store = FeedbackStore(events)
        assert len(store) == 2
        assert list(store) == events


events = st.builds(
    FeedbackEvent,
    user_id=st.sampled_from(["u1", "u2", "u3"]),
    item_key=st.sampled_from(["m:a", "m:b", "m:c", "m:d"]),
    rating=st.floats(0.0, 1.0),
)


def _scan_ratings_by_user(stream, user_id):
    """Every item's mean rating for ``user_id``, in first-event order, by brute force."""
    sums, counts = {}, {}
    for event in stream:
        if event.user_id == user_id:
            sums[event.item_key] = sums.get(event.item_key, 0.0) + event.rating
            counts[event.item_key] = counts.get(event.item_key, 0) + 1
    return {item: sums[item] / counts[item] for item in sums}


@settings(max_examples=100, deadline=None)
@given(stream=st.lists(events, max_size=40), split=st.integers(0, 40))
def test_ratings_by_user_equals_a_scan_of_every_event(stream, split):
    store = FeedbackStore(stream[:split])
    for event in stream[split:]:
        store.add(event)
    for user_id in ("u1", "u2", "u3", "nobody"):
        expected = _scan_ratings_by_user(stream, user_id)
        actual = store.ratings_by_user(user_id)
        assert list(actual.items()) == list(expected.items())
