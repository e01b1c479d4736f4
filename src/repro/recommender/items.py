"""Recommendation items and packages.

What gets recommended (Section III): *evolution measures* -- more precisely,
a measure applied to a part of the knowledge base the human may care about.
A :class:`RecommendationItem` is a ``(measure, target)`` pair carrying the
measure's (normalised) evolution score for that target; a
:class:`RecommendationPackage` is the ordered set handed to a human or
group, with optional per-item explanations (the transparency perspective).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Mapping, Tuple

from repro.kb.terms import IRI
from repro.measures.base import MeasureFamily, TargetKind

#: Separator in item keys; IRIs cannot contain it (they exclude whitespace
#: and '|' is illegal in our IRI validation), so keys parse unambiguously.
_KEY_SEPARATOR = "||"


@dataclass(frozen=True)
class RecommendationItem:
    """One candidate: an evolution measure focused on one target.

    ``evolution_score`` is the measure's normalised score of the target in
    the evolution context at hand (in [0, 1]; how strongly this part of the
    KB changed *according to this measure*).
    """

    measure_name: str
    family: MeasureFamily
    target_kind: TargetKind
    target: IRI
    evolution_score: float

    def __post_init__(self) -> None:
        if not self.measure_name:
            raise ValueError("measure_name must be non-empty")
        if not 0.0 <= self.evolution_score <= 1.0:
            raise ValueError(
                f"evolution_score must be in [0, 1], got {self.evolution_score}"
            )
        # Every read looks a candidate's key up several times (ranking,
        # score rows, selector tie-breaks); build the string once.
        object.__setattr__(
            self, "_key", f"{self.measure_name}{_KEY_SEPARATOR}{self.target.value}"
        )

    @property
    def key(self) -> str:
        """Stable string key (used by feedback stores and provenance)."""
        return self._key  # type: ignore[attr-defined]

    @staticmethod
    def parse_key(key: str) -> Tuple[str, IRI]:
        """Invert :attr:`key` into ``(measure_name, target IRI)``."""
        measure_name, separator, target = key.partition(_KEY_SEPARATOR)
        if not separator or not measure_name or not target:
            raise ValueError(f"malformed item key: {key!r}")
        return measure_name, IRI(target)

    def describe(self) -> str:
        """Short human-readable form."""
        return f"{self.measure_name} @ {self.target.local_name}"


@dataclass(frozen=True)
class ScoredItem:
    """An item with the utility assigned to it for a particular human."""

    item: RecommendationItem
    utility: float

    def __post_init__(self) -> None:
        if self.utility < 0.0:
            raise ValueError(f"utility must be >= 0, got {self.utility}")


@dataclass(frozen=True)
class RecommendationPackage:
    """The ordered recommendation handed to a user or group."""

    items: Tuple[ScoredItem, ...]
    audience: str  # user id or group id
    explanations: Mapping[str, str] = field(default_factory=dict)  # item key -> text
    metadata: Mapping[str, str] = field(default_factory=dict)

    def keys(self) -> List[str]:
        """Item keys in rank order."""
        return [scored.item.key for scored in self.items]

    def targets(self) -> List[IRI]:
        """Targets in rank order (may repeat across measures)."""
        return [scored.item.target for scored in self.items]

    def measures(self) -> List[str]:
        """Measure names in rank order (may repeat across targets)."""
        return [scored.item.measure_name for scored in self.items]

    def families(self) -> List[MeasureFamily]:
        """Measure families in rank order."""
        return [scored.item.family for scored in self.items]

    def explanation_for(self, item_key: str) -> str:
        """The explanation of one item ('' when absent)."""
        return self.explanations.get(item_key, "")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[ScoredItem]:
        return iter(self.items)
