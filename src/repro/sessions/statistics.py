"""Session progress statistics.

The demo "always show[s] in our interface basic statistics about the progress
of learning: the total number (and the relative percentage) of tuples that
have been explicitly labeled by the user or deemed as uninformative, etc.".
:class:`SessionStatistics` is that panel in data form.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.state import InferenceState


@dataclass(frozen=True)
class SessionStatistics:
    """Progress of one labeling session over a candidate table."""

    total_tuples: int
    labeled_positive: int
    labeled_negative: int
    grayed_out: int
    informative_remaining: int

    @property
    def labeled(self) -> int:
        """Tuples explicitly labeled by the user."""
        return self.labeled_positive + self.labeled_negative

    @property
    def labeled_pct(self) -> float:
        """Percentage of tuples explicitly labeled."""
        return 100.0 * self.labeled / self.total_tuples if self.total_tuples else 0.0

    @property
    def grayed_out_pct(self) -> float:
        """Percentage of tuples deemed uninformative (grayed out)."""
        return 100.0 * self.grayed_out / self.total_tuples if self.total_tuples else 0.0

    @property
    def informative_pct(self) -> float:
        """Percentage of tuples still informative."""
        return (
            100.0 * self.informative_remaining / self.total_tuples if self.total_tuples else 0.0
        )

    @property
    def resolved(self) -> int:
        """Tuples whose label is known one way or another (labeled or implied)."""
        return self.labeled + self.grayed_out

    @property
    def is_complete(self) -> bool:
        """Whether no informative tuple remains."""
        return self.informative_remaining == 0

    @classmethod
    def from_state(cls, state: InferenceState) -> SessionStatistics:
        """Snapshot the statistics of an inference state.

        Type-level: the counts come from the example set and the state's
        per-type table, so the snapshot never sweeps the candidate table.
        """
        total_tuples = len(state.table)
        labeled_positive = len(state.examples.positives)
        labeled_negative = len(state.examples.negatives)
        informative = state.informative_count()
        grayed_out = total_tuples - labeled_positive - labeled_negative - informative
        return cls(
            total_tuples=total_tuples,
            labeled_positive=labeled_positive,
            labeled_negative=labeled_negative,
            grayed_out=grayed_out,
            informative_remaining=informative,
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dictionary form (counts and percentages), for logging/rendering."""
        return {
            "total_tuples": self.total_tuples,
            "labeled": self.labeled,
            "labeled_positive": self.labeled_positive,
            "labeled_negative": self.labeled_negative,
            "labeled_pct": round(self.labeled_pct, 2),
            "grayed_out": self.grayed_out,
            "grayed_out_pct": round(self.grayed_out_pct, 2),
            "informative_remaining": self.informative_remaining,
            "informative_pct": round(self.informative_pct, 2),
        }

    def summary(self) -> str:
        """One-line human-readable progress summary."""
        return (
            f"{self.labeled}/{self.total_tuples} labeled ({self.labeled_pct:.0f}%), "
            f"{self.grayed_out} grayed out ({self.grayed_out_pct:.0f}%), "
            f"{self.informative_remaining} informative remaining"
        )
