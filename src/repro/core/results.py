"""Result containers and Table-I-style rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..orchestration.provenance import Provenance


@dataclass
class FoldMetrics:
    """Accuracy/F1 of one evaluation fold."""

    accuracy: float
    f1: float
    fold_id: Optional[int] = None

    def __post_init__(self) -> None:
        for name, value in (("accuracy", self.accuracy), ("f1", self.f1)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class MetricSummary:
    """Mean and std of accuracy/F1 across folds, in percent (paper units)."""

    name: str
    folds: List[FoldMetrics] = field(default_factory=list)
    #: Lineage of the fold-plan stage that produced these folds (executor
    #: shape, cache hits/misses, wall time); None when assembled by hand.
    provenance: Optional[Provenance] = None

    def add(self, fold: FoldMetrics) -> None:
        self.folds.append(fold)

    def __repro_content__(self) -> Tuple:
        # Stable content: the fold metrics only.  Provenance carries
        # wall times, which must never shift a digest.
        return (
            "MetricSummary",
            self.name,
            tuple((f.fold_id, f.accuracy, f.f1) for f in self.folds),
        )

    @property
    def num_folds(self) -> int:
        return len(self.folds)

    def _series(self, attr: str) -> np.ndarray:
        if not self.folds:
            raise ValueError(f"no folds recorded for {self.name!r}")
        return np.array([getattr(f, attr) for f in self.folds]) * 100.0

    @property
    def accuracy_mean(self) -> float:
        return float(self._series("accuracy").mean())

    @property
    def accuracy_std(self) -> float:
        return float(self._series("accuracy").std())

    @property
    def f1_mean(self) -> float:
        return float(self._series("f1").mean())

    @property
    def f1_std(self) -> float:
        return float(self._series("f1").std())

    def as_row(self) -> Dict[str, float]:
        return {
            "accuracy": round(self.accuracy_mean, 2),
            "std_acc": round(self.accuracy_std, 2),
            "f1": round(self.f1_mean, 2),
            "std_f1": round(self.f1_std, 2),
        }

    def __repr__(self) -> str:
        if not self.folds:
            return f"MetricSummary({self.name!r}, empty)"
        return (
            f"MetricSummary({self.name!r}, acc={self.accuracy_mean:.2f}"
            f"±{self.accuracy_std:.2f}, f1={self.f1_mean:.2f}±{self.f1_std:.2f}, "
            f"n={self.num_folds})"
        )


#: Literature reference rows from the paper's Table I (constants; these
#: systems are not re-run, the paper itself cites them as context).
PAPER_TABLE1_REFERENCES: Dict[str, Dict[str, float]] = {
    "Bindi [22]": {"accuracy": 64.63, "std_acc": 16.56, "f1": 66.67, "std_f1": 17.31},
    "Sun et al. [18]": {"accuracy": 79.90, "std_acc": 4.16, "f1": 78.13, "std_f1": 6.52},
}

#: The paper's own measured rows of Table I, for side-by-side reporting.
PAPER_TABLE1_RESULTS: Dict[str, Dict[str, float]] = {
    "General Model": {"accuracy": 75.00, "std_acc": 2.76, "f1": 72.57, "std_f1": 3.12},
    "RT CL": {"accuracy": 64.33, "std_acc": 1.80, "f1": 62.42, "std_f1": 1.57},
    "CL validation": {"accuracy": 81.90, "std_acc": 3.44, "f1": 80.41, "std_f1": 3.58},
    "RT CLEAR": {"accuracy": 72.68, "std_acc": 5.10, "f1": 70.98, "std_f1": 4.26},
    "CLEAR w/o FT": {"accuracy": 80.63, "std_acc": 4.22, "f1": 79.97, "std_f1": 4.74},
    "CLEAR w FT": {"accuracy": 86.34, "std_acc": 4.04, "f1": 86.03, "std_f1": 5.04},
}


def render_table(
    rows: Sequence[MetricSummary],
    title: str = "",
    paper_rows: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Render measured rows (optionally with paper values) as text."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'Validation':<22}{'Acc':>8}{'STD':>8}{'F1':>8}{'STD':>8}"
    if paper_rows:
        header += f"{'paper Acc':>12}{'paper F1':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for summary in rows:
        row = summary.as_row()
        line = (
            f"{summary.name:<22}{row['accuracy']:>8.2f}{row['std_acc']:>8.2f}"
            f"{row['f1']:>8.2f}{row['std_f1']:>8.2f}"
        )
        if paper_rows and summary.name in paper_rows:
            ref = paper_rows[summary.name]
            line += f"{ref['accuracy']:>12.2f}{ref['f1']:>10.2f}"
        lines.append(line)
    return "\n".join(lines)
