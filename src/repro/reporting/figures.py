"""Series builders for every figure of the paper's evaluation.

Figures are returned as plain data (lists of points or labelled rows) so they
can be printed, asserted against in benchmarks, or plotted by downstream users
with any plotting library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.collection import CollectionAnalysis
from repro.analysis.cooccurrence import CooccurrenceAnalysis
from repro.analysis.coverage import CoverageAnalysis
from repro.analysis.disclosure import DisclosureAnalysis, LABEL_ORDER


@dataclass
class FigureSeries:
    """One named series of (x, y) points."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def xs(self) -> List[float]:
        """X coordinates."""
        return [x for x, _ in self.points]

    @property
    def ys(self) -> List[float]:
        """Y coordinates."""
        return [y for _, y in self.points]


def figure3_series(coverage: CoverageAnalysis) -> List[FigureSeries]:
    """Figure 3: CDF of data-type descriptions covered per category / data type."""
    return [
        FigureSeries(
            name="Data types",
            points=[(float(x), y) for x, y in coverage.coverage_cdf(level="type")],
        ),
        FigureSeries(
            name="Categories",
            points=[(float(x), y) for x, y in coverage.coverage_cdf(level="category")],
        ),
    ]


def figure7_series(collection: CollectionAnalysis) -> List[FigureSeries]:
    """Figure 7: CDF of data items collected per Action, by party."""
    return [
        FigureSeries(
            name="1st party Actions",
            points=[(float(x), y) for x, y in collection.item_count_cdf("first")],
        ),
        FigureSeries(
            name="3rd party Actions",
            points=[(float(x), y) for x, y in collection.item_count_cdf("third")],
        ),
        FigureSeries(
            name="All Actions",
            points=[(float(x), y) for x, y in collection.item_count_cdf(None)],
        ),
    ]


def figure8_summary(cooccurrence: CooccurrenceAnalysis, top_n: int = 6) -> Dict[str, object]:
    """Figure 8: co-occurrence graph summary (nodes, edges, top hubs)."""
    component = cooccurrence.largest_component()
    return {
        "n_nodes": cooccurrence.n_nodes,
        "n_edges": cooccurrence.n_edges,
        "largest_component_size": len(component),
        "top_hubs": cooccurrence.top_by_weighted_degree(top_n),
    }


def figure9_heatmap(disclosure: DisclosureAnalysis) -> List[Tuple[str, Dict[str, float]]]:
    """Figure 9: per-category disclosure-consistency heat map rows."""
    rows: List[Tuple[str, Dict[str, float]]] = []
    for category, distribution in sorted(disclosure.category_distributions.items()):
        rows.append(
            (category, {label.value: distribution.get(label, 0.0) for label in LABEL_ORDER})
        )
    return rows


def figure10_rows(
    disclosure: DisclosureAnalysis, min_occurrences: int = 20
) -> List[Tuple[str, Dict[str, int], int]]:
    """Figure 10: per-data-type disclosure consistency for prevalent types."""
    rows = []
    for (category, data_type), counts, total in disclosure.prevalent_type_rows(min_occurrences):
        rows.append(
            (
                f"{category} / {data_type}",
                {label.value: counts.get(label, 0) for label in LABEL_ORDER},
                total,
            )
        )
    return rows


def figure11_series(disclosure: DisclosureAnalysis) -> List[FigureSeries]:
    """Figure 11: CDF of per-Action disclosure label fractions."""
    return [
        FigureSeries(
            name=label.value.capitalize(),
            points=list(disclosure.label_fraction_cdf(label)),
        )
        for label in LABEL_ORDER
    ]


def figure12_series(disclosure: DisclosureAnalysis) -> FigureSeries:
    """Figure 12: consistency fraction versus collected data-item count."""
    points = sorted(
        ((float(count), fraction * 100.0) for count, fraction in disclosure.consistency_vs_items),
        key=lambda point: point[0],
    )
    return FigureSeries(name="Consistency vs data item count", points=points)
