"""Measurement analyses over a classified crawl corpus.

Each module reproduces one slice of the paper's evaluation (Section 4 and 5):
crawl statistics (Table 1), tool usage (Table 3), data-collection trends
(Table 4, Figure 7), taxonomy coverage (Figure 3), prohibited-data collection
(Section 4.2.2), prevalent third-party Actions (Table 5), multi-Action GPTs
and the co-occurrence graph (Section 4.4, Figure 8), and disclosure
consistency (Figures 9–12, Table 7).  :class:`MeasurementSuite` runs the whole
pipeline once and exposes every analysis from a single object.

Every corpus-driven analyzer is built on a streaming *accumulator*
(``update``/``merge``/``finalize``).  The suite runs them shard-parallel
over any :class:`~repro.io.CorpusSource` (:mod:`repro.analysis.streaming`);
the ``analyze_*`` functions run the same accumulators in one pass over an
in-memory corpus, with byte-identical results.
"""

from repro.analysis.party import ActionPartyIndex, build_party_index
from repro.analysis.crawlstats import CrawlStatsAnalysis, analyze_crawl_stats
from repro.analysis.tools import ToolUsageAnalysis, analyze_tool_usage
from repro.analysis.collection import (
    CollectionAnalysis,
    DataTypeCollectionRow,
    analyze_collection,
)
from repro.analysis.coverage import CoverageAnalysis, analyze_coverage
from repro.analysis.prohibited import ProhibitedDataAnalysis, analyze_prohibited
from repro.analysis.prevalence import PrevalentActionRow, PrevalenceAnalysis, analyze_prevalence
from repro.analysis.multiaction import MultiActionAnalysis, analyze_multi_action
from repro.analysis.cooccurrence import CooccurrenceAnalysis, analyze_cooccurrence
from repro.analysis.disclosure import (
    DisclosureAnalysis,
    analyze_disclosure,
)
from repro.analysis.streaming import STREAMABLE_ANALYSES, ShardAnalysisRunner
from repro.analysis.suite import MeasurementSuite

__all__ = [
    "ActionPartyIndex",
    "build_party_index",
    "STREAMABLE_ANALYSES",
    "ShardAnalysisRunner",
    "CrawlStatsAnalysis",
    "analyze_crawl_stats",
    "ToolUsageAnalysis",
    "analyze_tool_usage",
    "CollectionAnalysis",
    "DataTypeCollectionRow",
    "analyze_collection",
    "CoverageAnalysis",
    "analyze_coverage",
    "ProhibitedDataAnalysis",
    "analyze_prohibited",
    "PrevalentActionRow",
    "PrevalenceAnalysis",
    "analyze_prevalence",
    "MultiActionAnalysis",
    "analyze_multi_action",
    "CooccurrenceAnalysis",
    "analyze_cooccurrence",
    "DisclosureAnalysis",
    "analyze_disclosure",
    "MeasurementSuite",
]
