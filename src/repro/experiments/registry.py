"""The experiment registry: one driver per paper table / figure / statistic.

Every single-run experiment (``run_table1`` … ``run_disclosure_headlines``)
also has a *sweep-aggregated* variant that replays the same paper comparison
against across-seed means from a multi-scenario sweep
(:mod:`repro.experiments.sweep`): see :data:`SWEEP_EXPERIMENTS`,
:func:`run_sweep_experiment`, and :func:`run_all_sweep_experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.analysis.suite import MeasurementSuite
from repro.experiments.paper_values import PAPER_VALUES
from repro.policy.labels import ConsistencyLabel
from repro.reporting import figures, tables

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from repro.experiments.sweep import SweepReport


@dataclass
class ExperimentResult:
    """The outcome of one experiment run."""

    experiment_id: str
    title: str
    paper_values: Dict[str, object]
    measured_values: Dict[str, object]
    artifact: str = ""

    def comparison_rows(self) -> List[tuple]:
        """Rows of (metric, paper, measured) for every shared metric."""
        rows = []
        for key in self.paper_values:
            if key in self.measured_values:
                rows.append((key, self.paper_values[key], self.measured_values[key]))
        return rows


#: An experiment maps a measurement suite to a result.
Experiment = Callable[[MeasurementSuite], ExperimentResult]


def _result(
    experiment_id: str, title: str, measured: Dict[str, object], artifact: str = ""
) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        paper_values=dict(PAPER_VALUES.get(experiment_id, {})),
        measured_values=measured,
        artifact=artifact,
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------
def run_table1(suite: MeasurementSuite) -> ExperimentResult:
    """Table 1 — GPTs successfully crawled per store."""
    stats = suite.crawl_stats
    sorted_counts = stats.sorted_store_counts()
    measured = {
        "total_unique_gpts": stats.total_unique_gpts,
        "n_stores": len(stats.per_store_counts),
        "largest_store": sorted_counts[0][0] if sorted_counts else "",
        "largest_store_count": sorted_counts[0][1] if sorted_counts else 0,
        "smallest_store_count": sorted_counts[-1][1] if sorted_counts else 0,
    }
    return _result(
        "table1", "Table 1: GPTs crawled per store", measured, tables.render_table1(stats)
    )


def run_table3(suite: MeasurementSuite) -> ExperimentResult:
    """Table 3 — tool usage in GPTs."""
    tools = suite.tool_usage
    measured = {
        "browser": tools.share("browser"),
        "dalle": tools.share("dalle"),
        "code_interpreter": tools.share("code_interpreter"),
        "knowledge": tools.share("knowledge"),
        "actions": tools.share("action"),
        "any_tool": tools.any_tool_share,
        "online_services": tools.online_service_share,
        "first_party_actions": tools.first_party_action_share,
        "third_party_actions": tools.third_party_action_share,
    }
    return _result("table3", "Table 3: tool usage in GPTs", measured, tables.render_table3(tools))


def run_table4(suite: MeasurementSuite) -> ExperimentResult:
    """Table 4 — data types collected via first-/third-party Actions."""
    collection = suite.collection

    def gpt_share(category: str, data_type: str) -> float:
        row = collection.row_for(category, data_type)
        return row.gpt_share if row else 0.0

    top_rows = collection.top_rows()
    measured = {
        "n_categories": collection.n_categories_observed(),
        "n_data_types": collection.n_types_observed(),
        "search_query_gpt_share": gpt_share("Query", "Search query"),
        "urls_gpt_share": gpt_share("Web and network data", "URLs"),
        "user_interaction_gpt_share": gpt_share("App usage data", "User interaction data"),
        "email_gpt_share": gpt_share("Personal information", "Email address"),
        "api_key_gpt_share": gpt_share("Security credentials", "API key"),
        "password_gpt_share": gpt_share("Security credentials", "Password"),
        "top_type": top_rows[0].data_type if top_rows else "",
    }
    return _result(
        "table4",
        "Table 4: data types collected by Actions",
        measured,
        tables.render_table4(collection, max_rows=40),
    )


def run_table5(suite: MeasurementSuite) -> ExperimentResult:
    """Table 5 — prevalent third-party Actions."""
    prevalence = suite.prevalence

    def share_of(name: str) -> float:
        row = prevalence.row_by_name(name)
        return row.gpt_share if row else 0.0

    top = prevalence.top(1)
    measured = {
        "most_prevalent_action": top[0].name if top else "",
        "webpilot_share": share_of("webPilot"),
        "zapier_share": share_of("Zapier"),
        "adintelli_share": share_of("AdIntelli"),
        "openai_profile_share": share_of("OpenAI Profile"),
        "gapier_share": share_of("Gapier"),
    }
    return _result(
        "table5",
        "Table 5: prevalent third-party Actions",
        measured,
        tables.render_table5(prevalence),
    )


def run_table6(suite: MeasurementSuite) -> ExperimentResult:
    """Table 6 — content of duplicate privacy policies."""
    duplicates = suite.policy_duplicates
    fractions = duplicates.duplicate_content_fractions()
    measured = {
        "external_service": fractions.get("external_service", 0.0),
        "empty": fractions.get("empty", 0.0),
        "same_vendor": fractions.get("same_vendor", 0.0),
        "javascript": fractions.get("javascript", 0.0),
        "openai_policy": fractions.get("openai_policy", 0.0),
        "tracking_pixel": fractions.get("tracking_pixel", 0.0),
    }
    return _result(
        "table6",
        "Table 6: duplicate privacy-policy content",
        measured,
        tables.render_table6(duplicates),
    )


def run_table7(suite: MeasurementSuite) -> ExperimentResult:
    """Table 7 — Actions with five or more consistent disclosures."""
    disclosure = suite.disclosure
    rows = disclosure.top_consistent_actions(min_clear=5)
    measured = {
        "fully_consistent_action_share": disclosure.fully_consistent_share,
        "example_actions": [row.name for row in rows[:6]],
        "n_actions_with_5_plus_consistent": len(rows),
    }
    return _result(
        "table7",
        "Table 7: Actions with consistent disclosures",
        measured,
        tables.render_table7(disclosure),
    )


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------
def run_figure3(suite: MeasurementSuite) -> ExperimentResult:
    """Figure 3 — taxonomy coverage CDF."""
    coverage = suite.coverage
    category_values = list(coverage.category_coverage.values())
    measured = {
        "min_descriptions_per_category": min(category_values) if category_values else 0,
        "median_descriptions_per_category": coverage.median_coverage("category"),
        "types_covering_10_plus": coverage.share_covering_at_least(10, level="type"),
        "total_distinct_descriptions": coverage.n_distinct_descriptions,
    }
    series = figures.figure3_series(coverage)
    artifact = "\n".join(f"{s.name}: {len(s.points)} CDF points" for s in series)
    return _result("figure3", "Figure 3: taxonomy coverage", measured, artifact)


def run_figure7(suite: MeasurementSuite) -> ExperimentResult:
    """Figure 7 — data items per Action CDF."""
    collection = suite.collection
    measured = {
        "share_actions_5_plus_items": collection.share_with_at_least(5),
        "share_actions_10_plus_items": collection.share_with_at_least(10),
        "third_party_excess": collection.third_party_excess(),
    }
    series = figures.figure7_series(collection)
    artifact = "\n".join(f"{s.name}: {len(s.points)} CDF points" for s in series)
    return _result("figure7", "Figure 7: data items per Action", measured, artifact)


def run_figure8(suite: MeasurementSuite) -> ExperimentResult:
    """Figure 8 — Action co-occurrence graph."""
    cooccurrence = suite.cooccurrence
    multi = suite.multi_action
    summary = figures.figure8_summary(cooccurrence)
    webpilot = cooccurrence.find_by_name("webPilot")
    adintelli = cooccurrence.find_by_name("AdIntelli")
    measured = {
        "webpilot_weighted_degree": cooccurrence.weighted_degree(webpilot) if webpilot else 0,
        "adintelli_weighted_degree": cooccurrence.weighted_degree(adintelli) if adintelli else 0,
        "webpilot_degree": cooccurrence.degree(webpilot) if webpilot else 0,
        "adintelli_degree": cooccurrence.degree(adintelli) if adintelli else 0,
        "webpilot_adintelli_cooccurrences": (
            cooccurrence.cooccurrence_count(webpilot, adintelli) if webpilot and adintelli else 0
        ),
        "cooccurring_action_share": multi.cooccurring_action_share,
        "largest_component_size": summary["largest_component_size"],
    }
    artifact = (
        f"nodes={summary['n_nodes']} edges={summary['n_edges']} "
        f"largest_component={summary['largest_component_size']}"
    )
    return _result("figure8", "Figure 8: Action co-occurrence graph", measured, artifact)


def run_figure9(suite: MeasurementSuite) -> ExperimentResult:
    """Figure 9 — disclosure consistency heat map by category."""
    disclosure = suite.disclosure
    distributions = disclosure.category_distributions

    def fraction(category: str, label: ConsistencyLabel) -> float:
        return distributions.get(category, {}).get(label, 0.0)

    omitted_majorities = [
        distribution.get(ConsistencyLabel.OMITTED, 0.0) > 0.5
        for distribution in distributions.values()
    ]
    measured = {
        "health_omitted": fraction("Health information", ConsistencyLabel.OMITTED),
        "real_estate_omitted": fraction("Real estate data", ConsistencyLabel.OMITTED),
        "personal_information_clear": fraction("Personal information", ConsistencyLabel.CLEAR),
        "message_omitted": fraction("Message", ConsistencyLabel.OMITTED),
        "app_usage_omitted": fraction("App usage data", ConsistencyLabel.OMITTED),
        "most_categories_majority_omitted": (
            sum(omitted_majorities) > len(omitted_majorities) / 2 if omitted_majorities else False
        ),
    }
    rows = figures.figure9_heatmap(disclosure)
    artifact = "\n".join(
        f"{category}: " + ", ".join(f"{label}={value:.1%}" for label, value in distribution.items())
        for category, distribution in rows[:8]
    )
    return _result("figure9", "Figure 9: disclosure consistency by category", measured, artifact)


def run_figure10(suite: MeasurementSuite) -> ExperimentResult:
    """Figure 10 — disclosure consistency for prevalent data types."""
    disclosure = suite.disclosure
    rows = disclosure.prevalent_type_rows(min_occurrences=5)
    search_query = next(
        (total for (category, data_type), _, total in rows if data_type == "Search query"), 0
    )
    least_omitted = sorted(
        (
            (
                data_type,
                counts.get(ConsistencyLabel.OMITTED, 0) / max(1, total),
            )
            for (category, data_type), counts, total in rows
        ),
        key=lambda item: item[1],
    )
    measured = {
        "search_query_occurrences": search_query,
        "least_omitted_types": [name for name, _ in least_omitted[:3]],
        "n_prevalent_types": len(rows),
    }
    artifact = "\n".join(
        f"{key[0]} / {key[1]}: total={total}" for key, _, total in rows[:10]
    )
    return _result("figure10", "Figure 10: disclosure consistency by data type", measured, artifact)


def run_figure11(suite: MeasurementSuite) -> ExperimentResult:
    """Figure 11 — CDF of per-Action disclosure mixes."""
    disclosure = suite.disclosure
    measured = {
        "majority_consistent_action_share": disclosure.majority_consistent_share,
        "min_inconsistent_share": 1.0 - disclosure.majority_consistent_share,
        "n_actions": disclosure.n_actions_analyzed,
    }
    series = figures.figure11_series(disclosure)
    artifact = "\n".join(f"{s.name}: {len(s.points)} CDF points" for s in series)
    return _result("figure11", "Figure 11: per-Action disclosure mix", measured, artifact)


def run_figure12(suite: MeasurementSuite) -> ExperimentResult:
    """Figure 12 — disclosure consistency versus data-item count."""
    disclosure = suite.disclosure
    measured = {
        "spearman_correlation": disclosure.spearman_consistency_vs_items(),
        "n_points": len(disclosure.consistency_vs_items),
    }
    series = figures.figure12_series(disclosure)
    artifact = f"{len(series.points)} (item count, consistency) points"
    return _result("figure12", "Figure 12: consistency vs collected items", measured, artifact)


# ---------------------------------------------------------------------------
# In-text statistics
# ---------------------------------------------------------------------------
def run_taxonomy_refinement(suite: MeasurementSuite) -> ExperimentResult:
    """Section 3.2.4 — handling of ``Other`` descriptions and taxonomy growth.

    Classifies a sample of data descriptions against the *bootstrap* taxonomy
    (18 categories / 79 types), runs the Code 4 refinement loop over the
    descriptions that fell to ``Other``, and measures how much the taxonomy
    grows and how far the residual ``Other`` rate drops — the paper goes from
    35.07% unclassified to 7.95% while growing the taxonomy to 24×145.
    """
    from repro.classification.classifier import ClassifierConfig, DataCollectionClassifier
    from repro.classification.descriptions import sample_descriptions
    from repro.classification.other_handler import OtherDescriptionHandler
    from repro.taxonomy.bootstrap import load_bootstrap_taxonomy

    bootstrap = load_bootstrap_taxonomy()
    descriptions = sample_descriptions(
        suite.descriptions, min(400, len(suite.descriptions)), seed=suite.config.seed + 3
    )
    classifier = DataCollectionClassifier(
        taxonomy=bootstrap,
        llm=suite.llm,
        fewshot_store=suite.fewshot_store,
        config=ClassifierConfig(fewshot_k=suite.config.fewshot_k, two_phase=False),
    )
    initial = classifier.classify_many(descriptions)
    handler = OtherDescriptionHandler(bootstrap, suite.llm)
    outcome = handler.handle(initial, fewshot_store=suite.fewshot_store)
    merged = handler.apply(initial, outcome)
    extended = outcome.extended_taxonomy
    measured = {
        "initial_other_rate": initial.other_rate(),
        "final_other_rate": merged.other_rate(),
        "accepted_new_categories": outcome.refinement_report.n_new_categories,
        "accepted_new_types": outcome.refinement_report.n_new_types,
        "final_n_categories": extended.n_categories - (1 if extended.has_category("Other") else 0),
        "final_n_types": extended.n_distinct_type_names - (1 if extended.find_type("Other") else 0),
    }
    artifact = (
        f"other rate {initial.other_rate():.1%} -> {merged.other_rate():.1%}; "
        f"taxonomy {bootstrap.n_categories - 1}x{bootstrap.n_types - 1} -> "
        f"{measured['final_n_categories']}x{measured['final_n_types']}"
    )
    return _result("taxonomy_refinement", "Section 3.2.4: taxonomy refinement", measured, artifact)


def run_classifier_accuracy(suite: MeasurementSuite) -> ExperimentResult:
    """Section 4.1.2 — classification accuracy."""
    evaluation = suite.evaluate_classifier(sample_fraction=1.0)
    sample_evaluation = suite.evaluate_classifier(sample_fraction=0.05)
    measured = {
        "category_accuracy": evaluation.category_accuracy,
        "type_accuracy": evaluation.type_accuracy,
        "seed_set_category_accuracy": sample_evaluation.category_accuracy,
        "seed_set_type_accuracy": sample_evaluation.type_accuracy,
    }
    return _result(
        "classifier_accuracy", "Section 4.1.2: classifier accuracy", measured, evaluation.summary()
    )


def run_headline_stats(suite: MeasurementSuite) -> ExperimentResult:
    """Section 4.2 headline statistics."""
    collection = suite.collection
    prohibited = suite.prohibited
    query_row = collection.row_for("Query", "Search query")
    measured = {
        "actions_5_plus_items": collection.share_with_at_least(5),
        "actions_10_plus_items": collection.share_with_at_least(10),
        "third_party_excess": collection.third_party_excess(),
        "prohibited_gpt_share": prohibited.offending_gpt_share,
        "gpt_query_collection_share": query_row.gpt_share if query_row else 0.0,
    }
    return _result("headline_stats", "Section 4.2: headline data-collection statistics", measured)


def run_multiaction(suite: MeasurementSuite) -> ExperimentResult:
    """Section 4.4.1 — multi-Action GPTs."""
    multi = suite.multi_action
    measured = {
        "one_action": multi.share_with_n_actions(1),
        "two_actions": multi.share_with_n_actions(2),
        "three_actions": multi.share_with_n_actions(3),
        "four_plus_actions": multi.share_with_at_least(4),
        "cross_domain_share": multi.cross_domain_share,
        "cooccurring_action_share": multi.cooccurring_action_share,
    }
    return _result("multiaction", "Section 4.4.1: multi-Action GPTs", measured)


def run_policy_stats(suite: MeasurementSuite) -> ExperimentResult:
    """Section 5.1 — policy availability, duplication, and framework accuracy."""
    duplicates = suite.policy_duplicates
    evaluation = suite.evaluate_policy_framework()
    measured = {
        "availability": duplicates.availability,
        "duplicate_share": duplicates.duplicate_share,
        "near_duplicate_share": duplicates.near_duplicate_share,
        "short_policy_share": duplicates.short_share,
        "framework_accuracy": evaluation.accuracy,
        "framework_precision": evaluation.precision,
        "framework_recall": evaluation.recall,
    }
    note = ""
    if duplicates.n_untokenized:
        # Reported only when non-zero, so reports on English corpora keep their bytes.
        measured["untokenized_policies"] = duplicates.n_untokenized
        note = (
            f"{duplicates.n_untokenized} fetched policies have letters but no word "
            "tokens; they were left out of the near-duplicate comparison."
        )
    return _result("policy_stats", "Section 5.1: policy corpus statistics", measured, note)


def run_disclosure_headlines(suite: MeasurementSuite) -> ExperimentResult:
    """Section 5.2 — disclosure-consistency headline statistics."""
    disclosure = suite.disclosure
    overall = disclosure.overall_distribution()
    measured = {
        "majority_consistent_action_share": disclosure.majority_consistent_share,
        "fully_consistent_action_share": disclosure.fully_consistent_share,
        "spearman_correlation": disclosure.spearman_consistency_vs_items(),
        "omitted_dominates": overall[ConsistencyLabel.OMITTED]
        > sum(value for label, value in overall.items() if label is not ConsistencyLabel.OMITTED),
    }
    return _result("disclosure_headlines", "Section 5.2: disclosure headlines", measured)


#: All registered experiments keyed by experiment id.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": run_table1,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
    "figure3": run_figure3,
    "figure7": run_figure7,
    "figure8": run_figure8,
    "figure9": run_figure9,
    "figure10": run_figure10,
    "figure11": run_figure11,
    "figure12": run_figure12,
    "taxonomy_refinement": run_taxonomy_refinement,
    "classifier_accuracy": run_classifier_accuracy,
    "headline_stats": run_headline_stats,
    "multiaction": run_multiaction,
    "policy_stats": run_policy_stats,
    "disclosure_headlines": run_disclosure_headlines,
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (raises ``KeyError`` for unknown ids)."""
    return EXPERIMENTS[experiment_id]


def run_experiment(experiment_id: str, suite: MeasurementSuite) -> ExperimentResult:
    """Run a single experiment on a measurement suite."""
    return get_experiment(experiment_id)(suite)


def run_all_experiments(suite: MeasurementSuite) -> List[ExperimentResult]:
    """Run every registered experiment on a shared measurement suite."""
    return [experiment(suite) for experiment in EXPERIMENTS.values()]


# ---------------------------------------------------------------------------
# Sweep-aggregated variants
# ---------------------------------------------------------------------------
#: A sweep experiment maps an aggregated sweep report to a result.
SweepExperiment = Callable[["SweepReport"], ExperimentResult]


def _make_sweep_experiment(experiment_id: str) -> SweepExperiment:
    """Build the sweep-aggregated variant of one registered experiment.

    The variant compares the paper's reference values against the
    *across-seed mean* of each metric in the sweep's ``baseline`` scenario
    (falling back to the report's first scenario when no ``baseline`` cells
    ran), exposes per-metric spread as ``<metric>:stdev`` /  ``:min`` /
    ``:max`` companions, and renders the cross-scenario comparison table as
    its artifact — the single-run experiment's paper comparison, with error
    bars and scenario deltas attached.
    """

    def run(report: "SweepReport") -> ExperimentResult:
        from repro.reporting.sweep import render_scenario_comparison

        names = report.scenario_names()
        if not names:
            raise ValueError("cannot aggregate an empty sweep report")
        scenario = "baseline" if "baseline" in names else names[0]
        aggregate = report.scenario(scenario)
        measured: Dict[str, object] = {}
        for metric, summary in report.metric_summaries(scenario, experiment_id).items():
            measured[metric] = summary.mean
            measured[f"{metric}:stdev"] = summary.stdev
            measured[f"{metric}:min"] = summary.min
            measured[f"{metric}:max"] = summary.max
        return ExperimentResult(
            experiment_id=f"{experiment_id}@sweep",
            title=(
                f"{experiment_id} (sweep aggregate: {scenario} scenario, "
                f"{aggregate.n_cells} seeds)"
            ),
            paper_values=dict(PAPER_VALUES.get(experiment_id, {})),
            measured_values=measured,
            artifact=render_scenario_comparison(report, experiment_id),
        )

    return run


#: Sweep-aggregated variant of every registered experiment, keyed by the
#: *single-run* experiment id (``run_sweep_experiment("table4", report)``).
SWEEP_EXPERIMENTS: Dict[str, SweepExperiment] = {
    experiment_id: _make_sweep_experiment(experiment_id) for experiment_id in EXPERIMENTS
}


def run_sweep_experiment(experiment_id: str, report: "SweepReport") -> ExperimentResult:
    """Run one experiment's sweep-aggregated variant on a sweep report."""
    return SWEEP_EXPERIMENTS[experiment_id](report)


def run_all_sweep_experiments(report: "SweepReport") -> List[ExperimentResult]:
    """Run every sweep-aggregated experiment variant on a sweep report."""
    return [experiment(report) for experiment in SWEEP_EXPERIMENTS.values()]
