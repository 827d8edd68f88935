"""Policy texts with letters but no word tokens are counted, not dropped.

The tokenizer splits on Latin letters and digits, so a policy in a script
written without spaces (here Chinese) tokenizes to nothing and cannot take
part in the near-duplicate comparison.  The duplicate report counts such
policies, the streamed and in-memory reports agree on the count, and the
``policy_stats`` experiment reports it only when it is non-zero.
"""

from types import SimpleNamespace

from repro.analysis.streaming import ShardAnalysisRunner
from repro.crawler.corpus import CrawlCorpus, CrawledAction, CrawledGPT
from repro.crawler.policy_fetcher import PolicyFetchResult
from repro.experiments.registry import run_policy_stats
from repro.io.shards import ShardedCorpusStore
from repro.policy.duplicates import analyze_policy_corpus

CHINESE = "我们收集您的位置信息。我们分享它。"
ENGLISH = [
    "We collect your email address when you book a trip with us.",
    "We never share your location with advertisers or data brokers.",
    "We collect your email address when you book a flight with us.",
]


def policy_corpus(texts):
    """One GPT with one Action per text, each Action's policy that text."""
    corpus = CrawlCorpus()
    actions = []
    for index, text in enumerate(texts):
        url = f"https://vendor{index}.example/privacy"
        actions.append(
            CrawledAction(
                action_id=f"act-{index:04d}", title=f"Action {index}", description="",
                server_url=f"https://api.vendor{index}.example", legal_info_url=url,
                functionality="Utility", auth_type="none", parameters=[],
            )
        )
        corpus.policies[url] = PolicyFetchResult(url=url, status=200, text=text)
    corpus.gpts["g-policies01"] = CrawledGPT(
        gpt_id="g-policies01", name="Policies", description="", author_name="A",
        author_website=None, vendor_domain=None, actions=actions,
    )
    return corpus


def test_untokenized_policy_is_counted_in_memory_and_streamed(tmp_path):
    # The symbols-only text has no letters, so only the Chinese one counts.
    corpus = policy_corpus(ENGLISH + [CHINESE, "!!! —"])
    report = analyze_policy_corpus(corpus)
    assert report.n_untokenized == 1
    store = ShardedCorpusStore.write_corpus(corpus, tmp_path / "store", n_shards=3)
    with ShardAnalysisRunner(store) as runner:
        streamed = runner.run(["policy_duplicates"])["policy_duplicates"]
    assert streamed == report
    assert analyze_policy_corpus(policy_corpus(ENGLISH)).n_untokenized == 0


def test_policy_stats_reports_untokenized_policies_only_when_present():
    evaluation = SimpleNamespace(accuracy=1.0, precision=1.0, recall=1.0)

    def policy_stats(texts):
        suite = SimpleNamespace(
            policy_duplicates=analyze_policy_corpus(policy_corpus(texts)),
            evaluate_policy_framework=lambda: evaluation,
        )
        return run_policy_stats(suite)

    english = policy_stats(ENGLISH)
    assert "untokenized_policies" not in english.measured_values
    assert english.artifact == ""
    mixed = policy_stats(ENGLISH + [CHINESE])
    assert mixed.measured_values["untokenized_policies"] == 1
    assert "1 fetched policies have letters but no word tokens" in mixed.artifact
