"""Oracle tests for the byte-level fast paths of the incremental crawl.

The carry-forward path reads parent shard lines as text: it scans record
keys (``_scan_string_field``, ``_scan_policy_urls``), serializes store lists
(``_serialize_store_list``) and splices this epoch's discovery index and
store list into a carried line (``_restamp_carried_line``) instead of
parsing and re-encoding it.  Each helper must give the answer of
``json.loads`` plus ``canonical_json`` or, for the helpers with a fallback,
``None``; never a different answer.  Records are hypothesis-generated with
the shard schema (``gpt_to_payload``) and adversarial strings: escapes,
quotes, backslashes, brackets, control and non-ASCII characters, and the
helpers' own key markers inside values.  The longitudinal report's
content key (``gpt_line_content_key``) uses the same splice and is checked
the same way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.crawler.corpus import CrawledAction, CrawledGPT
from repro.crawler.policy_fetcher import PolicyFetchResult
from repro.io import canonical_json, gpt_to_payload, policy_to_payload
from repro.io.shards import (
    DISCOVERY_INDEX_KEY,
    _payload_gpt_id,
    _payload_policy_url,
    _restamp_carried_line,
    _scan_policy_urls,
    _serialize_store_list,
    gpt_content_key,
    gpt_line_content_key,
)

#: Pieces that break naive scanning: JSON syntax, escapes, control and
#: non-ASCII characters, and the key markers the fast paths search for.
_FRAGMENTS = [
    '"', "\\", "]", "[", ",", "}", "{", ":", "\n", "\t", "\x00", "\x1f", "\x7f",
    "é", "中文", " ", "😀", "https://example.com/privacy",
    '"gpt_id":"', '"url":"', '"discovery_index":', '"source_stores":[',
    '"legal_info_url":"', "],", "]}",
]

adversarial_text = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=6)), max_size=6
).map("".join)

#: Mostly plain names, so the fast paths (not only their fallbacks) run.
plain_text = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-./:", max_size=24)
field_text = st.one_of(plain_text, adversarial_text)

actions = st.builds(
    CrawledAction,
    action_id=field_text,
    title=field_text,
    description=field_text,
    server_url=field_text,
    legal_info_url=st.one_of(st.none(), st.just(""), field_text),
    functionality=field_text,
    auth_type=field_text,
    parameters=st.lists(st.tuples(field_text, field_text), max_size=3),
)

store_lists = st.lists(field_text, max_size=4)

gpts = st.builds(
    CrawledGPT,
    gpt_id=field_text,
    name=field_text,
    description=field_text,
    author_name=field_text,
    author_website=st.one_of(st.none(), field_text),
    vendor_domain=st.one_of(st.none(), field_text),
    tags=st.lists(field_text, max_size=3),
    tool_types=st.lists(field_text, max_size=3),
    actions=st.lists(actions, max_size=3),
    n_files=st.integers(min_value=0, max_value=50),
    source_stores=store_lists,
)

discovery_indices = st.integers(min_value=0, max_value=10**12)


def _gpt_line(gpt: CrawledGPT, discovery_index: int) -> str:
    """One GPT shard line, exactly as the shard writer encodes it."""
    payload = gpt_to_payload(gpt)
    payload[DISCOVERY_INDEX_KEY] = discovery_index
    return canonical_json(payload)


@settings(deadline=None)
@given(gpt=gpts, discovery_index=discovery_indices)
def test_gpt_id_scan_matches_json(gpt, discovery_index):
    line = _gpt_line(gpt, discovery_index)
    assert _payload_gpt_id(line) == json.loads(line)["gpt_id"]


@settings(deadline=None)
@given(
    url=field_text,
    status=st.integers(min_value=0, max_value=599),
    text=st.one_of(st.none(), field_text),
    error=st.one_of(st.none(), field_text),
)
def test_policy_url_scan_matches_json(url, status, text, error):
    line = canonical_json(policy_to_payload(PolicyFetchResult(url, status, text, error)))
    assert _payload_policy_url(line) == json.loads(line)["url"]


@settings(deadline=None)
@given(gpt=gpts, discovery_index=discovery_indices)
def test_policy_url_list_scan_matches_json_or_falls_back(gpt, discovery_index):
    line = _gpt_line(gpt, discovery_index)
    expected = [
        action["legal_info_url"]
        for action in json.loads(line)["actions"]
        if action["legal_info_url"]
    ]
    assert _scan_policy_urls(line) in (expected, None)


@given(stores=store_lists)
def test_store_list_serialization_matches_canonical_json_or_falls_back(stores):
    assert _serialize_store_list(stores) in (canonical_json(stores), None)


@settings(deadline=None)
@given(
    gpt=gpts,
    old_index=discovery_indices,
    new_index=discovery_indices,
    new_stores=store_lists,
)
def test_restamped_line_matches_a_fresh_encoding_or_falls_back(
    gpt, old_index, new_index, new_stores
):
    line = _gpt_line(gpt, old_index)
    record = json.loads(line)
    record[DISCOVERY_INDEX_KEY] = new_index
    record["source_stores"] = new_stores
    restamped = _restamp_carried_line(line, new_index, canonical_json(new_stores))
    assert restamped in (canonical_json(record), None)


def test_plain_records_take_the_fast_paths():
    """Generated records never need a fallback: the fast paths really run."""
    action = CrawledAction(
        action_id="a-1", title="Weather", description="Forecasts", server_url="https://api.w.io",
        legal_info_url="https://w.io/privacy", functionality="weather", auth_type="none",
        parameters=[("city", "The city name")],
    )
    gpt = CrawledGPT(
        gpt_id="g-1", name="Weather GPT", description="Tells the weather", author_name="W",
        author_website=None, vendor_domain="w.io", actions=[action],
        source_stores=["gptstore.ai"],
    )
    line = _gpt_line(gpt, 7)
    assert _scan_policy_urls(line) == ["https://w.io/privacy"]
    stores_json = _serialize_store_list(["gptstore.ai", "plugin.surf"])
    assert stores_json == canonical_json(["gptstore.ai", "plugin.surf"])
    expected = json.loads(line)
    expected.update({DISCOVERY_INDEX_KEY: 42, "source_stores": ["gptstore.ai", "plugin.surf"]})
    assert _restamp_carried_line(line, 42, stores_json) == canonical_json(expected)


def _content_key_oracle(line: str) -> bytes:
    """sha256 of the parsed record re-encoded with the two fields normalized."""
    record = json.loads(line)
    record[DISCOVERY_INDEX_KEY] = 0
    record["source_stores"] = []
    return hashlib.sha256(canonical_json(record).encode("utf-8")).digest()


@settings(deadline=None)
@given(gpt=gpts, discovery_index=discovery_indices)
def test_line_content_key_matches_the_parsed_payload(gpt, discovery_index):
    """Spliced or parsed, a line's key is its canonical payload's key."""
    line = _gpt_line(gpt, discovery_index)
    key = gpt_line_content_key(line)
    assert key == _content_key_oracle(line)
    # The in-memory corpus path keys the same record identically.
    assert key == gpt_content_key(gpt_to_payload(gpt))


def test_refused_lines_take_the_parse_path_with_the_same_key():
    action = CrawledAction(
        action_id="a-1", title="T", description="D", server_url="https://s.io",
        legal_info_url="https://s.io/privacy", functionality="f", auth_type="none",
        parameters=[],
    )
    # A store name hiding ']' and a quote makes the splice refuse the line.
    gpt = CrawledGPT(
        gpt_id="g-1", name="N", description="D", author_name="A", author_website=None,
        vendor_domain=None, actions=[action], source_stores=['odd"]store'],
    )
    line = _gpt_line(gpt, 3)
    assert _restamp_carried_line(line, 0, "[]") is None
    assert gpt_line_content_key(line) == _content_key_oracle(line)
    # A schema-1 line has no discovery index to splice.
    legacy = canonical_json(gpt_to_payload(gpt))
    assert _restamp_carried_line(legacy, 0, "[]") is None
    assert gpt_line_content_key(legacy) == gpt_line_content_key(line)
    # Moving in the frontier or between stores keeps the key; content does not.
    moved = replace(gpt, source_stores=["gptstore.ai"])
    assert gpt_line_content_key(_gpt_line(moved, 99)) == gpt_line_content_key(line)
    edited = replace(gpt, description="D2")
    assert gpt_line_content_key(_gpt_line(edited, 3)) != gpt_line_content_key(line)
