"""The world generator's RNG fast paths make exactly the draws they replace.

``naming.randbelow`` stands in for ``random.Random.choice`` at the hot call
sites, ``assign_listings`` makes one batched ``choices`` call instead of one
per GPT, and ``NameFactory.gpt_name`` skips building names for a title whose
names are all taken.  Each must leave the same values *and* the same
generator state as the code it replaced, or every world after it changes.
The oracles below are the replaced implementations, kept verbatim, and a
10,000-GPT world whose digest was computed with them.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

from hypothesis import example, given, settings, strategies as st

from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.evolution import evolve_ecosystem
from repro.ecosystem.generator import EcosystemGenerator
from repro.ecosystem.naming import (
    _ADJECTIVES,
    _FIRST_NAMES,
    _LAST_NAMES,
    _PAAS_SUFFIXES,
    _ROLES,
    _TLDS,
    _VENDOR_STEMS,
    _VENDOR_SUFFIXES,
    GPT_THEMES,
    NameFactory,
    randbelow,
)

_POWERS_AND_NEIGHBOURS = sorted(
    {value for bit in range(17) for value in (2**bit - 1, 2**bit, 2**bit + 1) if value >= 1}
)
_SPECIAL_BOUNDS = _POWERS_AND_NEIGHBOURS + [1, 20, 62, 25_000, 70_000]

bounds = st.one_of(st.sampled_from(_SPECIAL_BOUNDS), st.integers(min_value=1, max_value=70_000))
seeds = st.integers(min_value=0, max_value=2**64)


@settings(deadline=None)
@given(seed=seeds, sizes=st.lists(bounds, min_size=1, max_size=12))
@example(seed=0, sizes=_SPECIAL_BOUNDS)
def test_randbelow_matches_choice(seed, sizes):
    """Same index as ``choice(range(n))`` and the same state, draw after draw."""
    expected, actual = random.Random(seed), random.Random(seed)
    for n in sizes:
        assert randbelow(actual, n) == expected.choice(range(n))
        assert actual.getstate() == expected.getstate()


@settings(deadline=None)
@given(
    seed=seeds,
    weights=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=13),
    count=st.integers(min_value=0, max_value=300),
)
def test_batched_choices_match_single_calls(seed, weights, count):
    """One ``choices(k=m)`` call equals ``m`` calls with ``k=1``, state included."""
    population = [f"store-{index}" for index in range(len(weights))]
    batched, single = random.Random(seed), random.Random(seed)
    values = batched.choices(population, weights=weights, k=count)
    assert values == [single.choices(population, weights=weights, k=1)[0] for _ in range(count)]
    assert batched.getstate() == single.getstate()


class _ReplacedNameFactory:
    """``NameFactory`` as it was before the fast paths, kept as the oracle."""

    _ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used_domains: set = set()
        self._used_gpt_names: set = set()

    def theme(self):
        return self._rng.choice(GPT_THEMES)

    def gpt_name(self, topic: str) -> str:
        for _ in range(20):
            name = (
                f"{self._rng.choice(_ADJECTIVES)} "
                f"{topic.title()} {self._rng.choice(_ROLES)}"
            )
            if name not in self._used_gpt_names:
                self._used_gpt_names.add(name)
                return name
        suffix = self._rng.randint(2, 9999)
        return f"{topic.title()} {self._rng.choice(_ROLES)} {suffix}"

    def author_name(self) -> str:
        return f"{self._rng.choice(_FIRST_NAMES)} {self._rng.choice(_LAST_NAMES)}"

    def vendor_name(self) -> str:
        return (
            f"{self._rng.choice(_VENDOR_STEMS).capitalize()}"
            f"{self._rng.choice(_VENDOR_SUFFIXES).capitalize()}"
        )

    def vendor_domain(self, vendor_name=None) -> str:
        stem = (vendor_name or self.vendor_name()).lower().replace(" ", "")
        for _ in range(50):
            tld = self._rng.choice(_TLDS)
            domain = f"{stem}.{tld}"
            if domain not in self._used_domains:
                self._used_domains.add(domain)
                return domain
            stem = f"{stem}{self._rng.randint(2, 99)}"
        raise RuntimeError("unable to allocate a unique vendor domain")

    def hosted_domain(self, vendor_name=None) -> str:
        stem = (vendor_name or self.vendor_name()).lower().replace(" ", "")
        for _ in range(50):
            suffix = self._rng.choice(_PAAS_SUFFIXES)
            domain = f"{stem}.{suffix}"
            if domain not in self._used_domains:
                self._used_domains.add(domain)
                return domain
            stem = f"{stem}{self._rng.randint(2, 99)}"
        raise RuntimeError("unable to allocate a unique hosted domain")

    def gpt_id(self) -> str:
        return "g-" + "".join(self._rng.choice(self._ALPHABET) for _ in range(9))

    def action_id(self) -> str:
        return "".join(self._rng.choice(self._ALPHABET) for _ in range(24))


def _factories(seed: int):
    expected_rng, actual_rng = random.Random(seed), random.Random(seed)
    return (
        _ReplacedNameFactory(expected_rng),
        NameFactory(actual_rng),
        expected_rng,
        actual_rng,
    )


def test_one_topic_past_all_its_names():
    """1,000 names for one topic: 400 distinct, then only fallbacks."""
    expected, actual, expected_rng, actual_rng = _factories(11)
    names = [actual.gpt_name("travel planning") for _ in range(1000)]
    assert names == [expected.gpt_name("travel planning") for _ in range(1000)]
    assert actual_rng.getstate() == expected_rng.getstate()
    assert len({name for name in names if not name[-1].isdigit()}) == len(_ADJECTIVES) * len(
        _ROLES
    )


def test_interleaved_topics_and_picks():
    """Several topics filling up at different times, between the other picks."""
    expected, actual, expected_rng, actual_rng = _factories(5)
    topics = ["travel planning", "SEO auditing", "code review", "news digest", "Travel Planning"]
    for step in range(3000):
        topic = topics[step % len(topics)] if step % 7 else topics[0]
        assert actual.gpt_name(topic) == expected.gpt_name(topic)
        assert actual.gpt_id() == expected.gpt_id()
        if step % 3 == 0:
            assert actual.theme() == expected.theme()
            assert actual.author_name() == expected.author_name()
            assert actual.action_id() == expected.action_id()
        if step % 11 == 0:
            assert actual.vendor_domain() == expected.vendor_domain()
            assert actual.hosted_domain("tester") == expected.hosted_domain("tester")
    assert actual_rng.getstate() == expected_rng.getstate()


def _world_digest(ecosystem, rng_state=None) -> str:
    """Every manifest, policy and store listing, plus a generator state."""
    digest = hashlib.sha256()
    for gpt in ecosystem.gpts.values():
        digest.update(json.dumps(gpt.to_dict(), sort_keys=True).encode())
    for url, document in ecosystem.policies.items():
        digest.update(
            json.dumps([url, document.text, document.kind, document.available]).encode()
        )
    for name, listings in ecosystem.store_listings.items():
        digest.update(name.encode())
        for listing in listings:
            digest.update(
                json.dumps([listing.gpt_id, listing.title, listing.link, listing.dead]).encode()
            )
    digest.update(repr(rng_state).encode())
    return digest.hexdigest()


#: Computed with the replaced draws (``choice`` at every call site, one
#: ``choices`` call per GPT, every ``gpt_name`` attempt built).
PINNED_10K_WORLD = "e3bb9bdfed615d3fb2ea7534530d71ba05ef3781fbf5288018f7b6b35b458288"
PINNED_10K_EPOCH_1 = "8c9c46c8d7f542cc3e156cf922cc3ca6655de6037c8512cdfbf61de450d482aa"
PINNED_10K_DELTA_1 = "45a464bb3ebde3cdbdf9e43bdd8acc15c2b3f7e10b66d3a373b833274abdee40"


def test_pinned_10k_world_and_its_first_epoch():
    """At 10,000 GPTs whole topics run out of names, which no golden reaches."""
    config = EcosystemConfig.paper_calibrated(n_gpts=10_000, seed=0)
    generator = EcosystemGenerator(config)
    ecosystem = generator.generate()
    names = [gpt.name for gpt in ecosystem.gpts.values()]
    fallbacks = [name for name in names if re.search(r" \d+$", name)]
    assert len(fallbacks) == 2003
    per_title = {}
    for name in set(names) - set(fallbacks):
        title = name.split(" ", 1)[1].rsplit(" ", 1)[0]
        per_title[title] = per_title.get(title, 0) + 1
    assert max(per_title.values()) == len(_ADJECTIVES) * len(_ROLES)
    assert _world_digest(ecosystem, generator._rng.getstate()) == PINNED_10K_WORLD

    evolved = evolve_ecosystem(ecosystem, config, 1)
    assert _world_digest(evolved.ecosystem) == PINNED_10K_EPOCH_1
    delta = hashlib.sha256(json.dumps(evolved.delta.to_payload()).encode()).hexdigest()
    assert delta == PINNED_10K_DELTA_1
