"""GPT store catalogue and store-index assignment.

Thirteen stores index GPTs (Table 1): one official OpenAI store and twelve
third-party indices.  Index sizes are heavily skewed (the largest third-party
index lists ~71% of all GPTs).  Assignment reproduces that skew and the
cross-store overlap that makes de-duplication at crawl time necessary.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.ecosystem.config import PAPER_STORE_COUNTS, StoreConfig
from repro.ecosystem.models import GPTManifest, StoreListing
from repro.ecosystem.naming import randbelow

#: The thirteen stores of Table 1 at their paper-reported sizes.
STORE_CATALOG: List[StoreConfig] = [
    StoreConfig(name=name, indexed_count=count, is_official=(name == "OpenAI Store"))
    for name, count in PAPER_STORE_COUNTS
]


def store_domain(store_name: str) -> str:
    """A stable domain for a store (used to build listing links)."""
    slug = store_name.lower().replace(" ", "")
    if "." in slug:
        return slug
    return f"{slug}.example"


def assign_listings(
    gpts: Sequence[GPTManifest],
    stores: Sequence[StoreConfig],
    rng: random.Random,
    dead_link_rate: float = 0.02,
) -> Dict[str, List[StoreListing]]:
    """Assign GPTs to store indices.

    Every GPT is indexed by at least one store (chosen proportionally to store
    size) and stores are topped up to their configured index size with
    additional GPTs, creating the cross-store overlap seen in practice.  A
    small fraction of listings are *dead links*: their identifier no longer
    resolves on the platform (the gizmo API returns 404 for them).
    """
    if not gpts or not stores:
        return {store.name: [] for store in stores}

    store_names = [store.name for store in stores]
    sizes = [max(1, store.indexed_count) for store in stores]
    listings: Dict[str, List[StoreListing]] = {name: [] for name in store_names}
    membership: Dict[str, set] = {name: set() for name in store_names}

    # Pass 1: every GPT lands in at least one store.  One ``choices`` call
    # makes the same ``random()`` draws, in order, as one call per GPT.
    primaries = rng.choices(store_names, weights=sizes, k=len(gpts))
    for gpt, primary in zip(gpts, primaries):
        membership[primary].add(gpt.gpt_id)

    # Pass 2: top stores up to their index size, creating overlap.
    gpt_ids = [gpt.gpt_id for gpt in gpts]
    titles = {gpt.gpt_id: gpt.name for gpt in gpts}
    for store, size in zip(stores, sizes):
        target = min(size, len(gpt_ids))
        pool = membership[store.name]
        guard = 0
        while len(pool) < target and guard < 20 * target:
            guard += 1
            pool.add(gpt_ids[randbelow(rng, len(gpt_ids))])
        domain = store_domain(store.name)
        for gpt_id in sorted(pool):
            listings[store.name].append(
                StoreListing(
                    gpt_id=gpt_id,
                    title=titles.get(gpt_id, gpt_id),
                    link=f"https://{domain}/gpts/{gpt_id}",
                )
            )
        # Dead links: indexed GPTs that have since been removed or made private.
        n_dead = int(round(dead_link_rate * len(pool)))
        for index in range(n_dead):
            fake_id = f"g-dead{store.name[:3].lower()}{index:05d}"
            listings[store.name].append(
                StoreListing(
                    gpt_id=fake_id,
                    title="Removed GPT",
                    link=f"https://{domain}/gpts/{fake_id}",
                    dead=True,
                )
            )
        rng.shuffle(listings[store.name])
    return listings
