"""Vendor, GPT, and domain name synthesis for the ecosystem generator."""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

#: Thematic verticals GPTs are built around; each pairs a noun pool with a
#: store category label and the functionality tag used for their Actions.
GPT_THEMES: Tuple[Tuple[str, str, str], ...] = (
    ("travel planning", "lifestyle", "Travel"),
    ("recipe recommendation", "lifestyle", "Food & Drink"),
    ("resume writing", "writing", "Productivity"),
    ("stock research", "research", "Finance"),
    ("fitness coaching", "lifestyle", "Health & Fitness"),
    ("legal research", "research", "Legal"),
    ("real estate search", "productivity", "Real Estate"),
    ("SEO auditing", "programming", "Marketing"),
    ("code review", "programming", "Developer Tools"),
    ("language tutoring", "education", "Education"),
    ("task management", "productivity", "Productivity"),
    ("weather briefing", "lifestyle", "Weather"),
    ("car shopping", "lifestyle", "Automotive"),
    ("event planning", "productivity", "Events"),
    ("sports analytics", "research", "Sports"),
    ("crypto tracking", "research", "Finance"),
    ("document drafting", "writing", "Productivity"),
    ("e-commerce assistant", "productivity", "Ecommerce & Shopping"),
    ("medical triage", "lifestyle", "Health"),
    ("news digest", "research", "News"),
)

_ADJECTIVES = (
    "Ultimate", "Smart", "Pro", "Instant", "Friendly", "Expert", "Daily",
    "Rapid", "Clever", "Handy", "Prime", "Golden", "Nimble", "Bright",
    "Trusty", "Sharp", "Swift", "Mighty", "Quiet", "Global",
)

_ROLES = (
    "Planner", "Assistant", "Helper", "Copilot", "Wizard", "Guru", "Buddy",
    "Scout", "Advisor", "Companion", "Coach", "Concierge", "Analyst",
    "Navigator", "Genie", "Hunter", "Curator", "Architect", "Studio", "Desk",
)

_VENDOR_STEMS = (
    "nova", "quanta", "lumen", "vertex", "atlas", "zephyr", "orbit", "pixel",
    "cobalt", "harbor", "cedar", "ember", "ridge", "sonic", "delta", "aria",
    "flux", "terra", "vista", "echo", "bloom", "crest", "drift", "helio",
    "iris", "juno", "karma", "lyric", "maple", "nexus",
)

_VENDOR_SUFFIXES = ("labs", "hq", "apps", "soft", "works", "tools", "tech", "ai", "io", "digital")

_TLDS = ("com", "io", "ai", "app", "dev", "co", "net")

_PAAS_SUFFIXES = ("vercel.app", "herokuapp.com", "onrender.com", "a.run.app", "fly.dev")

_FIRST_NAMES = (
    "Alex", "Jordan", "Sam", "Taylor", "Morgan", "Riley", "Casey", "Avery",
    "Jamie", "Quinn", "Stephan", "Lena", "Marco", "Priya", "Diego", "Yuki",
    "Nadia", "Omar", "Ingrid", "Chen",
)

_LAST_NAMES = (
    "Smith", "Garcia", "Chen", "Patel", "Kim", "Mueller", "Rossi", "Dubois",
    "Silva", "Novak", "Tanaka", "Ali", "Berg", "Costa", "Ek", "Fischer",
    "Haas", "Ito", "Jansen", "Kovacs",
)

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

#: Distinct adjective/role names one title can take before every draw fails.
_NAMES_PER_TITLE = len(_ADJECTIVES) * len(_ROLES)


def randbelow(rng: random.Random, n: int) -> int:
    """The index ``rng.choice(seq)`` picks from a ``seq`` of length ``n > 0``.

    Draw-identical to ``Random._randbelow(n)``, which ``choice``,
    ``randrange`` and ``shuffle`` use: ``getrandbits(n.bit_length())``,
    redrawn while it is ``>= n``.  It consumes the same words in the same
    order, so ``rng.getstate()`` afterwards equals the state after
    ``choice``; it only skips ``choice``'s two Python frames per draw.
    Worlds depend on this, so
    ``tests/ecosystem/test_fast_draws.py::test_randbelow_matches_choice``
    pins it to the running interpreter's ``random.Random``.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class NameFactory:
    """Deterministic (seeded) generator of GPT, vendor, and domain names."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used_domains: set = set()
        self._used_gpt_names: set = set()
        self._names_per_title: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def theme(self) -> Tuple[str, str, str]:
        """Pick a GPT theme ``(topic, store category, functionality)``."""
        return GPT_THEMES[randbelow(self._rng, len(GPT_THEMES))]

    def gpt_name(self, topic: str) -> str:
        """A display name for a GPT about ``topic``.

        Up to 20 adjective/role draws look for an unused name, then a
        numbered fallback is taken.  Once a title has used all its names,
        the 20 draws are still made, so the RNG stream stays the same, but
        no name is built.
        """
        rng = self._rng
        title = topic.title()
        used = self._names_per_title.get(title, 0)
        if used >= _NAMES_PER_TITLE:
            for _ in range(20):
                randbelow(rng, len(_ADJECTIVES))
                randbelow(rng, len(_ROLES))
        else:
            for _ in range(20):
                name = (
                    f"{_ADJECTIVES[randbelow(rng, len(_ADJECTIVES))]} "
                    f"{title} {_ROLES[randbelow(rng, len(_ROLES))]}"
                )
                if name not in self._used_gpt_names:
                    self._used_gpt_names.add(name)
                    self._names_per_title[title] = used + 1
                    return name
        suffix = rng.randint(2, 9999)
        return f"{title} {_ROLES[randbelow(rng, len(_ROLES))]} {suffix}"

    def author_name(self) -> str:
        """A human author display name."""
        rng = self._rng
        return (
            f"{_FIRST_NAMES[randbelow(rng, len(_FIRST_NAMES))]} "
            f"{_LAST_NAMES[randbelow(rng, len(_LAST_NAMES))]}"
        )

    def vendor_name(self) -> str:
        """A vendor / company name."""
        rng = self._rng
        return (
            f"{_VENDOR_STEMS[randbelow(rng, len(_VENDOR_STEMS))].capitalize()}"
            f"{_VENDOR_SUFFIXES[randbelow(rng, len(_VENDOR_SUFFIXES))].capitalize()}"
        )

    def vendor_domain(self, vendor_name: Optional[str] = None) -> str:
        """A registrable vendor domain, unique across the ecosystem."""
        stem = (vendor_name or self.vendor_name()).lower().replace(" ", "")
        for _ in range(50):
            tld = _TLDS[randbelow(self._rng, len(_TLDS))]
            domain = f"{stem}.{tld}"
            if domain not in self._used_domains:
                self._used_domains.add(domain)
                return domain
            stem = f"{stem}{self._rng.randint(2, 99)}"
        raise RuntimeError("unable to allocate a unique vendor domain")

    def hosted_domain(self, vendor_name: Optional[str] = None) -> str:
        """A shared-hosting (PaaS) domain, as used by hobbyist Action developers."""
        stem = (vendor_name or self.vendor_name()).lower().replace(" ", "")
        for _ in range(50):
            suffix = _PAAS_SUFFIXES[randbelow(self._rng, len(_PAAS_SUFFIXES))]
            domain = f"{stem}.{suffix}"
            if domain not in self._used_domains:
                self._used_domains.add(domain)
                return domain
            stem = f"{stem}{self._rng.randint(2, 99)}"
        raise RuntimeError("unable to allocate a unique hosted domain")

    def gpt_id(self) -> str:
        """A 10-character alphanumeric GPT shortcode (e.g. ``g-fYBGstD4a``)."""
        rng = self._rng
        return "g-" + "".join([_ALPHABET[randbelow(rng, len(_ALPHABET))] for _ in range(9)])

    def action_id(self) -> str:
        """An opaque Action tool identifier."""
        rng = self._rng
        return "".join([_ALPHABET[randbelow(rng, len(_ALPHABET))] for _ in range(24)])
