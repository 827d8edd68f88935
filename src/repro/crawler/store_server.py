"""Simulated GPT store servers.

Each store publishes paginated HTML listing pages of the GPTs it indexes,
mirroring the third-party GPT indices the paper crawls (Table 1).  The two
pagination styles the paper's crawlers had to handle — numbered pagination and
"load more" style cursors — are both supported so the crawler's navigation
logic is genuinely exercised.
"""

from __future__ import annotations

import functools
import html
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.crawler.http import SimulatedHTTPLayer, SimulatedResponse
from repro.ecosystem.models import StoreListing
from repro.ecosystem.stores import store_domain


@dataclass
class GPTStoreServer:
    """One GPT store serving paginated listing pages.

    Parameters
    ----------
    name:
        Store name (e.g. ``"plugin.surf"``).
    listings:
        The GPT listings this store indexes; fixed once pages are served.
    page_size:
        Listings per page.
    pagination_style:
        ``"numbered"`` (``?page=N`` links) or ``"cursor"`` (``?after=<id>``
        "load more" links).
    """

    name: str
    listings: List[StoreListing]
    page_size: int = 50
    pagination_style: str = "numbered"

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.pagination_style not in ("numbered", "cursor"):
            raise ValueError("pagination_style must be 'numbered' or 'cursor'")

    @property
    def domain(self) -> str:
        """The store's web domain."""
        return store_domain(self.name)

    @property
    def base_url(self) -> str:
        """URL of the store's first listing page."""
        return f"https://{self.domain}/gpts"

    @property
    def n_pages(self) -> int:
        """Number of listing pages."""
        if not self.listings:
            return 1
        return math.ceil(len(self.listings) / self.page_size)

    # ------------------------------------------------------------------
    def install(self, http: SimulatedHTTPLayer) -> None:
        """Register this store's routes on the HTTP layer."""
        http.register(self.base_url, self._handle)

    def _page_for(self, url: str) -> int:
        from repro.web.urls import parse_url

        params = parse_url(url).query_params()
        if self.pagination_style == "numbered":
            try:
                return max(1, int(params.get("page", "1")))
            except ValueError:
                return 1
        cursor = params.get("after")
        if not cursor:
            return 1
        return self._cursor_pages.get(cursor, self.n_pages + 1)

    @functools.cached_property
    def _cursor_pages(self) -> Dict[str, int]:
        """The page a "load more" cursor opens, for each listed id.

        A cursor names the last listing of the page before, so the page is
        the one after its id's first position.
        """
        pages: Dict[str, int] = {}
        for index, listing in enumerate(self.listings):
            pages.setdefault(listing.gpt_id, index // self.page_size + 2)
        return pages

    def _handle(self, url: str) -> SimulatedResponse:
        page = self._page_for(url)
        start = (page - 1) * self.page_size
        chunk = self.listings[start:start + self.page_size]
        return SimulatedResponse(
            url=url,
            status=200,
            text=self.render_page(page, chunk),
            headers={"content-type": "text/html"},
        )

    # ------------------------------------------------------------------
    def render_page(self, page: int, chunk: Sequence[StoreListing]) -> str:
        """Render one listing page as HTML."""
        items = "\n".join(
            f'  <li class="gpt-card"><a class="gpt-link" href="{html.escape(listing.link)}">'
            f"{html.escape(listing.title)}</a></li>"
            for listing in chunk
        )
        navigation = self._render_navigation(page, chunk)
        return (
            f"<html><head><title>{html.escape(self.name)} — GPT directory</title></head>\n"
            f"<body>\n<h1>{html.escape(self.name)}</h1>\n"
            f'<ul class="gpt-list">\n{items}\n</ul>\n{navigation}\n</body></html>'
        )

    def _render_navigation(self, page: int, chunk: Sequence[StoreListing]) -> str:
        if self.pagination_style == "numbered":
            if page < self.n_pages:
                return f'<a class="next-page" href="{self.base_url}?page={page + 1}">Next page</a>'
            return '<span class="end-of-list">End of list</span>'
        if chunk and (page * self.page_size) < len(self.listings):
            cursor = chunk[-1].gpt_id
            return (
                f'<a class="load-more" href="{self.base_url}?after={cursor}">Load more GPTs</a>'
            )
        return '<span class="end-of-list">End of list</span>'


def install_store_servers(
    http: SimulatedHTTPLayer,
    store_listings: Dict[str, List[StoreListing]],
    page_size: int = 50,
) -> List[GPTStoreServer]:
    """Create and install one store server per store.

    Stores alternate between numbered and cursor pagination so both crawler
    navigation paths get exercised.
    """
    servers: List[GPTStoreServer] = []
    for index, (name, listings) in enumerate(store_listings.items()):
        server = GPTStoreServer(
            name=name,
            listings=list(listings),
            page_size=page_size,
            pagination_style="numbered" if index % 2 == 0 else "cursor",
        )
        server.install(http)
        servers.append(server)
    return servers
