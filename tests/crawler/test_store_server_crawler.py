"""Tests for the store servers and the store crawler."""

import pytest

from repro.crawler.http import SimulatedHTTPLayer
from repro.crawler.store_crawler import StoreCrawler
from repro.crawler.store_server import GPTStoreServer, install_store_servers
from repro.ecosystem.models import StoreListing


def build_listings(n: int):
    return [
        StoreListing(
            gpt_id=f"g-abcde{i:04d}",
            title=f"GPT number {i}",
            link=f"https://store.example/gpts/g-abcde{i:04d}",
        )
        for i in range(n)
    ]


class TestGPTStoreServer:
    def test_pagination_numbered(self):
        server = GPTStoreServer(name="numbered.example", listings=build_listings(95), page_size=40)
        assert server.n_pages == 3
        page = server.render_page(1, server.listings[:40])
        assert 'class="next-page"' in page
        last = server.render_page(3, server.listings[80:])
        assert "End of list" in last

    def test_pagination_cursor(self):
        server = GPTStoreServer(
            name="cursor.example", listings=build_listings(60), page_size=25,
            pagination_style="cursor",
        )
        page = server.render_page(1, server.listings[:25])
        assert 'class="load-more"' in page

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            GPTStoreServer(name="x", listings=[], page_size=0)
        with pytest.raises(ValueError):
            GPTStoreServer(name="x", listings=[], pagination_style="weird")

    def test_install_serves_pages(self):
        http = SimulatedHTTPLayer()
        server = GPTStoreServer(name="served.example", listings=build_listings(10), page_size=5)
        server.install(http)
        response = http.get(server.base_url)
        assert response.ok
        assert "gpt-link" in response.text


class TestStoreCrawler:
    def test_parse_listing_page(self):
        server = GPTStoreServer(name="parse.example", listings=build_listings(7), page_size=10)
        html = server.render_page(1, server.listings)
        links = StoreCrawler.parse_listing_page(html)
        assert len(links) == 7
        assert links[0].endswith("g-abcde0000")

    def test_parse_next_link(self):
        server = GPTStoreServer(name="parse2.example", listings=build_listings(30), page_size=10)
        html = server.render_page(1, server.listings[:10])
        next_link = StoreCrawler.parse_next_link(html)
        assert next_link and "page=2" in next_link
        assert StoreCrawler.parse_next_link("<html>no nav</html>") is None

    @pytest.mark.parametrize("style", ["numbered", "cursor"])
    def test_full_crawl_collects_all_listings(self, style):
        http = SimulatedHTTPLayer()
        listings = build_listings(137)
        server = GPTStoreServer(
            name=f"{style}.example", listings=listings, page_size=25, pagination_style=style
        )
        server.install(http)
        crawler = StoreCrawler(http)
        result = crawler.crawl(server.name, server.base_url)
        assert result.n_links == 137
        assert result.n_identifiers == 137
        assert result.pages_visited == server.n_pages
        assert not result.errors

    def test_max_pages_bound(self):
        http = SimulatedHTTPLayer()
        server = GPTStoreServer(name="big.example", listings=build_listings(200), page_size=10)
        server.install(http)
        crawler = StoreCrawler(http, max_pages=3)
        result = crawler.crawl(server.name, server.base_url)
        assert result.pages_visited == 3

    def test_invalid_max_pages(self):
        with pytest.raises(ValueError):
            StoreCrawler(SimulatedHTTPLayer(), max_pages=0)

    def test_crawl_records_http_errors(self):
        http = SimulatedHTTPLayer()
        crawler = StoreCrawler(http)
        result = crawler.crawl("missing.example", "https://missing.example/gpts")
        assert result.errors
        assert result.n_links == 0

    def test_install_store_servers_alternates_styles(self):
        http = SimulatedHTTPLayer()
        servers = install_store_servers(
            http,
            {"alpha.example": build_listings(5), "beta.example": build_listings(5)},
        )
        assert servers[0].pagination_style == "numbered"
        assert servers[1].pagination_style == "cursor"


def _linear_scan_page(server: GPTStoreServer, cursor: str) -> int:
    """The page a cursor opens, found by scanning from the first listing."""
    for index, listing in enumerate(server.listings):
        if listing.gpt_id == cursor:
            return index // server.page_size + 2
    return server.n_pages + 1


class TestCursorPages:
    @pytest.fixture
    def server(self):
        listings = build_listings(137)
        dead = StoreListing(
            gpt_id="g-deadcur00001",
            title="Removed GPT",
            link="https://cursor.example/gpts/g-deadcur00001",
            dead=True,
        )
        listings.insert(60, dead)
        return GPTStoreServer(
            name="cursor.example", listings=listings, page_size=25, pagination_style="cursor"
        )

    @pytest.mark.parametrize(
        "cursor",
        ["g-abcde0000", "g-abcde0024", "g-abcde0068", "g-abcde0136", "g-deadcur00001", "g-nope"],
    )
    def test_cursor_page_matches_a_linear_scan(self, server, cursor):
        page = server._page_for(f"{server.base_url}?after={cursor}")
        assert page == _linear_scan_page(server, cursor)

    def test_unknown_and_missing_cursors(self, server):
        assert server._page_for(f"{server.base_url}?after=g-nope") == server.n_pages + 1
        assert server._page_for(server.base_url) == 1
        assert server._page_for(f"{server.base_url}?after=") == 1

    def test_a_repeated_id_resolves_to_its_first_position(self):
        listings = build_listings(137)
        listings.insert(110, listings[3])
        server = GPTStoreServer(
            name="cursor.example", listings=listings, page_size=25, pagination_style="cursor"
        )
        assert server._page_for(f"{server.base_url}?after=g-abcde0003") == 2
        assert _linear_scan_page(server, "g-abcde0003") == 2

    def test_cursor_crawl_visits_the_same_pages_in_order(self, server):
        http = SimulatedHTTPLayer()
        server.install(http)
        result = StoreCrawler(http).crawl(server.name, server.base_url)
        cursors = [
            server.listings[page * server.page_size - 1].gpt_id
            for page in range(1, server.n_pages)
        ]
        assert http.recent_requests() == [server.base_url] + [
            f"{server.base_url}?after={cursor}" for cursor in cursors
        ]
        pages = [1] + [_linear_scan_page(server, cursor) for cursor in cursors]
        assert pages == list(range(1, server.n_pages + 1))
        assert result.pages_visited == server.n_pages
        assert result.n_links == len(server.listings)
