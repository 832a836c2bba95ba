"""Live HTTP: server, scriptable browser, remote model access."""

import pytest

from repro.library.catalog import Library
from repro.registry.resolve import RegistryResolver
from repro.web.client import Browser, Page
from repro.web.remote import RemoteLibraryClient, federate
from repro.web.server import PowerPlayServer
from repro.errors import RegistryError, RemoteError


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    state = tmp_path_factory.mktemp("server_state")
    with PowerPlayServer(state, server_name="berkeley") as live:
        yield live


@pytest.fixture
def browser(server):
    return Browser(server.base_url)


class TestBrowserWorkflow:
    def test_login_follows_redirect(self, browser):
        page = browser.login("mituser")
        assert page.status == 200
        assert "Main Menu" in page.title

    def test_link_navigation(self, browser):
        browser.login("mituser")
        menu = browser.get("/menu?user=mituser")
        library_href = menu.link_by_text("Library")
        library = browser.get(library_href)
        assert library.contains("multiplier")

    def test_missing_link(self, browser):
        page = browser.get("/help")
        with pytest.raises(RemoteError, match="no link"):
            page.link_by_text("nonexistent label")

    def test_figure4_form_over_http(self, browser):
        browser.login("mituser")
        page = browser.compute_cell(
            "mituser", "multiplier",
            {"bitwidthA": 16, "bitwidthB": 16, "VDD": 1.5, "f": "2M"},
        )
        assert page.contains("2.9146e-04 W")

    def test_full_design_flow(self, browser):
        browser.login("flowuser")
        browser.new_design("flowuser", "chip")
        browser.save_cell_to_design(
            "flowuser", "sram", "chip", "lut",
            {"words": 4096, "bits": 6, "VDD": 1.5, "f": "1.966M"},
        )
        sheet = browser.open_design("flowuser", "chip")
        assert sheet.contains("lut")
        played = browser.play(
            "flowuser", "chip", row_params={("lut", "VDD"): 1.1}
        )
        assert played.status == 200
        assert played.error is None

    def test_error_extraction(self, browser):
        page = browser.get("/design?user=flowuser&name=ghost")
        assert page.status == 400
        assert page.error is not None

    def test_bad_base_url(self):
        with pytest.raises(RemoteError):
            Browser("ftp://weird")

    def test_unreachable_server(self):
        dead = Browser("http://127.0.0.1:1", timeout=0.3)
        with pytest.raises(RemoteError, match="cannot reach"):
            dead.get("/")


class TestRemoteAccess:
    def test_ping(self, server):
        client = RemoteLibraryClient(server.base_url)
        payload = client.ping()
        assert payload == {"server": "berkeley", "protocol": "powerplay/1"}

    def test_fetch_library_tags_origin(self, server):
        client = RemoteLibraryClient(server.base_url)
        library = client.fetch_library()
        assert len(library) >= 20
        assert library.get("sram").origin == server.base_url

    def test_fetch_model_on_demand_with_cache(self, server):
        client = RemoteLibraryClient(server.base_url)
        entry = client.fetch_model("multiplier")
        first_count = client.requests_made
        again = client.fetch_model("multiplier")
        assert client.requests_made == first_count  # cached
        env = {"bitwidthA": 16, "bitwidthB": 16, "VDD": 1.5, "f": 2e6}
        assert entry.models.power.power(env) == pytest.approx(
            again.models.power.power(env)
        )

    def test_fetch_unknown_model(self, server):
        client = RemoteLibraryClient(server.base_url)
        with pytest.raises(RemoteError, match="refused"):
            client.fetch_model("ghost")

    def test_federate(self, server):
        local = Library("california", "empty local site")
        adopted = federate(local, [server.base_url])
        assert len(adopted[server.base_url]) == len(local)
        assert "sram" in local

    def test_federate_prefers_mine(self, server):
        from repro.core.model import FixedPowerModel, ModelSet
        from repro.library.catalog import LibraryEntry

        local = Library("california")
        local.add(
            LibraryEntry("sram", ModelSet(power=FixedPowerModel("sram", 9.0)))
        )
        federate(local, [server.base_url], prefer="mine")
        assert local.get("sram").models.power.power({}) == 9.0

    def test_federate_unreachable_raises(self):
        with pytest.raises(RemoteError):
            federate(Library("x"), ["http://127.0.0.1:1"])


class TestResolver:
    def test_local_first(self, server):
        from repro.core.model import FixedPowerModel, ModelSet
        from repro.library.catalog import LibraryEntry

        local = Library("local")
        local.add(
            LibraryEntry("sram", ModelSet(power=FixedPowerModel("sram", 5.0)))
        )
        resolver = RegistryResolver(
            local, [RemoteLibraryClient(server.base_url)]
        )
        assert resolver.resolve_strict("sram").models.power.power({}) == 5.0

    def test_falls_back_to_remote(self, server):
        client = RemoteLibraryClient(server.base_url)
        resolver = RegistryResolver(Library("local"), [client])
        entry = resolver.resolve_strict("multiplier")
        assert entry.origin == server.base_url
        assert client.requests_made >= 1

    def test_unresolvable(self, server):
        resolver = RegistryResolver(
            Library("local"), [RemoteLibraryClient(server.base_url)]
        )
        with pytest.raises(RegistryError, match="cannot resolve"):
            resolver.resolve_strict("ghost")

    def test_outcome_is_each_fetchs_own(self):
        """A live fetch stays live when another thread's stale serve
        through the same client lands while it is in flight."""
        import json
        import threading

        from repro.core.model import FixedPowerModel, ModelSet
        from repro.errors import TransientRemoteError
        from repro.library.catalog import LibraryEntry
        from repro.web.resilience import RetryPolicy

        sram_in_flight = threading.Event()
        stale_served = threading.Event()

        class Provider:
            """``/api/model`` that holds ``sram`` until the stale serve
            has landed, and whose ``multiplier`` can go down."""

            multiplier_up = True

            def get(self, path):
                name = path.rsplit("=", 1)[-1]
                if name == "multiplier" and not self.multiplier_up:
                    raise TransientRemoteError("multiplier host is down")
                if name == "sram":
                    sram_in_flight.set()
                    assert stale_served.wait(10)
                model = ModelSet(power=FixedPowerModel(name, 1.0))
                return Page(path, 200,
                            json.dumps(LibraryEntry(name, model).to_payload()))

        now = [0.0]
        client = RemoteLibraryClient(
            "http://mit.example", retry_policy=RetryPolicy(max_attempts=1),
            cache_ttl=60.0, clock=lambda: now[0],
        )
        client._browser = provider = Provider()
        client.fetch_model("multiplier")
        now[0] = 120.0                      # multiplier's copy is stale
        provider.multiplier_up = False
        resolver = RegistryResolver(Library("local"), [client])
        results = []
        fetch = threading.Thread(
            target=lambda: results.append(resolver.resolve("sram"))
        )
        fetch.start()
        try:
            assert sram_in_flight.wait(10)
            assert client.fetch_model("multiplier").name == "multiplier"
            assert client.report.stale_serves == 1
        finally:
            stale_served.set()
            fetch.join(10)
        assert not fetch.is_alive()
        (entry, report), = results
        assert entry.name == "sram"
        assert report.outcome == "live"
        assert report.steps[-1]["result"] == "live"
        assert resolver.health_counts() == {"live": 1}

    def test_no_remotes(self):
        resolver = RegistryResolver(Library("local"))
        # the chain tried only the local library
        with pytest.raises(RegistryError, match=r"'anything': local\(local\)=miss$"):
            resolver.resolve_strict("anything")


class TestTwoServers:
    def test_cross_site_library_use(self, server, tmp_path):
        """Characterized in 'Berkeley', used in 'MIT' (Figure 6)."""
        with PowerPlayServer(tmp_path / "mit", server_name="mit") as mit:
            client = RemoteLibraryClient(server.base_url)
            berkeley_models = client.fetch_library()
            # the MIT application merges the Berkeley models
            mit.application.libraries[0].merge(berkeley_models, prefer="mine")
            browser = Browser(mit.base_url)
            browser.login("visitor")
            page = browser.compute_cell(
                "visitor", "multiplier",
                {"bitwidthA": 16, "bitwidthB": 16, "VDD": 1.5, "f": "2M"},
            )
            assert page.contains("2.9146e-04 W")
