"""One implementation per statistic, held to the code it replaced.

Every quantile, SLO good/total count and counter rate the telemetry
plane reports now comes from one function.  These seeded property tests
draw histograms (1-8 finite bounds, empty buckets, ``+Inf``
observations, 1-3 routes of every route class), counter series with
restarts and quantiles in (0, 1], and require each surviving entry
point to equal its frozen predecessor in ``telemetry_oracle.py`` bit
for bit.  The one intended difference, ``family_quantile`` at q = 0, is
pinned separately, as is the exposition round trip whose label
unescaping the shared series-key grammar fixed.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import telemetry_oracle as oracle
from repro.loadgen.stats import histogram_quantile
from repro.obs.capacity import _window_buckets
from repro.obs.fleet import family_quantile, parse_exposition
from repro.obs.history import HistoryConfig, HistoryStore, _rate_series
from repro.obs.metrics import MetricsRegistry, bucket_quantile, merge_states
from repro.obs.slo import DEFAULT_SLOS, SLO, SLOTracker, good_total_from_flat

#: bucket bounds to draw from: the default latency buckets, the SLO
#: thresholds, and bounds just inside and just outside the thresholds'
#: 1e-9 relative tolerance
BOUNDS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 0.2, 0.3,
    0.025 * (1 + 5e-10), 0.1 * (1 + 5e-10), 0.25 * (1 + 2e-9),
)
#: two routes of each class: ui, api, ops
ROUTES = (
    "/menu", "/design", "/api/ping", "/agent/estimate", "/metrics",
    "/healthz",
)
QUANTILES = st.one_of(
    st.sampled_from((0.5, 0.95, 0.99, 1.0)),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def bits(value):
    """A result's exact value: every number as its float's hex digits.

    An int and the float of the same value agree (the old readers mixed
    ``0`` and ``0.0``); any other bit difference, -0.0 included, shows.
    """
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    if isinstance(value, (int, float)):
        return float(value).hex()
    return value


def same(left, right) -> bool:
    return bits(left) == bits(right)


@st.composite
def registries(draw):
    """A registry holding the SLO counter and latency histogram."""
    bounds = sorted(draw(st.lists(
        st.sampled_from(BOUNDS), min_size=1, max_size=8, unique=True,
    )))
    routes = draw(st.lists(
        st.sampled_from(ROUTES), min_size=1, max_size=3, unique=True,
    ))
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "powerplay_http_request_seconds", "", ("route",), buckets=bounds,
    )
    # one observation value per bucket: each bound itself, then +Inf
    values = bounds + [bounds[-1] * 2 + 1.0]
    for route in routes:
        counts = draw(st.lists(
            st.integers(0, 6), min_size=len(values), max_size=len(values),
        ))
        for value, count in zip(values, counts):
            for _ in range(count):
                histogram.observe(value, route=route)
    responses = registry.counter(
        "powerplay_http_responses_total", "", ("status_class",),
    )
    for status_class in draw(st.lists(
        st.sampled_from(("2xx", "3xx", "4xx", "5xx")), unique=True,
    )):
        responses.inc(draw(st.integers(1, 40)), status_class=status_class)
    return registry, routes


# -- bucket quantiles -------------------------------------------------------


@SETTINGS
@given(registries(), QUANTILES)
def test_histogram_quantile_matches_oracle(drawn, q):
    registry, routes = drawn
    histogram = registry.get("powerplay_http_request_seconds")
    for route in [None, *routes, "/absent"]:
        assert same(
            histogram_quantile(histogram, q, route),
            oracle.histogram_quantile(histogram, q, route),
        ), route


@SETTINGS
@given(registries(), registries(), QUANTILES)
def test_family_quantile_matches_oracle(first, second, q):
    # a scraped family, and a fleet merge of two nodes when their
    # bounds agree (merge_states refuses misaligned histograms)
    name = "powerplay_http_request_seconds"
    families = [parse_exposition(first[0].render())[name]]
    try:
        families.append(merge_states(
            [first[0].export_state(), second[0].export_state()]
        )[name])
    except ValueError:
        pass
    for family in families:
        assert same(
            family_quantile(family, q), oracle.family_quantile(family, q)
        )


@SETTINGS
@given(
    st.lists(
        st.tuples(st.sampled_from(BOUNDS), st.integers(0, 30)),
        min_size=1, max_size=8, unique_by=lambda pair: pair[0],
    ),
    st.one_of(st.none(), st.integers(0, 30)),
    QUANTILES,
)
def test_capacity_quantile_matches_oracle(finite, inf_increase, q):
    # window increases of cumulative buckets; a counter restart can
    # leave them falling with the bound, which the clamp absorbs
    increases = [(float(bound), float(n)) for bound, n in finite]
    if inf_increase is not None:
        increases.append((math.inf, float(inf_increase)))
    assert same(
        bucket_quantile(_window_buckets(list(increases)), q),
        oracle.capacity_quantile(list(increases), q),
    )


def test_q_zero_answers_the_first_non_empty_buckets_lower_bound():
    """The one intended change: ``family_quantile`` at q = 0.

    Bounds 0.1/0.2/0.3 with observations 0.25, 0.25 and 0.5: the first
    bucket is empty, so the lower bound of the first non-empty bucket,
    0.2, is the answer every estimator now gives.  The old fleet
    estimator answered the first bound, 0.1.
    """
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "lat_seconds", "", ("route",), buckets=(0.1, 0.2, 0.3),
    )
    for value in (0.25, 0.25, 0.5):
        histogram.observe(value, route="/menu")
    family = registry.export_state()["lat_seconds"]
    assert family_quantile(family, 0.0) == 0.2
    assert oracle.family_quantile(family, 0.0) == 0.1
    assert histogram_quantile(histogram, 0.0) == 0.2
    assert oracle.histogram_quantile(histogram, 0.0) == 0.2
    increases = [(0.1, 0.0), (0.2, 0.0), (0.3, 2.0), (math.inf, 3.0)]
    assert bucket_quantile(_window_buckets(increases), 0.0) == 0.2
    assert oracle.capacity_quantile(list(increases), 0.0) == 0.2


# -- SLO good/total counts --------------------------------------------------


@SETTINGS
@given(
    registries(),
    st.sampled_from(BOUNDS + (0.025, 0.1, 0.25, 0.0001, 5.0)),
    st.sampled_from(("api", "ui", "ops")),
)
def test_slo_readers_match_oracle(drawn, threshold, klass):
    registry, _ = drawn
    tracker = SLOTracker(registry=registry, clock=lambda: 0.0)
    flat = {
        key: value
        for family in registry.export_state().values()
        for key, value in family["series"].items()
    }
    extra = SLO(
        name="drawn", kind="latency", objective=0.9, route_class=klass,
        threshold_s=threshold,
    )
    for slo in (*DEFAULT_SLOS, extra):
        assert same(
            tracker._cumulative(slo), oracle._cumulative(tracker, slo)
        ), slo.name
        assert same(
            good_total_from_flat(slo, flat),
            oracle.good_total_from_flat(slo, flat),
        ), slo.name


def test_latency_threshold_keeps_its_float_tolerance():
    """A bound within 1e-9 (relative) above the threshold still counts."""
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "powerplay_http_request_seconds", "", ("route",),
        buckets=(0.01, 0.025 * (1 + 5e-10), 0.05),
    )
    for value in (0.005, 0.02, 0.04, 0.04):
        histogram.observe(value, route="/api/ping")
    tracker = SLOTracker(registry=registry, clock=lambda: 0.0)
    flat = dict(registry.export_state()[
        "powerplay_http_request_seconds"]["series"])
    slo = DEFAULT_SLOS[1]  # latency-api, 25 ms
    assert tracker._cumulative(slo) == (2.0, 4.0)
    assert good_total_from_flat(slo, flat) == (2.0, 4.0)
    assert oracle._cumulative(tracker, slo) == (2.0, 4.0)


# -- counter rates ----------------------------------------------------------


@st.composite
def counter_series(draw):
    """``(t, value)`` points of a counter that restarts now and then."""
    points = []
    t, value = float(draw(st.integers(0, 100))), 0.0
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.sampled_from((0.0, 1.0, 2.0, 5.0, 0.5)))
        if draw(st.integers(0, 4)) == 0:
            value = float(draw(st.integers(0, 5)))  # restart
        else:
            value += draw(st.integers(0, 9))
        points.append((t, value))
    return points


@SETTINGS
@given(counter_series())
def test_rate_series_matches_oracle(points):
    assert same(_rate_series(points), oracle._rate_series(points))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(counter_series())
def test_history_rate_query_matches_oracle(points):
    # the store nudges equal timestamps apart, so feed strictly
    # increasing ones; the query reads the same points back
    stamped, last = [], -math.inf
    for t, value in points:
        if t > last:
            stamped.append((t, value))
            last = t
    with tempfile.TemporaryDirectory() as tmp:
        store = HistoryStore(
            Path(tmp), HistoryConfig(fsync_journal=False), clock=lambda: 0.0,
        )
        for t, value in stamped:
            store.append(
                {"c_total": {"kind": "counter", "series": {"c_total": value}}},
                when=t,
            )
        series = store.query("c_total", op="rate").series
    expected = oracle._rate_points(stamped)
    assert same([entry["points"] for entry in series],
                [expected] if stamped else [])


# -- exposition round trip --------------------------------------------------


@SETTINGS
@given(st.lists(
    st.text(
        alphabet=st.sampled_from(
            ("a", "n", "C", ":", "/", " ", "{", "}", ",", "=", "\\", '"',
             "\n", "\r", "\u2028")
        ),
        max_size=10,
    ),
    min_size=1, max_size=4, unique=True,
))
@example(["C:\\new\\dir"])
@example(['quote " and slash \\', "line\nbreak", "\\n"])
def test_exposition_round_trips_any_label_value(values):
    registry = MetricsRegistry()
    counter = registry.counter("paths_total", "", ("path",))
    histogram = registry.histogram(
        "path_seconds", "", ("path",), buckets=(0.1, 1.0),
    )
    for index, value in enumerate(values):
        counter.inc(index + 1, path=value)
        histogram.observe(0.05 * index, path=value)
    assert parse_exposition(registry.render()) == registry.export_state()
