"""The eval cache's live plans: hits, bounds, and — above all —
invalidation.  Every mutation the web UI can perform must reach the
next report, through a recompile or a slot refresh; the proof in each
case is equality with a *fresh* ``evaluate_*`` of the mutated design,
bit for bit where the test can say so."""

import random
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.design import Design, SubDesign
from repro.core.estimator import evaluate_area, evaluate_power, evaluate_timing
from repro.core.evalcache import (
    DEFAULT_CACHE,
    EvaluationCache,
    cached_evaluate_power,
    design_fingerprint,
)
from repro.core.model import CallablePowerModel, ExpressionPowerModel, FixedPowerModel
from repro.core.parameters import Parameter
from repro.core.plan import Plan
from repro.designs.infopad import build_infopad
from repro.errors import PowerPlayError
from repro.models.converter import DCDCConverterModel

from test_plan_differential import (
    GLOBALS,
    area_fields,
    build_design,
    outcome,
    power_fields,
    timing_fields,
)


def _probe_model(name="probe_model"):
    return ExpressionPowerModel(
        name, "C * VDD^2 * f", parameters=[Parameter("C", 1e-12, "F")]
    )


def _simple_design(name="cache_probe"):
    design = Design(name)
    design.scope.set("VDD", 3.3)
    design.scope.set("f", 1e6)
    design.add("row1", _probe_model())
    return design


class TestHitsAndBounds:
    def test_identical_design_hits(self):
        cache = EvaluationCache()
        design = build_infopad()
        first = cache.power(design)
        second = cache.power(design)
        assert cache.stats() == {
            "size": 1, "hits": 1, "misses": 1, "evictions": 0
        }
        assert second.power == first.power

    def test_hit_returns_independent_copy(self):
        cache = EvaluationCache()
        design = _simple_design()
        first = cache.power(design)
        first.parameters["VDD"] = -1.0
        first.children.clear()
        second = cache.power(design)
        assert second.parameters.get("VDD") != -1.0
        assert second.children, "cache must not serve caller-mutated reports"

    def test_kinds_are_separate_keys(self):
        """One entry per design; each kind is its own report on it."""
        cache = EvaluationCache()
        design = build_infopad()
        cache.power(design)
        cache.area(design)
        cache.timing(design)
        assert cache.stats()["size"] == 1
        assert cache.stats()["misses"] == 3

    def test_lru_bound_and_eviction(self):
        cache = EvaluationCache(maxsize=2)
        designs = [_simple_design(f"d{i}") for i in range(3)]
        for design in designs:
            cache.power(design)
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 1
        # d0 was evicted; d2 (most recent) still hits
        cache.power(designs[2])
        assert cache.stats()["hits"] == 1
        cache.power(designs[0])
        assert cache.stats()["misses"] == 4

    def test_lru_recency_order(self):
        cache = EvaluationCache(maxsize=2)
        a, b, c = (_simple_design(f"d{i}") for i in range(3))
        cache.power(a)
        cache.power(b)
        cache.power(a)  # refresh a; b is now least-recent
        cache.power(c)  # evicts b
        cache.power(a)
        assert cache.stats()["hits"] == 2
        cache.power(b)
        assert cache.stats()["misses"] == 4

    def test_default_cache_helpers(self):
        design = _simple_design("default_cache_probe")
        before = DEFAULT_CACHE.stats()["misses"]
        report = cached_evaluate_power(design)
        assert report.power == pytest.approx(evaluate_power(design).power)
        assert DEFAULT_CACHE.stats()["misses"] == before + 1

    def test_explicit_empty_cache_is_used_not_default(self):
        """Regression: __len__ makes an empty cache falsy, so a
        ``cache or DEFAULT_CACHE`` fallback would silently route an
        explicitly passed (empty) cache to the global one."""
        private = EvaluationCache()
        design = _simple_design("empty_cache_probe")
        default_before = DEFAULT_CACHE.stats()["misses"]
        cached_evaluate_power(design, cache=private)
        assert private.stats()["misses"] == 1
        assert DEFAULT_CACHE.stats()["misses"] == default_before



class TestInvalidation:
    """Each mutation must force re-evaluation matching a fresh one."""

    def _assert_tracks_fresh(self, cache, design):
        cached = cache.power(design)
        fresh = evaluate_power(design)
        assert cached.power == pytest.approx(fresh.power)

    def test_scope_set(self):
        cache = EvaluationCache()
        design = _simple_design()
        before = cache.power(design).power
        design.scope.set("VDD", 1.1)
        self._assert_tracks_fresh(cache, design)
        assert cache.power(design).power != pytest.approx(before)

    def test_row_parameter_set(self):
        cache = EvaluationCache()
        design = _simple_design()
        before = cache.power(design).power
        design.row("row1").set("C", 2e-12)
        self._assert_tracks_fresh(cache, design)
        assert cache.power(design).power == pytest.approx(before * 2)

    def test_add_and_remove_row(self):
        cache = EvaluationCache()
        design = _simple_design()
        single = cache.power(design).power
        design.add("row2", _probe_model("probe_model2"))
        self._assert_tracks_fresh(cache, design)
        assert cache.power(design).power == pytest.approx(single * 2)
        design.remove("row2")
        # back to the original structure: the plan recompiles (it holds
        # only the latest), and the number is right
        misses_before = cache.stats()["misses"]
        assert cache.power(design).power == pytest.approx(single)
        assert cache.stats()["misses"] == misses_before + 1

    def test_quantity_change(self):
        cache = EvaluationCache()
        design = _simple_design()
        single = cache.power(design).power
        design.row("row1").quantity = 3
        self._assert_tracks_fresh(cache, design)
        assert cache.power(design).power == pytest.approx(single * 3)

    def test_record_measurement(self):
        cache = EvaluationCache()
        design = _simple_design()
        modeled = cache.power(design).power
        design.row("row1").record_measurement(42.0)
        self._assert_tracks_fresh(cache, design)
        assert cache.power(design).power == pytest.approx(42.0)
        design.row("row1").clear_measurement()
        assert cache.power(design).power == pytest.approx(modeled)

    def test_macro_inner_design_mutation(self):
        """A macro wraps a live design — inner edits must invalidate the
        outer design's fingerprint."""
        inner = _simple_design("inner")
        outer = Design("outer")
        outer.scope.set("f_clk", 1e6)
        outer.add("macro_row", inner.as_macro())
        before = EvaluationCache()
        first = before.power(outer).power
        inner.scope.set("VDD", 1.1)
        cached = before.power(outer)
        fresh = evaluate_power(outer)
        assert cached.power == pytest.approx(fresh.power)
        assert cached.power != pytest.approx(first)

    def test_infopad_global_parameter(self):
        cache = EvaluationCache()
        design = build_infopad()
        nominal = cache.power(design).power
        design.scope.set("VDD2", 1.1)
        self._assert_tracks_fresh(cache, design)
        assert cache.power(design).power != pytest.approx(nominal)


class TestFingerprint:
    def test_stable_for_unchanged_design(self):
        design = build_infopad()
        assert design_fingerprint(design) == design_fingerprint(design)

    def test_differs_across_equivalent_but_distinct_models(self):
        """Two structurally identical designs use distinct model objects;
        identity-based model tokens must keep their keys apart (models
        are only guaranteed immutable per instance)."""
        assert design_fingerprint(_simple_design()) != design_fingerprint(
            _simple_design()
        )

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            EvaluationCache(maxsize=0)


# -- live plans: what a stale plan would get wrong ---------------------------------


KINDS = (
    ("power", evaluate_power, power_fields),
    ("area", evaluate_area, area_fields),
    ("timing", evaluate_timing, timing_fields),
)


def assert_fresh(cache, design):
    """Every kind the cache gives equals a fresh evaluation, bit for bit
    (or fails the same way); so does an unchanged second ask."""
    for kind, fresh, fields in KINDS + KINDS[:1]:
        expected = outcome(fresh, design, fields=fields)
        assert outcome(getattr(cache, kind), design, fields=fields) == expected, kind


def _feed_chain():
    """``src`` reads VDD, ``gate`` reads K (and raises for K < 0),
    ``dcdc`` feeds on ``src`` — evaluated in that order."""
    design = Design("chain")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 1e6)
    design.add("src", _probe_model())
    design.add("gate", ExpressionPowerModel("gate", "sqrt(K) * 1m"), params={"K": 1.0})
    design.add("dcdc", DCDCConverterModel("dcdc", 0.85), power_feeds=["src"])
    return design


class TestLivePlans:
    def test_one_plan_reused_across_float_edits(self):
        cache = EvaluationCache()
        design = build_infopad()
        cache.power(design)
        (entry,) = cache._entries.values()
        plan = entry.plan
        for vdd in (1.1, 1.3, 1.5):
            design.scope.set("VDD2", vdd)
            assert_fresh(cache, design)
        assert entry.plan is plan

    def test_row_removed_and_readded_with_a_new_value(self):
        """Same name, same model object, new row object: a key without
        identities would refresh the old row's scope."""
        cache = EvaluationCache()
        model = _probe_model()
        design = Design("readd")
        design.scope.set("VDD", 3.3)
        design.scope.set("f", 1e6)
        design.add("row1", model)
        assert_fresh(cache, design)
        design.remove("row1")
        design.add("row1", model, params={"C": 2e-12})
        assert_fresh(cache, design)
        assert cache.power(design).power == pytest.approx(2 * 3.3 ** 2 * 1e6 * 1e-12)

    def test_twin_designs_sharing_model_objects(self):
        """Two users' copies of one example share its model objects."""
        cache = EvaluationCache()
        model = _probe_model()
        twins = []
        for vdd in (3.3, 1.1):
            design = Design("twin")
            design.scope.set("VDD", vdd)
            design.scope.set("f", 1e6)
            design.add("row1", model)
            twins.append(design)
        for design in twins + twins:
            assert_fresh(cache, design)
        assert cache.power(twins[0]).power != cache.power(twins[1]).power

    def test_a_raising_evaluation_raises_again_then_heals(self):
        """The failing pass is no report: the same edit fails the same
        way, and once fixed every row is fresh again — including
        ``dcdc``, whose feed recomputed before ``gate`` raised."""
        cache = EvaluationCache()
        design = _feed_chain()
        assert_fresh(cache, design)
        design.scope.set("VDD", 2.5)
        design.row("gate").set("K", -1.0)
        for _ in range(2):
            with pytest.raises(PowerPlayError, match="sqrt of negative"):
                cache.power(design)
        assert_fresh(cache, design)
        design.row("gate").set("K", 4.0)
        assert_fresh(cache, design)

    def test_a_raising_formula_then_a_valid_value(self):
        cache = EvaluationCache()
        design = _feed_chain()
        assert_fresh(cache, design)
        design.scope.set("VDD", "1 / 0")
        assert outcome(cache.power, design)[0] == "raised"
        assert_fresh(cache, design)
        design.scope.set("VDD", 1.8)
        assert_fresh(cache, design)

    def test_mutating_a_report_does_not_reach_the_next(self):
        cache = EvaluationCache()
        design = _feed_chain()
        for report in (cache.power(design), cache.power(design)):
            report.parameters["VDD"] = -1.0
            for child in report.children:
                child.details["spoiled"] = 1.0
                child.parameters["spoiled"] = 1.0
        assert_fresh(cache, design)
        # a partial recompute: ``src`` and ``dcdc`` keep last pass's dicts
        first = cache.power(design)
        first["src"].details.clear()
        first["src"].parameters.clear()
        design.row("gate").set("K", 2.0)
        assert_fresh(cache, design)

    def test_a_plan_hands_out_its_own_dicts_once(self):
        """Straight from a plan: a row the next report does not
        recompute must not share dicts with the last one."""
        design = _feed_chain()
        plan = Plan(design)
        first = evaluate_power(design, plan=plan)
        first["src"].details["spoiled"] = 1.0
        first["src"].parameters["spoiled"] = 1.0
        first.parameters["spoiled"] = 1.0
        design.row("gate").set("K", 2.0)
        assert plan.refresh()
        assert power_fields(evaluate_power(design, plan=plan)) == power_fields(
            evaluate_power(design))

    def test_refresh_marks_only_the_readers(self):
        design = _feed_chain()
        plan = Plan(design)
        evaluate_power(design, plan=plan)
        misses = plan.misses
        design.row("gate").set("K", 2.0)
        assert plan.refresh()
        assert not plan.refresh()  # nothing new since
        evaluate_power(design, plan=plan)
        assert plan.misses - misses == 1  # gate alone

    def test_a_given_plan_takes_no_overrides(self):
        design = _feed_chain()
        with pytest.raises(ValueError):
            evaluate_power(design, {"VDD": 1.0}, plan=Plan(design))
        with pytest.raises(ValueError):
            evaluate_power(design, plan=Plan(_feed_chain()))

    def test_concurrent_kinds_on_one_design(self):
        """8 threads ask power, area and timing of one design at once,
        round after round of edits, switching every 10 µs."""
        previous = sys.getswitchinterval()
        cache = EvaluationCache()
        design = build_infopad()
        rounds = [1.1, 1.3, 1.5, 1.2]
        barrier = threading.Barrier(9, timeout=60)
        expected = {}
        failures = []

        def worker(index):
            rng = random.Random(index)
            for _ in rounds:
                barrier.wait()  # the edit is made
                for _ in range(6):
                    kind, _, fields = rng.choice(KINDS)
                    got = outcome(getattr(cache, kind), design, fields=fields)
                    if got != expected[kind]:
                        failures.append((index, kind))
                barrier.wait()  # all asked

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for vdd in rounds:
                design.scope.set("VDD2", vdd)
                expected.update({kind: outcome(fresh, design, fields=fields)
                                 for kind, fresh, fields in KINDS})
                barrier.wait()
                barrier.wait()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert cache.stats()["size"] == 1

    def test_lookups_racing_edits_end_fresh(self):
        """Edits land while 8 threads look up.  Once they stop, every
        kind is fresh: a report computed before a later refresh must
        never be stored over that refresh (the per-plan lock)."""
        previous = sys.getswitchinterval()
        cache = EvaluationCache()
        design = build_infopad()
        # a fallback row that lets go of the interpreter mid-pass
        design.add("tool", CallablePowerModel(
            "tool", lambda env: time.sleep(2e-4) or env["VDD2"] * 1e-3))

        def worker(index, done):
            rng = random.Random(index)
            while not done.is_set():
                getattr(cache, rng.choice(KINDS)[0])(design)

        sys.setswitchinterval(1e-5)
        try:
            for burst in range(4):
                done = threading.Event()
                threads = [threading.Thread(target=worker, args=(i, done))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for step in range(100):
                    design.scope.set("VDD2", 1.0 + burst * 0.1 + step * 1e-3)
                    time.sleep(1e-4)
                done.set()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert_fresh(cache, design)
        finally:
            sys.setswitchinterval(previous)


# -- random edit sequences ------------------------------------------------------------

EDIT_SETTINGS = settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
VALUES = (0.5, 1.2, 2.0, 3.3, 0.0, -0.0, -1.0, 1e-3, 70.0)
FORMULAS = ("VDD * 2", "x + 1", "bits / 8", "scale / 2", "1 / 0", "missing + 1")
#: shared by every added row, as library models are
SHARED = (
    _probe_model("shared_probe"),
    ExpressionPowerModel("shared_load", "P_load * 0.1 + VDD * 1m"),
    FixedPowerModel("shared_fixed", 0.2),
)


def _all_designs(design):
    """The design, its sub-designs and its macros' inner designs."""
    yield design
    for row in design:
        if isinstance(row, SubDesign):
            yield from _all_designs(row.design)
        elif isinstance(getattr(row.models.power, "design", None), Design):
            yield from _all_designs(row.models.power.design)


def _views(design):
    """What the sheet shows: the design and each mounted sub-design."""
    yield design
    for row in design:
        if isinstance(row, SubDesign):
            yield from _views(row.design)


def _edit(rng, design, removed):
    """One random edit somewhere in ``design`` (rejected ones are fine)."""
    target = rng.choice(list(_all_designs(design)))
    rows = [row for row in target if not isinstance(row, SubDesign)]
    scope = rng.choice([target.scope] + [row.scope for row in rows])
    roll = rng.random()
    if roll < 0.35:  # a float write: design, mount-point or row scope
        floats = [name for name, value in scope._values.items() if type(value) is float]
        scope.set(rng.choice(floats or list(GLOBALS)), rng.choice(VALUES))
    elif roll < 0.45:  # a formula, possibly one that raises
        scope.set(rng.choice(GLOBALS + ("alpha",)), rng.choice(FORMULAS))
    elif roll < 0.5:
        if scope._values:
            scope.unset(rng.choice(list(scope._values)))
    elif roll < 0.55:
        scope.set(rng.choice(("fresh", "alpha", "C")), rng.choice(VALUES))
    elif roll < 0.65:  # add a row, or re-add one removed earlier
        if removed and rng.random() < 0.5:
            name, models = removed.pop()
        else:
            name, models = f"n{rng.randrange(100)}", rng.choice(SHARED)
        if name not in target:
            feeds = [n for n in target.row_names() if rng.random() < 0.3]
            target.add(name, models, params={"C": rng.choice(VALUES)},
                       power_feeds=feeds)
    elif roll < 0.7:
        if rows:
            row = rng.choice(rows)
            target.remove(row.name)
            removed.append((row.name, row.models))
    elif roll < 0.75:  # the last row replaced by a twin with one new value
        last = target.row(target.row_names()[-1]) if len(target) else None
        if last is not None and not isinstance(last, SubDesign):
            params = dict(last.scope._values)
            floats = [name for name, value in params.items() if type(value) is float]
            if floats:
                params[rng.choice(floats)] = rng.choice(VALUES)
            target.remove(last.name)
            target.add(last.name, last.models, params=params,
                       power_feeds=last.power_feeds, area_feeds=last.area_feeds,
                       quantity=last.quantity, doc=last.doc)
    elif roll < 0.8:
        if rows:
            rng.choice(rows).quantity = rng.choice([1, 2, 3])
    elif roll < 0.88:
        if rows:
            row = rng.choice(rows)
            if rng.random() < 0.6:
                row.record_measurement(rng.choice([0.0, 0.02, 0.5]))
            else:
                row.clear_measurement()
    else:  # the top design's supply, often the value that made it raise
        design.scope.set("VDD", rng.choice([1.5, 2.0, "1 / 0", -1.0]))


@EDIT_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), edits=st.integers(0, 2**32 - 1))
def test_edit_sequences_match_a_fresh_plan(seed, edits):
    design = build_design(seed)
    rng = random.Random(edits)
    cache = EvaluationCache()
    removed = []
    for view in _views(design):
        assert_fresh(cache, view)
    for _ in range(8):
        try:
            _edit(rng, design, removed)
        except PowerPlayError:
            pass  # refused: nothing changed
        for view in _views(design):
            assert_fresh(cache, view)
    design.scope.set("VDD", 1.5)  # valid again
    for view in _views(design):
        assert_fresh(cache, view)


def test_macro_inner_edit_is_a_miss_and_fresh():
    inner = _simple_design("inner_live")
    outer = Design("outer_live")
    outer.scope.set("f", 1e6)
    outer.add("macro_row", inner.as_macro())
    cache = EvaluationCache()
    assert_fresh(cache, outer)
    misses = cache.stats()["misses"]
    inner.row("row1").set("C", 5e-12)
    assert_fresh(cache, outer)
    assert cache.stats()["misses"] > misses
