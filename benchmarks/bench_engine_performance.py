"""Engine performance — the substrate behind "virtually instantaneous".

The paper's usability claims rest on the spreadsheet being fast: form
feedback is immediate and PLAY on a whole system is interactive.  These
benches pin that down on synthetic designs much bigger than the paper's
(hundreds of rows and hierarchy levels) and check that an edit through
the design spreadsheet recomputes only the row it touched.
"""

from conftest import banner

from repro.core.design import Design
from repro.core.estimator import evaluate_power
from repro.core.expressions import compile_expression as E
from repro.core.model import CapacitiveTerm, TemplatePowerModel
from repro.core.parameters import Parameter
from repro.core.sheetbridge import DesignSheet

ADDER = TemplatePowerModel(
    "adder",
    capacitive=[CapacitiveTerm("bits", E("bitwidth * 68f"))],
    parameters=(Parameter("bitwidth", 16),),
)


def big_design(rows: int = 200) -> Design:
    design = Design("big")
    design.scope.set("VDD", 1.5)
    design.scope.set("f", 2e6)
    for index in range(rows):
        design.add(f"row{index:03d}", ADDER, params={"bitwidth": 8 + index % 24})
    return design


def test_play_on_200_rows(benchmark):
    design = big_design(200)
    report = benchmark(evaluate_power, design)

    banner(
        "Engine — PLAY on a 200-row design",
        "'when the Play button is hit, the entire design is passed ...'",
    )
    stats = benchmark.stats.stats if benchmark.stats else None
    print(f"200-row hierarchical evaluation; total "
          f"{report.power * 1e3:.2f} mW")
    assert report.power > 0
    assert len(report.children) == 200


def test_deep_hierarchy(benchmark):
    """'There is no fundamental limit to the levels of hierarchy.'"""

    def build_and_evaluate():
        leaf = Design("level00")
        leaf.add("adder", ADDER, params={"bitwidth": 8})
        current = leaf
        for level in range(1, 30):
            parent = Design(f"level{level:02d}")
            parent.add_subdesign(f"sub{level:02d}", current)
            current = parent
        current.scope.set("VDD", 1.5)
        current.scope.set("f", 2e6)
        return evaluate_power(current)

    report = benchmark(build_and_evaluate)
    print(f"\n30-level hierarchy evaluated: {report.power * 1e6:.3f} uW, "
          "VDD inherited from the top")
    # exactly one leaf, 30 levels down
    assert len(list(report.leaves())) == 1


def test_incremental_recalc_beats_full(benchmark):
    """Editing one row must not recompute the whole design."""
    bridge = DesignSheet(big_design(500))
    _ = bridge.total_power  # settle
    counter = {"n": 0}

    def edit_one():
        counter["n"] += 1
        bridge.set_parameter("row250.bitwidth", 8 + counter["n"] % 24)
        return bridge.row_power("row250")

    value = benchmark(edit_one)
    assert value == evaluate_power(bridge.design)["row250"].power

    # measure work directly: rows the live plan recomputes for one edit
    (entry,) = bridge.cache._entries.values()
    misses = entry.plan.misses
    bridge.set_parameter("row100.bitwidth", 5)
    _ = bridge.total_power
    assert entry.plan.misses - misses == 1  # the edited row alone
    print("\nsingle row edit recomputes 1 of 500 rows — cone-of-influence "
          "recalculation")


def test_design_sheet_bridge_incremental(benchmark):
    design = big_design(60)
    bridge = DesignSheet(design)
    _ = bridge.total_power  # settle

    counter = {"n": 0}
    design_rows = 60

    def edit_and_read():
        counter["n"] += 1
        bridge.set_parameter(
            f"row{counter['n'] % design_rows:03d}.bitwidth",
            8 + counter["n"] % 24,
        )
        return bridge.total_power

    total = benchmark(edit_and_read)
    assert total > 0
    print(f"\n60-row bridge: one parameter edit + total refresh per round")
