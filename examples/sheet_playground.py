"""The live spreadsheet: a design as recalculating cells.

"A spread-sheet-like work sheet, which presents the design-under-
exploration and allows the study of the impact of parameter variations"
— this example drives that surface directly (no web browser):

* every global and row parameter is a writable cell;
* every row's power is a cell read from the design's live plan, which
  an edit recomputes once, and only in the rows the edit dirtied;
* user-defined derived cells ("any parameter can be expressed as a
  function of these parameters"): battery current, frame energy, the
  share of the budget one block owns.

Run:  python examples/sheet_playground.py
"""

from repro.core.sheetbridge import DesignSheet
from repro.core.units import format_quantity
from repro.designs.luminance import build_figure3_design


#: derived cells the designer types into the sheet, with display units
DERIVED = {
    "energy_per_frame": ("P.total / 60", "J"),     # per frame at 60 Hz
    "battery_current": ("P.total / 1.5", "A"),     # from the 1.5 V rail
    "lut_share": ("P.lut / P.total", ""),          # the block to optimize first
}


def show(bridge: DesignSheet, label: str) -> None:
    print(f"\n-- {label} --")
    values = bridge.values()
    for name in sorted(values):
        if name.startswith("P.") or name in DERIVED:
            unit = "W" if name.startswith("P.") else DERIVED[name][1]
            print(f"  {name:22s} {format_quantity(values[name], unit)}")


def main() -> None:
    design = build_figure3_design()
    bridge = DesignSheet(design)

    for name, (formula, _unit) in DERIVED.items():
        bridge.add_derived(name, formula)

    show(bridge, "nominal (1.5 V)")
    print(f"\n  evaluations so far: {bridge.evaluations} "
          "(one hierarchical PLAY serves every cell)")

    bridge.set_parameter("g.VDD", 1.1)
    show(bridge, "after one edit: VDD -> 1.1 V")
    print(f"  evaluations now: {bridge.evaluations} (exactly one more)")

    bridge.set_parameter("lut.words", 256)
    show(bridge, "after a second edit: smaller codebook (lut.words = 256)")

    print("\nThe derived cells track automatically — the spreadsheet is "
          "the design.")


if __name__ == "__main__":
    main()
