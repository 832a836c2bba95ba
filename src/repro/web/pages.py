"""HTML page renderers: menu, library, input form, design spreadsheet.

Pure functions from state to markup; :mod:`repro.web.app` wires them to
routes.  The three screens the paper shows:

* Figure 4 — the primitive input form (parameters in, instant power/
  capacitance feedback, "save to design" at the bottom);
* Figure 2 — a chip-level design spreadsheet (one row per block, Play
  button, engineering-notation powers, share column);
* Figure 5 — a system-level spreadsheet whose sub-design rows hyperlink
  to their own spreadsheets.
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.design import Design, SubDesign
from ..core.estimator import AreaReport, PowerReport, TimingReport
from ..core.expressions import Expression
from ..core.parameters import Parameter
from ..core.units import format_eng, format_quantity
from ..library.catalog import Library, LibraryEntry
from . import html as H


def cred(user: str, auth: str = "") -> str:
    """Query-string credential: cookie-less 1996-style URL rewriting.

    Users without a password authenticate by name alone (the paper's
    default); password-protected users carry a login token in every URL.
    """
    suffix = f"&auth={auth}" if auth else ""
    return f"user={user}{suffix}"


def auth_fields(user: str, auth: str = "") -> H.Raw:
    """The hidden credential inputs every form posts back."""
    fields = [H.hidden_input("user", user)]
    if auth:
        fields.append(H.hidden_input("auth", auth))
    return H.join(*fields)


def nav_for(user: str, auth: str = "") -> List[Tuple[str, str]]:
    q = cred(user, auth)
    return [
        (f"/menu?{q}", "Main Menu"),
        (f"/library?{q}", "Library"),
        (f"/define?{q}", "Define Model"),
        (f"/sweep?{q}", "Sweeps"),
        ("/tutorial", "Tutorial"),
        ("/help", "Help"),
    ]


def login_page(error: str = "") -> str:
    body = [
        H.paragraph(
            "PowerPlay tracks each individual's designs and preferences. "
            "Since WWW browsers do not supply user names, please identify "
            "yourself."
        ),
        H.form(
            "/login",
            H.join(
                "Username: ",
                H.text_input("user"),
                "  Password (if set): ",
                H.tag("input", type="password", name="password"),
                " ",
                H.submit("Enter PowerPlay"),
            ),
        ),
    ]
    if error:
        body.insert(0, H.tag("p", error, class_="error"))
    return H.page("PowerPlay — Early Power Exploration", *body)


def menu_page(
    user: str,
    libraries: Sequence[Library],
    designs: Sequence[str],
    examples: Sequence[str],
    auth: str = "",
) -> str:
    q = cred(user, auth)
    library_items = [
        H.join(
            H.link(f"/library?{q}&library={library.name}", library.name),
            f" — {library.description} ({len(library)} entries)",
        )
        for library in libraries
    ]
    design_items = [
        H.link(f"/design?{q}&name={name}", name) for name in designs
    ] or [H.Raw("<i>none yet</i>")]
    example_items = [
        H.form(
            "/design/load_example",
            H.join(
                auth_fields(user, auth),
                H.hidden_input("example", example),
                H.submit(f"Load {example}"),
            ),
        )
        for example in examples
    ]
    return H.page(
        f"PowerPlay Main Menu — {user}",
        H.heading("Hardware libraries", 2),
        H.unordered_list(library_items),
        H.heading("Your designs", 2),
        H.unordered_list(design_items),
        H.form(
            "/design/new",
            H.join(
                auth_fields(user, auth),
                "New design name: ",
                H.text_input("name"),
                " ",
                H.submit("Create"),
            ),
        ),
        H.heading("Example designs", 2),
        H.join(*example_items),
        H.heading("Account", 2),
        H.form(
            "/password",
            H.join(
                auth_fields(user, auth),
                "Set password: ",
                H.tag("input", type="password", name="password"),
                " ",
                H.submit("Protect my designs"),
            ),
        ),
        nav=nav_for(user, auth),
    )


def library_page(user: str, libraries: Sequence[Library], auth: str = "") -> str:
    q = cred(user, auth)
    sections: List[H.Content] = []
    for library in libraries:
        sections.append(H.heading(library.name, 2))
        if library.description:
            sections.append(H.paragraph(library.description))
        for category, names in sorted(library.categories().items()):
            rows = []
            for name in names:
                entry = library.get(name)
                doc_links = " ".join(
                    H.link(href, "[doc]") for href in entry.links[:1]
                )
                rows.append(
                    [
                        H.link(f"/cell?{q}&name={name}", name),
                        entry.doc,
                        H.Raw(doc_links),
                    ]
                )
            sections.append(H.heading(category, 3))
            sections.append(H.table(rows, header=["Element", "Description", ""]))
    return H.page(f"Library — {user}", *sections, nav=nav_for(user, auth))


def _parameter_field(
    parameter: Parameter, value: Optional[float]
) -> H.Raw:
    shown = value if value is not None else parameter.default
    if parameter.choices:
        options = [format_quantity(float(c)) for c in parameter.choices]
        field = H.select(f"p:{parameter.name}", options, str(shown))
    else:
        field = H.text_input(f"p:{parameter.name}", shown)
    note = parameter.doc
    if parameter.unit:
        note = f"[{parameter.unit}] {note}"
    return H.labelled_field(parameter.name, field, note)


def cell_form_page(
    user: str,
    entry: LibraryEntry,
    values: Mapping[str, float],
    result: Optional[Mapping[str, str]] = None,
    designs: Sequence[str] = (),
    error: str = "",
    auth: str = "",
) -> str:
    """The Figure 4 input form, with the result excerpt below."""
    fields: List[H.Content] = []
    parameters = list(entry.models.parameters)
    names = {parameter.name for parameter in parameters}
    for parameter in parameters:
        fields.append(_parameter_field(parameter, values.get(parameter.name)))
    if "VDD" not in names:
        fields.append(
            H.labelled_field(
                "VDD", H.text_input("p:VDD", values.get("VDD", 1.5)), "[V] supply"
            )
        )
    if "f" not in names:
        fields.append(
            H.labelled_field(
                "f",
                H.text_input("p:f", values.get("f", 2e6)),
                "[Hz] access frequency",
            )
        )
    body: List[H.Content] = [
        H.paragraph(entry.doc),
        H.paragraph(
            H.join(*[H.link(href, "[documentation] ") for href in entry.links])
        ),
        H.form(
            "/cell",
            H.join(
                auth_fields(user, auth),
                H.hidden_input("name", entry.name),
                H.field_table(fields),
                H.submit("Compute"),
            ),
        ),
    ]
    if error:
        body.append(H.tag("p", error, class_="error"))
    if result:
        rows = [[key, H.tag("span", value, class_="num")] for key, value in result.items()]
        body.append(H.heading("Result", 2))
        body.append(H.table(rows, header=["Quantity", "Value"]))
        save_fields = H.join(
            auth_fields(user, auth),
            H.hidden_input("name", entry.name),
            *[
                H.hidden_input(f"p:{key}", value)
                for key, value in values.items()
            ],
            "Add to design: ",
            H.select("design", list(designs) or ["(create one first)"]),
            " as row ",
            H.text_input("row", entry.name),
            " ",
            H.submit("Save to design"),
        )
        body.append(H.form("/cell/save", save_fields))
    return H.page(f"{entry.name} — {user}", *body, nav=nav_for(user, auth))


def _sheet_fields(scope, prefix: str, size: int) -> str:
    """A scope's own parameters as ``name=<input>`` fields; ``prefix``
    is the field-name prefix, already escaped."""
    fields = []
    for name in scope.local_names():
        shown = scope.raw(name)
        if not isinstance(shown, float):  # a float's text needs no escaping
            if isinstance(shown, Expression):
                shown = shown.source
            shown = escape(str(shown))
        name = escape(str(name))
        fields.append(
            f'{name}=<input type="text" name="{prefix}{name}" '
            f'value="{shown}" size="{size}"> '
        )
    return "".join(fields)


def design_sheet_page(
    user: str,
    design: Design,
    report: PowerReport,
    design_name: Optional[str] = None,
    path: str = "",
    error: str = "",
    auth: str = "",
) -> str:
    """The Figure 2 / Figure 5 spreadsheet.

    Every PLAY returns this page, so it is written from f-string
    fragments rather than the :mod:`~repro.web.html` helpers, with each
    value escaped once (formatted numbers need none).
    """
    design_name = design_name or design.name
    total = report.power
    # every link on the page starts from this query
    query = escape(f"{cred(user, auth)}&name={design_name}")
    children: Dict[str, PowerReport] = {}
    for child in report.children:
        children.setdefault(child.name, child)  # the one child() finds
    rows = []
    for row in design:
        child = children.get(row.name)
        if child is None:
            child = report.child(row.name)  # raises its DesignError
        name = escape(str(row.name))
        cell = name
        if isinstance(row, SubDesign):
            cell = f'<a href="/design?{query}&amp;path={name}">{name}</a>'
        source = (
            "" if child.source in ("modeled", "hierarchy") else child.source
        )
        rows.append(
            f"<tr><td>{cell}</td>"
            f"<td>{_sheet_fields(row.scope, f'p:{name}:', 8)}</td>"
            f'<td><span class="num">{format_eng(child.power, "W")}</span>'
            f"</td><td>{100.0 * child.fraction_of(total):.1f}%</td>"
            f"<td>{escape(str(source))}</td>"
            f"<td>{escape(str(row.doc))}</td></tr>"
        )
    hidden = '<input type="hidden" name="{}" value="{}">'.format
    fields = hidden("user", escape(user))
    if auth:
        fields += hidden("auth", escape(auth))
    fields += hidden("name", escape(str(design_name)))
    fields += hidden("path", escape(path))
    analysis = f"/design/analysis?{query}"
    if path:
        analysis += f"&amp;path={escape(path)}"
    body = (
        (f'<p class="error">{escape(error)}</p>' if error else "")
        + f'<form action="/design" method="post">{fields}'
        "<h2>Global parameters</h2>"
        f"<p>{_sheet_fields(design.scope, 'g:', 10)}</p>"
        '<table border="1" cellpadding="3">'
        f"<caption>{escape(f'{design.name} summary')}</caption>"
        "<tr><th>Name</th><th>Parameters</th><th>Power</th><th>Share</th>"
        f"<th>Source</th><th>Notes</th></tr>{''.join(rows)}</table>"
        '<p><input type="submit" value="PLAY">&nbsp;'
        f"<b>Total: {format_eng(total, 'W')}"
        f"  ({format_quantity(total, 'W')})</b></p></form>"
        f'<p><a href="/export/design?{query}">Export design as JSON</a> | '
        f'<a href="{analysis}">Area / timing analysis</a></p>'
    )
    title = design.name if not path else f"{design_name} / {design.name}"
    return H.page(f"{title} — {user}", H.Raw(body), nav=nav_for(user, auth))


def define_model_page(
    user: str, error: str = "", saved: str = "", auth: str = ""
) -> str:
    """The "define your own primitive" form.

    "The user is prompted for names, equations, and documentation
    information."
    """
    body: List[H.Content] = [
        H.paragraph(
            "Define a new primitive.  The power equation may use your "
            "declared parameters plus VDD and f; write capacitances with "
            "engineering suffixes (e.g. 253f) and standard functions "
            "(log2, sqrt, ...)."
        ),
        H.form(
            "/define",
            H.join(
                auth_fields(user, auth),
                H.field_table(
                    [
                        H.labelled_field("Name", H.text_input("name", size=20)),
                        H.labelled_field(
                            "Power equation [W]",
                            H.text_input("equation", size=50),
                            "e.g. bitwidth * 68f * VDD^2 * f",
                        ),
                        H.labelled_field(
                            "Parameters",
                            H.text_input("parameters", size=40),
                            "name=default pairs, space-separated "
                            "(e.g. 'bitwidth=16 alpha=0.5')",
                        ),
                        H.labelled_field(
                            "Area equation [m2]",
                            H.text_input("area_equation", size=50),
                            "optional, e.g. bitwidth * 2.3n",
                        ),
                        H.labelled_field(
                            "Delay equation [s]",
                            H.text_input("delay_equation", size=50),
                            "optional, e.g. bitwidth * 1.1n * (1.5 / VDD)",
                        ),
                        H.labelled_field(
                            "Category",
                            H.select(
                                "category",
                                ["computation", "storage", "controller",
                                 "analog", "system", "other"],
                            ),
                        ),
                        H.labelled_field(
                            "Documentation", H.text_input("doc", size=50)
                        ),
                        H.labelled_field(
                            "Proprietary",
                            H.select("proprietary", ["no", "yes"]),
                            "proprietary models are not shared",
                        ),
                    ]
                ),
                H.submit("Create model"),
            ),
        ),
    ]
    if error:
        body.insert(0, H.tag("p", error, class_="error"))
    if saved:
        body.insert(
            0,
            H.paragraph(
                H.join(
                    f"Model {saved} created with documentation links — ",
                    H.link(f"/cell?{cred(user, auth)}&name={saved}", "open its input form"),
                )
            ),
        )
    return H.page(f"Define a model — {user}", *body, nav=nav_for(user, auth))


def doc_page(entry: LibraryEntry) -> str:
    """Auto-generated documentation for a library entry."""
    parameters = entry.models.parameters
    rows = [
        [
            p.name,
            format_quantity(float(p.default))
            if isinstance(p.default, (int, float))
            else str(p.default),
            p.unit,
            p.doc,
        ]
        for p in parameters
    ]
    return H.page(
        f"Documentation — {entry.name}",
        H.paragraph(entry.doc),
        H.heading("Parameters", 2),
        H.table(rows, header=["Name", "Default", "Unit", "Description"]),
        H.paragraph(f"Category: {entry.category}; origin: {entry.origin}"),
    )


def tutorial_page() -> str:
    return H.page(
        "PowerPlay tutorial",
        H.paragraph(
            "1. Identify yourself on the front page.  2. Browse the library "
            "and open a primitive's input form.  3. Set parameters and "
            "Compute — feedback is immediate, so cycle through options.  "
            "4. Save the configured primitive into a design.  5. On the "
            "design spreadsheet, adjust any parameter (rows inherit the "
            "globals) and press PLAY to recompute the whole hierarchy."
        ),
        H.paragraph(
            "Sub-design rows are hyperlinked: click through to optimize a "
            "subsystem, then return to the top page — the entire design "
            "space is accessible from one location."
        ),
    )


def help_page() -> str:
    return H.page(
        "PowerPlay help",
        H.unordered_list(
            [
                "Quantities accept engineering notation: 253f, 2M, 1.5.",
                "Formulas may reference other parameters: f_pixel / 16.",
                "The PLAY button recomputes power for the entire design.",
                "Export links serve JSON payloads other PowerPlay servers "
                "can import (remote model access).",
            ]
        ),
    )


def design_analysis_page(
    user: str,
    design: Design,
    area: "AreaReport",
    timing: "TimingReport",
    design_name: str,
    path: str = "",
    auth: str = "",
) -> str:
    """Area and timing tables for a design.

    "Though not detailed in this paper, parameterized models are also
    used for area and timing analysis."  Rows without an area/timing
    model show '-' rather than a false zero.
    """
    area_rows: List[List[H.Content]] = []

    def emit_area(node, depth: int) -> None:
        text = (
            format_quantity(node.area * 1e12, "um2") if node.modeled else "-"
        )
        area_rows.append(["  " * depth + node.name, H.tag("span", text, class_="num")])
        for child in node.children:
            emit_area(child, depth + 1)

    emit_area(area, 0)

    timing_rows: List[List[H.Content]] = []

    def emit_timing(node, depth: int) -> None:
        if node.modeled and node.delay > 0:
            text = format_quantity(node.delay, "s")
            frequency = format_quantity(1.0 / node.delay, "Hz")
        else:
            text, frequency = "-", "-"
        timing_rows.append(
            [
                "  " * depth + node.name,
                H.tag("span", text, class_="num"),
                H.tag("span", frequency, class_="num"),
            ]
        )
        for child in node.children:
            emit_timing(child, depth + 1)

    emit_timing(timing, 0)

    back = f"/design?{cred(user, auth)}&name={design_name}"
    if path:
        back += f"&path={path}"
    return H.page(
        f"{design.name} — area / timing — {user}",
        H.paragraph(H.link(back, "Back to the power spreadsheet")),
        H.heading("Active area", 2),
        H.table(area_rows, header=["Name", "Area"]),
        H.heading("Timing (critical path = max over rows)", 2),
        H.table(timing_rows, header=["Name", "Delay", "Max frequency"]),
        nav=nav_for(user, auth),
    )


def _job_table(
    user: str, summaries: Sequence[Mapping], auth: str = ""
) -> H.Raw:
    q = cred(user, auth)
    rows: List[List[H.Content]] = []
    for summary in summaries:
        job_id = summary["job_id"]
        progress = f"{summary['done']}/{summary['points']}"
        rows.append(
            [
                H.link(f"/sweep/job?{q}&job={job_id}", job_id),
                summary["design"],
                summary["state"],
                H.tag("span", progress, class_="num"),
                summary["objectives"],
                summary.get("error", ""),
            ]
        )
    return H.table(
        rows or [["(no jobs yet)", "", "", "", "", ""]],
        header=["Job", "Design", "State", "Points", "Objectives", "Error"],
    )


def sweep_form_page(
    user: str,
    designs: Sequence[str],
    examples: Sequence[str],
    jobs: Sequence[Mapping] = (),
    values: Optional[Mapping[str, str]] = None,
    error: str = "",
    auth: str = "",
) -> str:
    """``GET /sweep`` — submit a parameter-space exploration job.

    The 1996 designer pressed PLAY once per what-if; this form submits
    thousands of PLAYs as one background job with axis specs in the
    same mini-language the CLI uses (``VDD2=1.1:3.3:0.1``,
    ``bw=8,12,16``, ``f=log:1e6:1e9:7``; ``name@row.param`` writes a
    dotted target).
    """
    filled = dict(values or {})

    def area(name: str, rows: int, hint: str) -> H.Raw:
        return H.labelled_field(
            name,
            H.tag(
                "textarea", filled.get(name, ""), name=name, rows=rows,
                cols=60,
            ),
            hint,
        )

    options = list(designs) + [f"example:{name}" for name in examples]
    fields = [
        H.labelled_field(
            "design",
            H.select("design", options, filled.get("design")),
            "your design, or a built-in example",
        ),
        area("axes", 4, "one axis per line: VDD2=1.1:3.3:0.1 | "
             "bw=8,12,16 | f=log:1e6:1e9:7 | name@row.param=..."),
        area("couple", 2, "optional: target=expression over axis names"),
        area("derive", 2, "optional extra objectives: name=expression"),
        H.labelled_field(
            "objectives",
            H.text_input("objectives", filled.get("objectives", "power")),
            "comma-separated from power, area, delay",
        ),
        H.labelled_field(
            "workers",
            H.text_input("workers", filled.get("workers", "1"), size=4),
            "worker processes for process mode (capped at the CPU count)",
        ),
        H.labelled_field(
            "mode",
            H.select(
                "mode", ["serial", "process"],
                filled.get("mode", "serial"),
            ),
        ),
        H.labelled_field(
            "chunk_size",
            H.text_input("chunk_size", filled.get("chunk_size", "16"), size=6),
            "points per checkpointed chunk",
        ),
        H.labelled_field(
            "point_cap",
            H.text_input("point_cap", filled.get("point_cap", ""), size=10),
            "optional: reject spaces larger than this many points",
        ),
        H.labelled_field(
            "prune",
            H.select("prune", ["no", "yes"], filled.get("prune", "no")),
            "keep only Pareto-optimal rows (needed past 1,000,000 points)",
        ),
    ]
    body: List[H.Content] = []
    if error:
        body.append(H.tag("p", error, class_="error"))
    body.append(
        H.form(
            "/sweep",
            H.join(
                auth_fields(user, auth),
                H.field_table(fields),
                H.submit("Launch sweep"),
            ),
        )
    )
    body.append(H.heading("Your sweep jobs", 2))
    body.append(_job_table(user, jobs, auth))
    return H.page(f"Sweeps — {user}", *body, nav=nav_for(user, auth))


def sweep_job_page(user: str, summary: Mapping, auth: str = "") -> str:
    """``GET /sweep/job`` — one job's live status (reload to poll)."""
    q = cred(user, auth)
    job_id = summary["job_id"]
    state = summary["state"]
    rows = [
        ["Job", job_id],
        ["Design", summary["design"]],
        ["State", state],
        ["Progress",
         H.tag("span", f"{summary['done']}/{summary['points']} points",
               class_="num")],
        ["Objectives", summary["objectives"]],
    ]
    if summary.get("error"):
        rows.append(["Error", H.tag("span", summary["error"], class_="error")])
    body: List[H.Content] = [H.table(rows, header=["Field", "Value"])]
    links: List[H.Content] = [
        H.link(f"/sweep/job?{q}&job={job_id}", "Refresh"),
        H.Raw(" | "),
        H.link(f"/sweep?{q}", "All sweeps"),
    ]
    if state == "done":
        links.extend(
            [
                H.Raw(" | "),
                H.link(f"/sweep/result?{q}&job={job_id}", "Results"),
                H.Raw(" | "),
                H.link(f"/sweep/result?{q}&job={job_id}&fmt=csv", "CSV"),
                H.Raw(" | "),
                H.link(f"/sweep/result?{q}&job={job_id}&fmt=json", "JSON"),
            ]
        )
    body.append(H.paragraph(H.join(*links)))
    if state in ("pending", "running"):
        body.append(
            H.form(
                "/sweep/cancel",
                H.join(
                    auth_fields(user, auth),
                    H.hidden_input("job", job_id),
                    H.submit("Cancel job"),
                ),
            )
        )
    if state == "cancelled":
        body.append(
            H.paragraph(
                "Cancelled jobs keep their finished chunks; resume from "
                f"the command line with: repro sweep --resume {job_id} "
                "--state <STATE_DIR>"
            )
        )
    return H.page(
        f"Sweep {job_id} — {user}", *body, nav=nav_for(user, auth)
    )


def sweep_results_page(
    user: str,
    summary: Mapping,
    axis_names: Sequence[str],
    objective_names: Sequence[str],
    front_rows: Sequence[Mapping],
    sensitivity: Sequence[Mapping],
    total_rows: int,
    auth: str = "",
) -> str:
    """``GET /sweep/result`` — Pareto frontier + sensitivity ranking."""
    q = cred(user, auth)
    job_id = summary["job_id"]
    header = ["#", *axis_names, *objective_names]
    rows: List[List[H.Content]] = []
    for row in front_rows:
        cells: List[H.Content] = [str(row["index"])]
        for name in axis_names:
            cells.append(
                H.tag("span", format_quantity(float(row["values"][name])),
                      class_="num")
            )
        for name in objective_names:
            cells.append(
                H.tag("span", format_quantity(float(row["objectives"][name])),
                      class_="num")
            )
        rows.append(cells)
    sens_rows = [
        [
            item["axis"],
            H.tag("span", format_quantity(item["spread"]), class_="num"),
            H.tag("span", f"{100.0 * item['relative']:.1f}%", class_="num"),
        ]
        for item in sensitivity
    ]
    body: List[H.Content] = [
        H.paragraph(
            H.join(
                f"Design {summary['design']!r}: {len(front_rows)} "
                f"Pareto-optimal of {total_rows} evaluated points.  ",
                H.link(f"/sweep/result?{q}&job={job_id}&fmt=csv", "CSV"),
                " | ",
                H.link(f"/sweep/result?{q}&job={job_id}&fmt=json", "JSON"),
                " | ",
                H.link(f"/sweep/job?{q}&job={job_id}", "Job status"),
                ".",
            )
        ),
    ]
    body.extend([
        H.heading("Pareto frontier", 2),
        H.table(rows, header=header,
                caption=f"minimizing {', '.join(objective_names)}"),
        H.heading("Sensitivity (mean spread when only this axis moves)", 2),
        H.table(
            sens_rows or [["(not enough points)", "", ""]],
            header=["Axis", "Spread", "Relative"],
        ),
    ])
    return H.page(
        f"Sweep {job_id} results — {user}", *body, nav=nav_for(user, auth)
    )


def status_page(
    server_name: str,
    uptime_s: float,
    known_users: int,
    request_rows: Sequence[Tuple[str, int, str, str, str, str]],
    status_rows: Sequence[Tuple[str, int]],
    circuit_rows: Sequence[Tuple[str, str]],
    cache_rows: Sequence[Tuple[str, int]],
    event_rows: Sequence[Tuple[str, int]],
    trace_rows: Sequence[Tuple[str, str, str, int]],
    job_rows: Sequence[Tuple[str, str, str, str]] = (),
    registry_rows: Sequence[Tuple[str, int]] = (),
    resolution_rows: Sequence[Tuple[str, int]] = (),
    health: str = "",
    slo_rows: Sequence[Tuple[str, str, str, str, str, int]] = (),
) -> str:
    """``GET /status`` — the operator's dashboard, PowerPlay style.

    The 1996 deployment was "local to one server" and watched through
    httpd logs; this page is the modern equivalent: uptime, the request
    table, circuit-breaker states, model-cache outcomes, and recent
    traces — all rendered from the same registry ``GET /metrics``
    exposes, so the two views can never disagree.
    """
    minutes, seconds = divmod(int(uptime_s), 60)
    hours, minutes = divmod(minutes, 60)
    health_note = f"  Health: {health}." if health else ""
    body: List[H.Content] = [
        H.paragraph(
            H.join(
                f"Server {server_name!r} up {hours}h {minutes:02d}m "
                f"{seconds:02d}s; {known_users} known user(s)."
                f"{health_note}  ",
                H.link("/metrics", "Raw Prometheus metrics"),
                " — ",
                H.link("/registry", "Federated registry"),
                " — ",
                H.link("/fleet", "Fleet dashboard"),
                " — ",
                H.link("/debug/flight", "Flight recorder"),
                ".",
            )
        ),
        H.heading("Requests by route", 2),
        H.table(
            [
                [
                    route,
                    H.tag("span", str(count), class_="num"),
                    mean, p50, p95, p99,
                ]
                for route, count, mean, p50, p95, p99 in request_rows
            ]
            or [["(no requests yet)", "", "", "", "", ""]],
            header=["Route", "Requests", "Mean latency", "p50", "p95", "p99"],
        ),
        H.heading("Service-level objectives", 2),
        H.table(
            [
                [
                    name, state, burn_short, burn_long, budget,
                    H.tag("span", str(events), class_="num"),
                ]
                for name, state, burn_short, burn_long, budget, events
                in slo_rows
            ]
            or [["(SLO tracking disabled)", "", "", "", "", ""]],
            header=[
                "SLO", "State", "Burn (5m)", "Burn (1h)",
                "Budget left", "Events (6h)",
            ],
        ),
        H.heading("Responses by status class", 2),
        H.table(
            [
                [status, H.tag("span", str(count), class_="num")]
                for status, count in status_rows
            ]
            or [["(none)", ""]],
            header=["Status", "Responses"],
        ),
        H.heading("Circuit breakers", 2),
        H.table(
            [[name, state] for name, state in circuit_rows]
            or [["(no remotes contacted)", ""]],
            header=["Remote", "State"],
        ),
        H.heading("Model cache", 2),
        H.table(
            [
                [result, H.tag("span", str(count), class_="num")]
                for result, count in cache_rows
            ]
            or [["(no lookups)", ""]],
            header=["Outcome", "Lookups"],
        ),
        H.heading("Degradation events", 2),
        H.table(
            [
                [what, H.tag("span", str(count), class_="num")]
                for what, count in event_rows
            ],
            header=["Event", "Count"],
        ),
        H.heading("Sweep jobs", 2),
        H.table(
            [
                [job_id, design, state,
                 H.tag("span", progress, class_="num")]
                for job_id, design, state, progress in job_rows
            ]
            or [["(no jobs)", "", "", ""]],
            header=["Job", "Design", "State", "Points"],
        ),
        H.heading("Federated registry", 2),
        H.table(
            [
                [what, H.tag("span", str(count), class_="num")]
                for what, count in registry_rows
            ]
            or [["(registry idle)", ""]],
            header=["Registry", "Count"],
        ),
        H.heading("Resolution outcomes", 2),
        H.table(
            [
                [outcome, H.tag("span", str(count), class_="num")]
                for outcome, count in resolution_rows
            ]
            or [["(no resolutions yet)", ""]],
            header=["Outcome", "Resolutions"],
        ),
    ]
    if trace_rows:
        body.extend(
            [
                H.heading("Recent traces", 2),
                H.table(
                    [
                        [name, span_id, duration, str(spans)]
                        for name, span_id, duration, spans in trace_rows
                    ],
                    header=["Root span", "ID", "Duration", "Spans"],
                ),
            ]
        )
    return H.page(f"PowerPlay status — {server_name}", *body)


def registry_page(
    server_name: str,
    health: Mapping,
    catalog: Sequence[Mapping],
    quarantined: Sequence[Tuple],
    pinned: Mapping[str, int],
    resolutions: Sequence[Mapping] = (),
) -> str:
    """``GET /registry`` — the federation catalog page.

    Publishers, versions, digests, and mirror freshness for every
    artifact this server holds, plus the quarantine ledger and the
    recent resolution-chain outcomes — the operator's one look at
    "can this server survive its providers going away?".
    """

    def freshness(row: Mapping) -> str:
        age = float(row.get("age_s", 0.0))
        if age < 120:
            return f"{age:.0f} s"
        if age < 7200:
            return f"{age / 60:.1f} min"
        return f"{age / 3600:.1f} h"

    catalog_rows: List[List[H.Content]] = []
    for row in catalog:
        if row.get("corrupt"):
            catalog_rows.append(
                [
                    str(row.get("kind", "?")),
                    str(row.get("name", "?")),
                    f"v{row.get('version', '?')}",
                    "",
                    H.tag("b", "CORRUPT"),
                    "",
                    str(row.get("error", ""))[:80],
                ]
            )
            continue
        catalog_rows.append(
            [
                str(row["kind"]),
                str(row["name"]),
                f"v{row['version']}",
                str(row.get("publisher", "")),
                H.tag("code", str(row.get("digest", ""))[:16] + "…"),
                freshness(row),
                "pinned" if row.get("pinned") else "",
            ]
        )
    body: List[H.Content] = [
        H.paragraph(
            H.join(
                f"Server {server_name!r} mirrors {len(catalog_rows)} "
                f"artifact(s); health: {health.get('status', '?')}.  ",
                H.link("/api/registry/catalog.json", "Catalog JSON"),
                " — ",
                H.link("/status", "Status"),
                " — ",
                H.link("/healthz", "Health"),
                ".",
            )
        ),
        H.heading("Mirrored artifacts", 2),
        H.table(
            catalog_rows or [["(mirror is empty)"] + [""] * 6],
            header=[
                "Kind", "Name", "Version", "Publisher", "Digest",
                "Age", "Pinned",
            ],
        ),
        H.heading("Quarantined artifacts", 2),
        H.table(
            [
                [stem, str(target), reason[:100]]
                for stem, target, reason in quarantined
            ]
            or [["(none — every read verified)", "", ""]],
            header=["Artifact", "Moved to", "Reason"],
        ),
        H.heading("Pinned versions", 2),
        H.table(
            [[ref, f"v{version}"] for ref, version in sorted(pinned.items())]
            or [["(no pins)", ""]],
            header=["Artifact", "Version"],
        ),
    ]
    if resolutions:
        body.extend(
            [
                H.heading("Recent resolutions", 2),
                H.table(
                    [
                        [
                            str(report["name"]),
                            str(report["outcome"]),
                            str(report.get("served_from", "")),
                            "; ".join(
                                f"{step['step']}={step['result']}"
                                for step in report.get("steps", ())
                            ),
                        ]
                        for report in resolutions
                    ],
                    header=["Model", "Outcome", "Served from", "Chain"],
                ),
            ]
        )
    return H.page(f"PowerPlay registry — {server_name}", *body)


def trace_page(
    server_name: str,
    tracing_enabled: bool,
    rendered: Sequence[Tuple[str, str, str, int, int, str]],
) -> str:
    """``GET /trace`` — recent traces, newest first, trees and all.

    ``rendered`` rows are ``(root_name, trace_id, duration, spans,
    remote_spans, tree_text)``; the tree text is the fixed-width
    :func:`repro.obs.render_trace` output, remote (grafted) spans
    marked ``~remote``.
    """
    body: List[H.Content] = [
        H.paragraph(
            H.join(
                f"Server {server_name!r}; tracing is "
                f"{'enabled' if tracing_enabled else 'disabled'}.  ",
                H.link("/trace?fmt=json", "JSON"),
                " | ",
                H.link("/profile", "Aggregated profile"),
                " | ",
                H.link("/status", "Status"),
                ".",
            )
        ),
    ]
    if not tracing_enabled:
        body.append(
            H.paragraph(
                "Start the server with --log-level info (or call "
                "repro.obs.enable()) to record traces."
            )
        )
    if not rendered:
        body.append(H.paragraph("No traces recorded yet."))
    for root_name, trace_id, duration, spans, remote_spans, tree in rendered:
        summary = f"{duration}, {spans} span(s)"
        if remote_spans:
            summary += f", {remote_spans} remote"
        body.append(H.heading(f"{root_name} [{trace_id}] — {summary}", 2))
        body.append(H.tag("pre", tree))
    return H.page(f"PowerPlay traces — {server_name}", *body)


def profile_page(
    server_name: str,
    tracing_enabled: bool,
    trace_count: int,
    table_text: str,
    flamegraph_text: str,
) -> str:
    """``GET /profile`` — the call-tree profile over recent traces."""
    body: List[H.Content] = [
        H.paragraph(
            H.join(
                f"Server {server_name!r}; tracing is "
                f"{'enabled' if tracing_enabled else 'disabled'}; "
                f"{trace_count} trace(s) aggregated.  ",
                H.link("/profile?fmt=json", "JSON"),
                " | ",
                H.link("/trace", "Recent traces"),
                " | ",
                H.link("/status", "Status"),
                ".",
            )
        ),
    ]
    if not trace_count:
        body.append(
            H.paragraph(
                "No traces to profile yet — exercise the server (or "
                "enable tracing) and reload."
            )
        )
    else:
        body.append(H.heading("Hot paths (by self time)", 2))
        body.append(H.tag("pre", table_text))
        body.append(H.heading("Flamegraph (by total time)", 2))
        body.append(H.tag("pre", flamegraph_text))
    return H.page(f"PowerPlay profile — {server_name}", *body)


def fleet_page(
    server_name: str,
    fleet_state: str,
    node_rows: Sequence[Tuple[str, str, str, str, str, str, int, str]],
    aggregate_requests: int,
    reachable: int,
    total: int,
    quantiles: Mapping[str, str],
    skipped: Sequence[str] = (),
    duration_ms: float = 0.0,
) -> str:
    """``GET /fleet`` — per-node and aggregate fleet telemetry.

    ``node_rows`` are ``(name, url, up/down, health, slo, breaker,
    requests, error)``; the aggregate numbers come from the
    deterministic cross-node merge.
    """
    body: List[H.Content] = [
        H.paragraph(
            H.join(
                f"Fleet seen from {server_name!r}: {reachable}/{total} "
                f"node(s) reachable, worst SLO state "
                f"{fleet_state!r}, scraped in {duration_ms:.1f} ms.  ",
                H.link("/fleet?fmt=json", "JSON"),
                " | ",
                H.link("/status", "Status"),
                " | ",
                H.link("/debug/flight", "Flight recorder"),
                ".",
            )
        ),
        H.heading("Nodes", 2),
        H.table(
            [
                [
                    name, url, up, health, slo, breaker,
                    H.tag("span", str(requests), class_="num"),
                    error,
                ]
                for name, url, up, health, slo, breaker, requests, error
                in node_rows
            ]
            or [["(no nodes)", "", "", "", "", "", "", ""]],
            header=[
                "Node", "URL", "Scrape", "Health", "SLO", "Breaker",
                "Requests", "Error",
            ],
        ),
        H.heading("Aggregate", 2),
        H.table(
            [
                ["requests (all nodes)", str(aggregate_requests)],
                ["latency p50", quantiles.get("p50", "—")],
                ["latency p95", quantiles.get("p95", "—")],
                ["latency p99", quantiles.get("p99", "—")],
            ],
            header=["Metric", "Value"],
        ),
    ]
    if skipped:
        body.append(
            H.paragraph(
                "Families skipped (unmergeable across nodes): "
                + ", ".join(skipped)
                + "."
            )
        )
    return H.page(f"PowerPlay fleet — {server_name}", *body)


def history_page(
    server_name: str,
    stats: Mapping[str, object],
    series_rows: Sequence[Tuple[str, str, str, str]],
    capacity_rows: Sequence[Tuple[str, str, str, str, str]] = (),
    total_workers: int = 0,
    recording: bool = False,
) -> str:
    """``GET /history`` — the durable telemetry store dashboard.

    ``series_rows`` are ``(series key, latest value, unit hint,
    sparkline)``; ``capacity_rows`` are ``(route, rps, trend/h,
    latency, workers)`` from the capacity fit over the same store.
    """
    segments = stats.get("segments", {})
    quarantined = stats.get("quarantined", [])
    body: List[H.Content] = [
        H.paragraph(
            H.join(
                f"Telemetry history on {server_name!r}: "
                f"{stats.get('active_rounds', 0)} active round(s), "
                f"{segments.get('raw', 0)} raw / "
                f"{segments.get('m1', 0)} 1m / "
                f"{segments.get('m15', 0)} 15m segment(s), "
                f"{int(stats.get('bytes', 0) or 0)} bytes on disk.  "
                f"Recorder {'running' if recording else 'stopped'}.  ",
                H.link("/history?fmt=json", "JSON"),
                " | ",
                H.link("/fleet", "Fleet"),
                " | ",
                H.link("/status", "Status"),
                ".",
            )
        ),
        H.heading("Recorded series", 2),
        H.table(
            [
                [H.tag("code", key), latest, unit,
                 H.tag("code", spark)]
                for key, latest, unit, spark in series_rows
            ]
            or [["(nothing recorded yet)", "", "", ""]],
            header=["Series", "Latest", "Unit", "Trend"],
        ),
        H.heading("Capacity fit", 2),
        H.table(
            [
                [route, rps, trend, latency, workers]
                for route, rps, trend, latency, workers in capacity_rows
            ]
            or [["(not enough history yet)", "", "", "", ""]],
            header=[
                "Route", "Peak req/s", "Trend/h", "Mean latency",
                "Workers",
            ],
        ),
    ]
    if capacity_rows:
        body.append(
            H.paragraph(
                f"Projected provisioning: {total_workers} worker(s) "
                "for the fitted load."
            )
        )
    if quarantined:
        body.append(H.heading("Quarantined files", 2))
        body.append(
            H.table(
                [[str(name), str(reason)]
                 for name, reason, *_ in quarantined],
                header=["File", "Reason"],
            )
        )
    return H.page(f"PowerPlay history — {server_name}", *body)


def flight_page(
    server_name: str,
    capacity: int,
    recorded_total: int,
    record_rows: Sequence[Tuple[int, str, str, int, str, str, str]],
    snapshots: Sequence[str] = (),
) -> str:
    """``GET /debug/flight`` — the flight-recorder ring, newest first.

    ``record_rows`` are ``(seq, route, method, status, duration,
    trace_id, alerts)``.
    """
    body: List[H.Content] = [
        H.paragraph(
            H.join(
                f"Flight recorder on {server_name!r}: "
                f"{recorded_total} request(s) recorded, ring holds the "
                f"last {capacity}.  ",
                H.link("/debug/flight?fmt=json", "JSON"),
                " | ",
                H.link("/fleet", "Fleet"),
                " | ",
                H.link("/status", "Status"),
                ".",
            )
        ),
        H.heading("Recent requests (newest first)", 2),
        H.table(
            [
                [
                    H.tag("span", str(seq), class_="num"),
                    route, method_, str(status), duration, trace_id,
                    alerts,
                ]
                for seq, route, method_, status, duration, trace_id,
                alerts in record_rows
            ]
            or [["(nothing recorded yet)", "", "", "", "", "", ""]],
            header=[
                "Seq", "Route", "Method", "Status", "Duration",
                "Trace", "Alerts",
            ],
        ),
        H.heading("Snapshots on disk", 2),
        H.table(
            [[name] for name in snapshots] or [["(no snapshots)"]],
            header=["File"],
        ),
    ]
    return H.page(f"PowerPlay flight recorder — {server_name}", *body)
