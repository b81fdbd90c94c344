"""Report payloads and their text, JSON, and CSV renderings.

``fit``, ``decompose`` and ``venn`` first build one JSON-able payload dict
carrying full float precision, which starts with the fields every report
starts with (``_head``). ``render_payload(payload, fmt)`` is the one way
from a payload to its text, JSON or CSV: one table, keyed by the payload's
command, holds each command's text body and CSV renderer, and the model
line heads every text body. Text output therefore shows exactly the JSON
numbers rounded half away from zero to two decimals, and CSV output
carries the full-precision values in a flat (section, name, statistic,
value) layout. Non-finite statistics (a perfect fit has infinite F)
become JSON null, the text cell "NA" and an empty CSV cell. JSON output
is ``json.dumps(payload, indent=2, allow_nan=False)`` and a newline.

``orderings`` (12 MB of JSON at seven predictors) builds no payload:
``render_orderings`` yields each of the three formats straight from the
depth-first walk over the orderings, a batch of orderings per text, with
the same cells and layout the payload renderers use. Each ordering is a
row of parts, the template's pieces and its positions' texts, made once
per (prefix set, predictor) or per ordered prefix and joined once per
batch; text carries its column widths per depth of the walk.
"""

from __future__ import annotations

import csv
import json
import math
from functools import cache
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace
from typing import Any, Iterator, Mapping, Sequence

from .decomposition import OVERLAP_NOISE, DecompositionReport, OrderingWalk, VennRegions
from .ols_core import OlsFit, anova_table
from .textfmt import fmt2

SCHEMA_VERSION = "1"


def _num(x: float) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _cell(x: float | None) -> str:
    return "NA" if x is None or not math.isfinite(x) else fmt2(x)


_COEF_STATS = ("b", "se", "z", "t")
# The heads of a coefficient table: its columns' and its first row's.
_COEF_HEAD = ("Term", *_COEF_STATS)
_INTERCEPT = "Intercept"


def _coef_list(fit: OlsFit) -> list[dict[str, Any]]:
    return [
        {"name": nm, "b": _num(b), "se": _num(se), "z": _num(z), "t": _num(t)}
        for nm, b, se, z, t in zip(fit.predictor_subset, fit.b, fit.se, fit.z, fit.t)
    ]


def _venn_dict(v: VennRegions) -> dict[str, Any]:
    return {
        "unique": {nm: _num(ss) for nm, ss in v.unique.items()},
        "common_total": _num(v.common_total),
        "residual": _num(v.residual),
        "ss_total": _num(v.ss_total),
        "accounted_total": _num(v.accounted_total),
        "missing": _num(v.missing),
        "missing_fraction": _num(v.missing_fraction),
        "suppression": v.suppression,
    }


# ---------------------------------------------------------------- payloads


def _head(command: str, response: str, predictors: Sequence[str], n: int) -> dict[str, Any]:
    """The fields every report starts with."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "response": response,
        "predictors": list(predictors),
        "n": n,
    }


def fit_payload(fit: OlsFit, response: str) -> dict[str, Any]:
    at = anova_table(fit)
    anova: dict[str, Any] = {}
    for row in at.rows:
        entry: dict[str, Any] = {
            "ss": _num(row.ss),
            "df": row.df,
            "ms": _num(row.ms),
        }
        if row.f is not None:
            entry["f"] = _num(row.f)
        anova[row.source.lower()] = entry
    return {
        **_head("fit", response, fit.predictor_subset, fit.n),
        "anova": anova,
        "r2": _num(fit.r2),
        "intercept": _num(fit.intercept),
        "coefficients": _coef_list(fit),
    }


def _report_notes(rep: DecompositionReport) -> list[str]:
    v = rep.venn
    notes = []
    if len(rep.model) == 1:
        notes.append(
            "single predictor: traditional and corrected statistics coincide"
        )
    elif abs(v.common_total) <= OVERLAP_NOISE * v.ss_total:
        notes.append(
            "predictors are orthogonal: traditional and corrected statistics"
            " coincide, and every ordering gives the same sequential SS"
        )
    else:
        if v.suppression:
            notes.append(
                "suppression: the unique contributions exceed the regression SS,"
                " so the common region is negative"
            )
        else:
            notes.append(
                "correlated predictors: part of the regression SS is a shared"
                " overlap attributable to no single predictor"
            )
        notes.append(
            "the traditional R2 and F describe the fitted model as a whole;"
            " the corrected values count only contributions attributable to"
            " individual predictors"
        )
    if len(rep.model) >= 2:
        notes.append(
            "each predictor carries two t statistics, the full-model t and"
            " the residualized simple-regression t; both are reported"
        )
    return notes


def decompose_payload(
    rep: DecompositionReport, fits: Mapping[str, OlsFit], response: str
) -> dict[str, Any]:
    """A report and its model's ``residualized_simple_fits``, as a payload."""
    trad = rep.traditional
    return {
        **_head("decompose", response, rep.model, trad.n),
        "traditional": {
            "ss_regression": _num(trad.ss_regression),
            "ss_residual": _num(trad.ss_residual),
            "ss_total": _num(trad.ss_total),
            "df_model": trad.df_model,
            "df_residual": trad.df_residual,
            "ms_residual": _num(trad.ms_residual),
            "r2": _num(trad.r2),
            "f": _num(trad.f),
            "intercept": _num(trad.intercept),
            "coefficients": _coef_list(trad),
        },
        "corrected": {
            "actual_model_ss": _num(rep.actual_model_ss),
            "r2": _num(rep.corrected_r2),
            "f": _num(rep.corrected_f),
        },
        "type3": [
            {"name": pd.name, "ss": _num(pd.type3_ss)} for pd in rep.per_predictor
        ],
        "residualized_fits": [
            {
                "name": nm,
                "label": f.predictor_subset[0],
                "ss_regression": _num(f.ss_regression),
                "f": _num(f.f),
                "r2": _num(f.r2),
                "b": _num(f.b[0]),
                "se": _num(f.se[0]),
                "z": _num(f.z[0]),
                "t": _num(f.t[0]),
                "df_residual": f.df_residual,
            }
            for nm, f in fits.items()
        ],
        "venn": _venn_dict(rep.venn),
        "notes": _report_notes(rep),
    }


def _orderings_fields(response: str, model: Sequence[str], full: OlsFit) -> dict[str, Any]:
    """The fields of the ``orderings`` report before its orderings."""
    return {
        **_head("orderings", response, model, full.n),
        "ss_regression": _num(full.ss_regression),
        "ss_total": _num(full.ss_total),
    }


def venn_payload(
    v: VennRegions, response: str, model: Sequence[str], n: int
) -> dict[str, Any]:
    return {**_head("venn", response, model, n), **_venn_dict(v)}


# --------------------------------------------------------------- renderers


def render_json(payload: Any) -> str:
    """The payload as indented JSON and a newline; NaN and infinities raise."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _row_format(widths: Sequence[int], align: str) -> str:
    """The %-format of a grid row: 'l'/'r' per column, two spaces between."""
    return "  ".join(f"%{'-' if a == 'l' else ''}{w}s" for w, a in zip(widths, align))


def _layout(rows: Sequence[Sequence[str]], align: str) -> list[str]:
    """Pad columns to a grid (``_row_format``); no line ends in a space."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    line = _row_format(widths, align)
    return [(line % tuple(r)).rstrip() for r in rows]


def _model_line(payload: dict[str, Any]) -> str:
    return (
        f"Model: {payload['response']} ~ "
        f"{' + '.join(payload['predictors'])}  (n = {payload['n']})"
    )


def _coef_rows(coefs: list[dict[str, Any]], intercept: float | None) -> list[str]:
    terms = [[cf["name"], *(_cell(cf[k]) for k in _COEF_STATS)] for cf in coefs]
    rows = [_COEF_HEAD, [_INTERCEPT, _cell(intercept), "", "", ""], *terms]
    return _layout(rows, "lrrrr")


def _anova_lines(anova: dict[str, Any]) -> list[str]:
    rows = [["Source", "SS", "df", "MS", "F"]]
    for source in ("regression", "residual", "total"):
        e = anova[source]
        f = _cell(e["f"]) if "f" in e else ""
        rows.append([source.capitalize(), _cell(e["ss"]), str(e["df"]), _cell(e["ms"]), f])
    return _layout(rows, "lrrrr")


def _venn_lines(v: dict[str, Any]) -> list[str]:
    rows = [["Region", "SS"]]
    for nm, ss in v["unique"].items():
        rows.append([f"unique {nm}", _cell(ss)])
    rows.append(["common (overlap)", _cell(v["common_total"])])
    rows.append(["residual", _cell(v["residual"])])
    rows.append(["accounted total", _cell(v["accounted_total"])])
    rows.append(["missing", _cell(v["missing"])])
    lines = _layout(rows, "lr")
    lines += ["", f"Total SS = {_cell(v['ss_total'])}", f"Missing fraction = {_cell(v['missing_fraction'])}"]
    if v["suppression"]:
        lines.append("Suppression: the common region is negative.")
    return lines


def _fit_lines(p: dict[str, Any]) -> list[str]:
    lines = _anova_lines(p["anova"])
    lines += ["", f"R2 = {_cell(p['r2'])}", ""]
    return lines + _coef_rows(p["coefficients"], p["intercept"])


def _decompose_lines(p: dict[str, Any]) -> list[str]:
    trad, corr = p["traditional"], p["corrected"]
    lines = ["Traditional vs corrected"]
    lines += _layout(
        [
            ["Statistic", "Traditional", "Corrected"],
            ["SS(model)", _cell(trad["ss_regression"]), _cell(corr["actual_model_ss"])],
            ["R2", _cell(trad["r2"]), _cell(corr["r2"])],
            ["F", _cell(trad["f"]), _cell(corr["f"])],
        ],
        "lrr",
    )
    lines += ["", "Coefficients (full model)", *_coef_rows(trad["coefficients"], trad["intercept"])]
    rows = [["Term", "SS"], *([e["name"], _cell(e["ss"])] for e in p["type3"])]
    lines += ["", "Partial (Type III) SS", *_layout(rows, "lr")]
    rows = [["Term", "SS(reg)", "f", "R2", "b", "z", "t", "df(res)"]]
    for e in p["residualized_fits"]:
        cells = (_cell(e[k]) for k in ("ss_regression", "f", "r2", "b", "z", "t"))
        rows.append([e["label"], *cells, str(e["df_residual"])])
    lines += ["", "Simple regressions on residualized predictors", *_layout(rows, "lrrrrrrr")]
    lines += ["", "Variance accounting", *_venn_lines(p["venn"]), "", "Notes"]
    return lines + [f"- {note}" for note in p["notes"]]


def _csv_value(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


# The text of one row and its line end: ``writerow`` returns what its
# file's ``write`` returns, here the text it is given. ``_csv_row((cell,
# ""))[:-1]`` is a row's leading cell and its comma: the writer quotes a
# cell holding a line end only if that end is in its terminator (Python
# 3.10 and 3.11), so no writer without "\n" in it writes the cell alone.
_csv_row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv_doc(rows: list[list[Any]], header=("section", "name", "statistic", "value")) -> str:
    return _csv_row(header) + "".join(_csv_row([_csv_value(v) for v in row]) for row in rows)


def _csv_meta(p: dict[str, Any]) -> list[list[Any]]:
    return [
        ["meta", "", "response", p["response"]],
        ["meta", "", "predictors", " ".join(p["predictors"])],
        ["meta", "", "n", p["n"]],
    ]


def _csv_coeffs(section: str, coefs: list[dict[str, Any]]) -> list[list[Any]]:
    return [[section, cf["name"], stat, cf[stat]] for cf in coefs for stat in _COEF_STATS]


def _fit_csv(p: dict[str, Any]) -> str:
    rows = _csv_meta(p)
    rows += [["anova", source, stat, x] for source, e in p["anova"].items() for stat, x in e.items()]
    rows += [["fit", "", "r2", p["r2"]], ["fit", "", "intercept", p["intercept"]]]
    rows += _csv_coeffs("coefficient", p["coefficients"])
    return _csv_doc(rows)


def _decompose_csv(p: dict[str, Any]) -> str:
    rows, trad, venn = _csv_meta(p), p["traditional"], p["venn"]
    rows += [["traditional", "", stat, x] for stat, x in trad.items() if stat != "coefficients"]
    rows += _csv_coeffs("coefficient", trad["coefficients"])
    rows += [["corrected", "", stat, x] for stat, x in p["corrected"].items()]
    rows += [["type3", e["name"], "ss", e["ss"]] for e in p["type3"]]
    for e in p["residualized_fits"]:
        for stat in ("ss_regression", "f", "r2", "b", "se", "z", "t", "df_residual"):
            rows.append(["residualized", e["label"], stat, e[stat]])
    rows += [["venn", nm, "unique", ss] for nm, ss in venn["unique"].items()]
    rows += [["venn", "", stat, x] for stat, x in venn.items() if stat != "unique"]
    return _csv_doc(rows)


def _venn_csv(p: dict[str, Any]) -> str:
    """One row per region: p unique rows, common, residual, missing, total."""
    rows = [[f"unique:{nm}", ss] for nm, ss in p["unique"].items()]
    rows += [["common", p["common_total"]], ["residual", p["residual"]]]
    rows += [["missing", p["missing"]], ["total", p["ss_total"]]]
    return _csv_doc(rows, header=("region", "ss"))


# Each command's text body, under its model line, and its CSV document.
_RENDERERS = {
    "fit": (_fit_lines, _fit_csv),
    "decompose": (_decompose_lines, _decompose_csv),
    "venn": (_venn_lines, _venn_csv),
}


def render_payload(payload: dict[str, Any], fmt: str) -> str:
    """A ``fit``, ``decompose`` or ``venn`` payload as "json", "text" or "csv"."""
    if fmt == "json":
        return render_json(payload)
    body, csv_doc = _RENDERERS[payload["command"]]
    if fmt == "csv":
        return csv_doc(payload)
    return "\n".join([_model_line(payload), "", *body(payload)]) + "\n"


# --------------------------------------------------------------- orderings

# Orderings joined into one text, which the caller writes as it comes: at
# seven predictors 79 texts of about 160 KB of JSON (40 KB of text). Written
# to a file in process, 8 to 64 per text took alike there, and 128 about 10%
# longer.
_BATCH = 64


def render_orderings(fmt: str, response: str, model: Sequence[str], walk: OrderingWalk) -> Iterator[str]:
    """The ``orderings`` report as "json", "text" or "csv": the head, the
    orderings as the walk reaches them, ``_BATCH`` of them joined per text,
    then the tail; the caller writes each text as it comes.

    No text is copied per depth or per ordering. A format keeps one row of
    parts: its template's pieces and a slot for each text of a position.
    Each position the walk enters puts its texts in its slots, so the row
    always holds the current ordering, and the row's parts join the batch
    as they stand. The texts of a name, a Type I entry and a term's four
    statistics (and, at the first position, the intercept's) are made
    once per (prefix set, predictor), a term's once per ordered prefix, as
    the walk enters it, and the fit summary once. The JSON is
    ``json.dumps(indent=2, allow_nan=False)`` of the report and a newline.
    """
    fit, values, steps = walk
    head, texts, depth, ordering, separator, tails = _ORDERINGS[fmt](
        _orderings_fields(response, model, fit), fit, len(values.model)
    )

    @cache
    def cells(mask: int, nm: str, first: bool) -> tuple:
        intercept = values.intercept(nm) if first else None
        return texts(values.entry(mask, nm), values.stats(mask, nm), intercept)

    parts: list[str] = []
    yield head
    lead, tail = "", tails[0]
    for count, (k, order, masks, labels) in enumerate(steps, 1):
        for i in range(k, len(order)):
            depth(i, labels[i], cells(masks[i], order[i], not i))
        parts.append(lead)
        parts += ordering(order, k)
        lead, tail = separator, tails[1]
        if count % _BATCH == 0:
            yield "".join(parts)
            parts.clear()
    if parts:
        yield "".join(parts)
    yield tail


_SUMMARY_STATS = ("ss_regression", "ss_residual", "r2", "f")


def _json_orderings(fields: dict[str, Any], fit: OlsFit, n: int) -> tuple:
    """JSON: the row is ``_ORDERING``'s pieces and a slot for each name, Type
    I entry and term and for the intercept; a text at a position after the
    first starts with its list's item separator. A term is its label's text
    between the pieces of ``_TERM`` and its statistics'. Floats are written
    by ``float.__repr__`` (``null`` where not finite) and strings by
    ``json``'s encoder, as ``json.dumps`` writes them."""
    summary = _SUMMARY % tuple(_json_num(getattr(fit, k)) for k in _SUMMARY_STATS)
    term_open, stats_open, term_close = _TERM.split("%s")
    first_term, later_term = term_open, _ITEM10 + term_open

    def texts(pair: tuple[str, float], stats: Sequence[float], intercept: float | None) -> tuple:
        lead = _ITEM8 if intercept is None else ""
        name = _json_str(pair[0])
        entry = _TYPE1 % (name, _json_num(pair[1]))
        term = stats_open + _TERM_STATS % tuple(map(_json_num, stats)) + term_close
        return lead + name, lead + entry, term, None if intercept is None else _json_num(intercept)

    opening, order_to_type1, type1_to_fit, fit_to_intercept, intercept_to_terms, closing = _ORDERING.split("%s")
    fit_head = type1_to_fit + summary + fit_to_intercept
    row = [opening, *[""] * n, order_to_type1, *[""] * n, fit_head, "", intercept_to_terms, *[""] * n, closing]
    name_at, entry_at, intercept_at, term_at = 1, n + 2, 2 * n + 3, 2 * n + 5  # each slot's first

    def depth(i: int, label: str, cells: tuple) -> None:
        name, entry, term, intercept = cells
        row[name_at + i], row[entry_at + i] = name, entry
        row[term_at + i] = "".join((later_term if i else first_term, _json_str(label), term))
        if intercept is not None:
            row[intercept_at] = intercept

    head = render_json({**fields, "orderings": []})[:-5] + "["  # '[]', '}' and a newline
    tails = "]\n}\n", "\n  ]\n}\n"  # without orderings: '[]'
    return head, texts, depth, lambda order, k: row, ",", tails


# The texts ``json.dumps(indent=2)`` writes for the parts of an ordering, at
# the depths they take in the report: ``_ORDERING``'s slots are its names,
# Type I entries, the fit summary (``_SUMMARY``), the intercept and its
# terms. No list is empty, as an ordering names a predictor; ``_ITEM8`` and
# ``_ITEM10`` separate a list's items.
_ITEM8 = ",\n        "
_ITEM10 = ",\n          "
_ORDERING = """
    {
      "order": [
        %s
      ],
      "type1": [
        %s
      ],
      "orthogonal_fit": {
%s        "intercept": %s,
        "terms": [
          %s
        ]
      }
    }"""
_SUMMARY = "".join(f'        "{k}": %s,\n' for k in _SUMMARY_STATS)
_TYPE1 = """{
          "name": %s,
          "ss": %s
        }"""
_TERM = """{
            "label": %s,
%s
          }"""
_TERM_STATS = ",\n".join(f'            "{k}": %s' for k in _COEF_STATS)


def _json_num(x: float) -> str:
    """``_num(x)`` as ``json`` writes it."""
    x = float(x)
    return float.__repr__(x) if math.isfinite(x) else "null"


_TYPE1_HEAD = ("Term", "Type I SS")
# The narrowest columns of an ordering's two tables, as their heads set
# them: name and Type I SS, then b, se, z, t and the term's label.
_TEXT_WIDTHS = (*map(len, _TYPE1_HEAD), *map(len, _COEF_STATS), max(len(_COEF_HEAD[0]), len(_INTERCEPT)))


def _text_orderings(fields: dict[str, Any], fit: OlsFit, n: int) -> tuple:
    """Text: the item of each depth of the current ordering holds its cells
    and the widths of the columns of its rows and of those above it, so the
    deepest item's are the ordering's. Rows are padded by ``_layout``'s
    ``_row_format`` when their position is new or the widths changed, and
    the table heads, with the intercept's row, when the widths or the first
    predictor changed. Only the intercept's row has empty cells at its end,
    and it alone is stripped, as ``_layout`` strips it."""
    head = (
        f"{_model_line(fields)}\nSS(regression) = {_cell(fields['ss_regression'])};"
        f" SS(total) = {_cell(fields['ss_total'])}\n"
    )
    summary = "Orthogonal-function fit: SS(reg) = %s; R2 = %s; F = %s\n" % tuple(
        map(_cell, (fit.ss_regression, fit.r2, fit.f))
    )

    def texts(pair: tuple[str, float], stats: Sequence[float], intercept: float | None) -> tuple:
        entry, cells = (pair[0], _cell(pair[1])), [*map(_cell, stats)]
        first = None if intercept is None else _cell(intercept)
        widths = (*map(len, entry), max(len(cells[0]), len(first or "")), *map(len, cells[1:]))
        return ("" if first else ", ") + pair[0], entry, cells, first, widths

    row = ["\nOrdering: ", *[""] * n, "", *[""] * n, "", *[""] * n]
    name_at, type1_head_at, entry_at, fit_head_at, term_at = 1, n + 1, n + 2, 2 * n + 2, 2 * n + 3
    items: list[tuple] = [()] * n

    def depth(i: int, label: str, cells: tuple) -> None:
        name, entry, stats, intercept, widths = cells
        row[name_at + i] = name
        w = items[i - 1][-1] if i else _TEXT_WIDTHS
        items[i] = entry, (label, *stats), intercept, (*map(max, w, widths), max(w[6], len(label)))

    last, entry_line, term_line = None, "", ""

    def ordering(order: tuple[str, ...], k: int) -> list[str]:
        nonlocal last, entry_line, term_line
        widths = items[-1][-1]
        if k and widths == last:
            start = k
        else:
            start, last = 0, widths
            entry_line = _row_format(widths[:2], "lr") + "\n"
            term_line = _row_format((widths[6], *widths[2:6]), "lrrrr") + "\n"
            row[type1_head_at] = "\n" + entry_line % _TYPE1_HEAD
            intercept = (term_line % (_INTERCEPT, items[0][2], "", "", "")).rstrip() + "\n"
            row[fit_head_at] = summary + term_line % _COEF_HEAD + intercept
        for i in range(start, n):
            entry, term, _, _ = items[i]
            row[entry_at + i] = entry_line % entry
            row[term_at + i] = term_line % term
        return row

    return head, texts, depth, ordering, "", ("", "")


def _csv_orderings(fields: dict[str, Any], fit: OlsFit, n: int) -> tuple:
    """CSV: the row alternates the ordering's section cell, made once per
    ordering, with the rest of each of its rows: the Type I rows, the
    summary's, the intercept's and each term's four. A term's rows are its
    label cell and the rows of its statistics. The writer quotes each cell
    on its own, so each part is written once."""
    stats = [["meta", "", k, fields[k]] for k in ("ss_regression", "ss_total")]
    head = _csv_doc([*_csv_meta(fields), *stats])
    summary = [_csv_row(("", k, _csv_value(_num(getattr(fit, k))))) for k in _SUMMARY_STATS]

    def texts(pair: tuple[str, float], stats: Sequence[float], intercept: float | None) -> tuple:
        entry = _csv_row((pair[0], "type1_ss", _csv_value(_num(pair[1]))))
        rows = [_csv_row((k, _csv_value(_num(x)))) for k, x in zip(_COEF_STATS, stats)]
        first = None if intercept is None else _csv_row(("", "intercept", _csv_value(_num(intercept))))
        return entry, rows, first

    rows = 5 * n + 5  # n Type I rows, 4 summary rows, the intercept's and 4 per term
    row = [""] * (2 * rows)
    # row r's section cell is at 2 * r and the rest of it at 2 * r + 1
    entry_at, summary_at, intercept_at, term_at = 1, 2 * n + 1, 2 * n + 9, 2 * n + 11
    row[summary_at:intercept_at:2] = summary

    def depth(i: int, label: str, cells: tuple) -> None:
        entry, stat_rows, intercept = cells
        cell, at = _csv_row((label, ""))[:-1], term_at + 8 * i
        row[entry_at + 2 * i] = entry
        row[at : at + 8 : 2] = [cell + r for r in stat_rows]
        if intercept is not None:
            row[intercept_at] = intercept

    def ordering(order: tuple[str, ...], k: int) -> list[str]:
        row[::2] = [_csv_row(("order:" + ">".join(order), ""))[:-1]] * rows
        return row

    return head, texts, depth, ordering, "", ("", "")


# Each format, from the fields before the orderings, the fit and the number
# of positions, as ``render_orderings`` takes them: (head; the texts of one
# (prefix set, predictor); what puts the texts of position i, given its
# label and (prefix set, predictor) texts, in the row; an ordering's row,
# given how many leading positions it shares with the last ordering; the
# separator written before every ordering but the first; (tail, tail
# after orderings)). Text and CSV end as the last ordering does.
_ORDERINGS = {"json": _json_orderings, "text": _text_orderings, "csv": _csv_orderings}
