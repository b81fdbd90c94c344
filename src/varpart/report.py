"""Report payloads and their text, JSON, and CSV renderings.

Each subcommand first builds one JSON-able payload dict carrying full
float precision; every renderer works from that payload. Text output
therefore shows exactly the JSON numbers rounded half away from zero to
two decimals, and CSV output carries the full-precision values in a flat
(section, name, statistic, value) layout. Non-finite statistics (a
perfect fit has infinite F) become JSON null and the text cell "NA".

JSON output is ``json.dumps(payload, indent=2, allow_nan=False)`` and a
newline. The one large payload, that of ``orderings`` (12 MB at seven
predictors), is never built for JSON: ``render_orderings_json`` writes the
same bytes straight from the ordering records, in chunks of about 1 MB,
formatting each Type I entry and term that the records share once. Its
text and CSV come from the payload built from the same records, so all
three formats carry the same numbers.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Iterator, Sequence

from .decomposition import DecompositionReport, OrderingFit, VennRegions
from .ols_core import OlsFit, anova_table
from .textfmt import fmt2

SCHEMA_VERSION = "1"


def _num(x: float) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _cell(x: float | None) -> str:
    return "NA" if x is None else fmt2(x)


_COEF_STATS = ("b", "se", "z", "t")


def _coef(term: Sequence, key: str = "name") -> dict[str, Any]:
    """The dict of one coefficient given as (name, b, se, z, t)."""
    nm, b, se, z, t = term
    return {key: nm, "b": _num(b), "se": _num(se), "z": _num(z), "t": _num(t)}


def _coef_list(fit: OlsFit) -> list[dict[str, Any]]:
    return [_coef(term) for term in zip(fit.predictor_subset, fit.b, fit.se, fit.z, fit.t)]


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
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "response": response,
        "predictors": list(fit.predictor_subset),
        "n": fit.n,
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
    elif abs(v.common_total) <= 1e-9 * v.ss_total:
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


def decompose_payload(rep: DecompositionReport, response: str) -> dict[str, Any]:
    trad = rep.traditional
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "decompose",
        "response": response,
        "predictors": list(rep.model),
        "n": trad.n,
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
            for nm, f in rep.residualized_fits.items()
        ],
        "venn": _venn_dict(rep.venn),
        "notes": _report_notes(rep),
    }


def orderings_payload(
    response: str, model: Sequence[str], full: OlsFit, records: Sequence[OrderingFit]
) -> dict[str, Any]:
    """Payload for the per-ordering report.

    ``records`` holds each ordering's Type I table and orthogonal-function
    fit. Each distinct Type I pair, term and fit summary of the records
    becomes one dict, which every ordering holding that object shares.
    """
    records = list(records)
    entry = _once([e for r in records for e in r.type1], _type1_entry)
    term = _once([t for r in records for t in r.terms], lambda t: _coef(t, "label"))
    summary = _once([r.fit for r in records], _fit_summary)
    items = [
        {
            "order": list(r.order),
            "type1": [*map(entry.__getitem__, map(id, r.type1))],
            "orthogonal_fit": {
                **summary[id(r.fit)],
                "intercept": _num(r.intercept),
                "terms": [*map(term.__getitem__, map(id, r.terms))],
            },
        }
        for r in records
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "orderings",
        "response": response,
        "predictors": list(model),
        "n": full.n,
        "ss_regression": _num(full.ss_regression),
        "ss_total": _num(full.ss_total),
        "orderings": items,
    }


def _once(values: list, build) -> dict[int, Any]:
    """The id of each distinct value -> ``build(value)``, built once. The
    ids stay unique while the caller keeps the values alive."""
    distinct = dict(zip(map(id, values), values))
    return dict(zip(distinct, map(build, distinct.values())))


def _type1_entry(pair: tuple[str, float]) -> dict[str, Any]:
    return {"name": pair[0], "ss": _num(pair[1])}


_SUMMARY_STATS = ("ss_regression", "ss_residual", "r2", "f")


def _fit_summary(fit: OlsFit) -> dict[str, Any]:
    return {k: _num(getattr(fit, k)) for k in _SUMMARY_STATS}


def venn_payload(
    v: VennRegions, response: str, model: Sequence[str], n: int
) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "venn",
        "response": response,
        "predictors": list(model),
        "n": n,
        **_venn_dict(v),
    }


# --------------------------------------------------------------- renderers


def render_json(payload: Any) -> str:
    """The payload as indented JSON and a newline; NaN and infinities raise."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render_orderings_json(
    response: str, model: Sequence[str], full: OlsFit, records: Sequence[OrderingFit]
) -> Iterator[str]:
    """``render_json(orderings_payload(response, model, full, records))``, byte
    for byte, written from the records without building the payload, in
    chunks of at most ``_CHUNK`` characters that end between orderings, so
    the whole text is never held. Only a chunk of one ordering, or of the
    fields before the orderings, can be longer, when that text alone is
    about as long as the bound.

    Each distinct Type I pair, term and fit summary is formatted once, keyed
    on identity as the payload shares its dicts, and a term's four
    statistics once per distinct set of those float objects. Floats are
    written by ``float.__repr__`` (``null`` where not finite) and strings by
    the encoder ``json`` uses, so the texts are the ones ``json.dumps``
    writes at the same depths. Each ordering fills one template, made once
    per shape (the lengths of its three lists), and a chunk's text is joined
    once.
    """
    head = render_json(orderings_payload(response, model, full, ()))
    if not records:
        yield head
        return
    entry = _once([e for r in records for e in r.type1], _type1_json)
    summary = _once([r.fit for r in records], _summary_json)
    suffixes: dict[tuple[int, ...], str] = {}

    def term_json(term: Sequence) -> str:
        key = id(term[1]), id(term[2]), id(term[3]), id(term[4])
        suffix = suffixes.get(key)
        if suffix is None:
            suffix = suffixes[key] = _TERM_STATS % tuple(map(_json_num, term[1:]))
        return _TERM % (_json_str(term[0]), suffix)

    term = _once([t for r in records for t in r.terms], term_json)
    rows: dict[tuple[int, int, int], list] = {}
    parts = [head[:-5] + "["]  # head ends in '[]', the closing brace and a newline
    size = len(parts[0])
    for r in records:
        shape = len(r.order), len(r.type1), len(r.terms)
        if shape not in rows:
            rows[shape] = _ordering_row(*shape)
        row = rows[shape]
        row[1::2] = (
            *map(_json_str, r.order),
            *map(entry.__getitem__, map(id, r.type1)),
            summary[id(r.fit)],
            _json_num(r.intercept),
            *map(term.__getitem__, map(id, r.terms)),
        )
        length = sum(map(len, row))
        # room for the tail, which replaces the last ordering's comma
        if parts and size + length + len(_TAIL) > _CHUNK:
            yield "".join(parts)
            parts.clear()
            size = 0
        parts += row
        size += length
    parts[-1] = parts[-1][:-1]  # no comma after the last ordering
    parts.append(_TAIL)
    yield "".join(parts)


# Characters of orderings JSON per chunk: about 1 MB, some 430 orderings of
# seven predictors.
_CHUNK = 1 << 20
_TAIL = "\n  ]\n}\n"


def _ordering_row(n_order: int, n_type1: int, n_terms: int) -> list:
    """The text of an ordering whose lists have these lengths, on a new line
    and followed by a comma, as fragments around a slot for each value: the
    fragments sit at the even indices and the slots at the odd ones."""
    lists = (["%s"] * k for k in (n_order, n_type1, n_terms))
    order, type1, terms = map(_json_array, lists, (6, 6, 8))
    fragments = f"\n    {_ORDERING % (order, type1, '%s', '%s', terms)},".split("%s")
    row = [""] * (2 * len(fragments) - 1)
    row[::2] = fragments
    return row


# The texts ``json.dumps(indent=2)`` writes for the parts of an ordering, at
# the depths they take in the orderings payload, with a slot per value.
_ORDERING = """{
      "order": %s,
      "type1": %s,
      "orthogonal_fit": {
%s        "intercept": %s,
        "terms": %s
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


def _json_array(texts: list[str], depth: int) -> str:
    """An array of item texts whose closing bracket is indented ``depth`` spaces."""
    if not texts:
        return "[]"
    sep = ",\n" + " " * (depth + 2)
    return "[" + sep[1:] + sep.join(texts) + "\n" + " " * depth + "]"


def _json_num(x: float) -> str:
    """``_num(x)`` as ``json`` writes it."""
    x = float(x)
    return float.__repr__(x) if math.isfinite(x) else "null"


def _type1_json(pair: tuple[str, float]) -> str:
    return _TYPE1 % (_json_str(pair[0]), _json_num(pair[1]))


def _summary_json(fit: OlsFit) -> str:
    return _SUMMARY % tuple(_json_num(getattr(fit, k)) for k in _SUMMARY_STATS)


def _layout(rows: list[list[str]], align: str) -> list[str]:
    """Pad columns to a grid; 'l'/'r' per column, two spaces between."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for r in rows:
        cells = [
            c.ljust(w) if a == "l" else c.rjust(w)
            for c, w, a in zip(r, widths, align)
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


def _model_line(payload: dict[str, Any]) -> str:
    return (
        f"Model: {payload['response']} ~ "
        f"{' + '.join(payload['predictors'])}  (n = {payload['n']})"
    )


def _coef_rows(coefs: list[dict[str, Any]], intercept: float | None) -> list[str]:
    rows = [["Term", *_COEF_STATS], ["Intercept", _cell(intercept), "", "", ""]]
    for cf in coefs:
        rows.append([cf.get("name", cf.get("label")), *(_cell(cf[k]) for k in _COEF_STATS)])
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
    lines.append("")
    lines.append(f"Total SS = {_cell(v['ss_total'])}")
    lines.append(f"Missing fraction = {_cell(v['missing_fraction'])}")
    if v["suppression"]:
        lines.append("Suppression: the common region is negative.")
    return lines


def _render_text_fit(p: dict[str, Any]) -> str:
    lines = [_model_line(p), ""]
    lines += _anova_lines(p["anova"])
    lines += ["", f"R2 = {_cell(p['r2'])}", ""]
    lines += _coef_rows(p["coefficients"], p["intercept"])
    return "\n".join(lines) + "\n"


def _render_text_decompose(p: dict[str, Any]) -> str:
    trad, corr = p["traditional"], p["corrected"]
    lines = [_model_line(p), ""]
    lines.append("Traditional vs corrected")
    lines += _layout(
        [
            ["Statistic", "Traditional", "Corrected"],
            ["SS(model)", _cell(trad["ss_regression"]), _cell(corr["actual_model_ss"])],
            ["R2", _cell(trad["r2"]), _cell(corr["r2"])],
            ["F", _cell(trad["f"]), _cell(corr["f"])],
        ],
        "lrr",
    )
    lines.append("")
    lines.append("Coefficients (full model)")
    lines += _coef_rows(trad["coefficients"], trad["intercept"])
    lines.append("")
    lines.append("Partial (Type III) SS")
    rows = [["Term", "SS"]]
    rows += [[e["name"], _cell(e["ss"])] for e in p["type3"]]
    lines += _layout(rows, "lr")
    lines.append("")
    lines.append("Simple regressions on residualized predictors")
    rows = [["Term", "SS(reg)", "f", "R2", "b", "z", "t", "df(res)"]]
    for e in p["residualized_fits"]:
        cells = (_cell(e[k]) for k in ("ss_regression", "f", "r2", "b", "z", "t"))
        rows.append([e["label"], *cells, str(e["df_residual"])])
    lines += _layout(rows, "lrrrrrrr")
    lines.append("")
    lines.append("Variance accounting")
    lines += _venn_lines(p["venn"])
    lines.append("")
    lines.append("Notes")
    lines += [f"- {note}" for note in p["notes"]]
    return "\n".join(lines) + "\n"


def _render_text_orderings(p: dict[str, Any]) -> str:
    lines = [_model_line(p)]
    lines.append(
        f"SS(regression) = {_cell(p['ss_regression'])};"
        f" SS(total) = {_cell(p['ss_total'])}"
    )
    for item in p["orderings"]:
        lines.append("")
        lines.append(f"Ordering: {', '.join(item['order'])}")
        rows = [["Term", "Type I SS"]]
        rows += [[e["name"], _cell(e["ss"])] for e in item["type1"]]
        lines += _layout(rows, "lr")
        of = item["orthogonal_fit"]
        lines.append(
            f"Orthogonal-function fit: SS(reg) = {_cell(of['ss_regression'])};"
            f" R2 = {_cell(of['r2'])}; F = {_cell(of['f'])}"
        )
        lines += _coef_rows(of["terms"], of["intercept"])
    return "\n".join(lines) + "\n"


def _render_text_venn(p: dict[str, Any]) -> str:
    lines = [_model_line(p), ""]
    lines += _venn_lines(p)
    return "\n".join(lines) + "\n"


_TEXT_RENDERERS = {
    "fit": _render_text_fit,
    "decompose": _render_text_decompose,
    "orderings": _render_text_orderings,
    "venn": _render_text_venn,
}


def render_text(payload: dict[str, Any]) -> str:
    return _TEXT_RENDERERS[payload["command"]](payload)


def _csv_value(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_doc(rows: list[list[Any]], header=("section", "name", "statistic", "value")) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_value(v) for v in row])
    return buf.getvalue()


def _csv_meta(p: dict[str, Any]) -> list[list[Any]]:
    return [
        ["meta", "", "response", p["response"]],
        ["meta", "", "predictors", " ".join(p["predictors"])],
        ["meta", "", "n", p["n"]],
    ]


def _csv_coeffs(section: str, coefs: list[dict[str, Any]]) -> list[list[Any]]:
    rows = []
    for cf in coefs:
        nm = cf.get("name", cf.get("label"))
        for stat in _COEF_STATS:
            rows.append([section, nm, stat, cf[stat]])
    return rows


def _csv_venn_rows(section: str, v: dict[str, Any]) -> list[list[Any]]:
    rows = [[section, nm, "unique", ss] for nm, ss in v["unique"].items()]
    return rows + [[section, "", stat, x] for stat, x in v.items() if stat != "unique"]


def _render_csv_fit(p: dict[str, Any]) -> str:
    rows = _csv_meta(p)
    for source, e in p["anova"].items():
        for stat in ("ss", "df", "ms"):
            rows.append(["anova", source, stat, e[stat]])
        if "f" in e:
            rows.append(["anova", source, "f", e["f"]])
    rows.append(["fit", "", "r2", p["r2"]])
    rows.append(["fit", "", "intercept", p["intercept"]])
    rows += _csv_coeffs("coefficient", p["coefficients"])
    return _csv_doc(rows)


def _render_csv_decompose(p: dict[str, Any]) -> str:
    rows = _csv_meta(p)
    trad = p["traditional"]
    rows += [["traditional", "", stat, x] for stat, x in trad.items() if stat != "coefficients"]
    rows += _csv_coeffs("coefficient", trad["coefficients"])
    for stat in ("actual_model_ss", "r2", "f"):
        rows.append(["corrected", "", stat, p["corrected"][stat]])
    for e in p["type3"]:
        rows.append(["type3", e["name"], "ss", e["ss"]])
    for e in p["residualized_fits"]:
        for stat in ("ss_regression", "f", "r2", "b", "se", "z", "t", "df_residual"):
            rows.append(["residualized", e["label"], stat, e[stat]])
    rows += _csv_venn_rows("venn", p["venn"])
    return _csv_doc(rows)


def _render_csv_orderings(p: dict[str, Any]) -> str:
    rows = _csv_meta(p)
    rows.append(["meta", "", "ss_regression", p["ss_regression"]])
    rows.append(["meta", "", "ss_total", p["ss_total"]])
    for item in p["orderings"]:
        section = "order:" + ">".join(item["order"])
        for e in item["type1"]:
            rows.append([section, e["name"], "type1_ss", e["ss"]])
        of = item["orthogonal_fit"]
        for stat in ("ss_regression", "ss_residual", "r2", "f", "intercept"):
            rows.append([section, "", stat, of[stat]])
        rows += _csv_coeffs(section, of["terms"])
    return _csv_doc(rows)


def _render_csv_venn(p: dict[str, Any]) -> str:
    """One row per region: p unique rows, common, residual, missing, total."""
    rows = [[f"unique:{nm}", ss] for nm, ss in p["unique"].items()]
    rows += [["common", p["common_total"]], ["residual", p["residual"]]]
    rows += [["missing", p["missing"]], ["total", p["ss_total"]]]
    return _csv_doc(rows, header=("region", "ss"))


_CSV_RENDERERS = {
    "fit": _render_csv_fit,
    "decompose": _render_csv_decompose,
    "orderings": _render_csv_orderings,
    "venn": _render_csv_venn,
}


def render_csv(payload: dict[str, Any]) -> str:
    return _CSV_RENDERERS[payload["command"]](payload)
