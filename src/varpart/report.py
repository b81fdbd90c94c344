"""Report payloads and their text, JSON, and CSV renderings.

Each subcommand first builds one JSON-able payload dict carrying full
float precision; every renderer works from that payload. Text output
therefore shows exactly the JSON numbers rounded half away from zero to
two decimals, and CSV output carries the full-precision values in a flat
(section, name, statistic, value) layout. Non-finite statistics (a
perfect fit has infinite F) become JSON null and the text cell "NA".

JSON output is byte for byte ``json.dumps(payload, indent=2,
allow_nan=False)`` and a newline. The stdlib writes indented JSON in pure
Python, one object at a time, so ``render_json`` lays the payload out a
column at a time instead, with an identity memo: a payload object that
occurs in many places, such as a Type I entry or an orthogonal-function
term that ``orderings_payload`` shares between orderings, is encoded and
laid out once.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import cache
from itertools import chain, compress, repeat
from operator import methodcaller, not_
from typing import Any, Sequence

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


def _fit_summary(fit: OlsFit) -> dict[str, Any]:
    return {
        "ss_regression": _num(fit.ss_regression),
        "ss_residual": _num(fit.ss_residual),
        "r2": _num(fit.r2),
        "f": _num(fit.f),
    }


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


_PAD = "  "
# Leaves joined by NUL: strings are ASCII-escaped, so no encoded leaf holds one.
_LEAF_ENCODER = json.JSONEncoder(allow_nan=False, separators=("\x00", ":"))


def render_json(payload: Any) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False) + "\\n"``, byte for byte.

    With an indent, ``json`` formats in pure Python, value by value. Here
    the payload is laid out a column at a time: a column holds the values
    at one place in the payload's shape, such as the items of an array, or
    one key's values in objects that have the same keys. Each distinct
    object of a column is laid out once, and each distinct leaf is encoded
    once in all; both memos are keyed on ``id``, which stays unique while
    the payload keeps its objects alive. The new leaves of a column are
    encoded in one call to the C encoder, which formats floats, ints,
    strings, null and booleans exactly as the indented path does and
    raises the same ValueError on NaN and infinities. The objects of a
    column that have the same keys are filled into one template.
    """
    out: list[str] = []
    _Layout().write(payload, 0, out)
    out.append("\n")
    return "".join(out)


_LEAF, _OBJECT, _ARRAY = range(3)


@cache
def _kind(t: type) -> int:
    """How ``json`` writes an instance of ``t``: as a leaf, an object or an array."""
    return _OBJECT if issubclass(t, dict) else _ARRAY if issubclass(t, (list, tuple)) else _LEAF


@cache
def _separators(depth: int) -> tuple[str, str]:
    """The separator between the items of a container at ``depth``, and the
    line break and indent before its closing bracket."""
    return ",\n" + _PAD * (depth + 1), "\n" + _PAD * depth


class _Layout:
    """The texts of a payload's values, a column at a time, and the memo of
    its encoded leaves."""

    def __init__(self) -> None:
        self._leaves: dict[int, str] = {}

    def write(self, v: Any, depth: int, out: list[str]) -> None:
        """Append the text of ``v`` at ``depth`` to ``out``: an object field
        by field, an array's items as one column. Only the final join then
        copies the text of more than one array item."""
        kind = _kind(type(v))
        if kind == _LEAF or not v:
            out += self.texts([v], depth)
            return
        sep, end = _separators(depth)
        if kind == _ARRAY:
            out.append("[" + sep[1:])
            out += chain.from_iterable(zip(self.texts([*v], depth + 1), repeat(sep)))
            out[-1] = end + "]"
            return
        out.append("{")
        for start, (key, value) in zip(chain([sep[1:]], repeat(sep)), v.items()):
            out += start, _head(key)
            self.write(value, depth + 1, out)
        out.append(end + "}")

    def texts(self, column: list, depth: int) -> list[str]:
        """The text of each value in ``column``, all of them at ``depth``."""
        if not column:
            return []
        ids = [*map(id, column)]
        distinct = dict(zip(ids, column))
        if len(distinct) < len(column):
            laid_out = dict(zip(distinct, self.texts([*distinct.values()], depth)))
            return [*map(laid_out.__getitem__, ids)]
        kinds = [*map(_kind, map(type, column))]
        if kinds.count(kinds[0]) < len(kinds):
            return _by_group(column, kinds, lambda kind, part: self._of_kind(kind, part, depth))
        return self._of_kind(kinds[0], column, depth)

    def _of_kind(self, kind: int, column: list, depth: int) -> list[str]:
        """The texts of distinct values of one kind."""
        if kind == _LEAF:
            return self._leaf_texts(column)
        if kind == _ARRAY:
            return self._array_texts(column, depth)
        keys = [*map(tuple, column)]
        if keys.count(keys[0]) < len(keys) or not _all_str(keys[0]):
            # 1, 1.0 and True are equal keys that are written differently,
            # so only objects whose keys are all strings share a template
            groups = [k if _all_str(k) else i for i, k in enumerate(keys)]
            return _by_group(column, groups, lambda _, part: self._object_texts(part, depth))
        return self._object_texts(column, depth)

    def _leaf_texts(self, column: list) -> list[str]:
        texts = [*map(self._leaves.get, map(id, column))]
        if None in texts:
            new = [*compress(column, map(not_, texts))]
            self._leaves.update(zip(map(id, new), _LEAF_ENCODER.encode(new)[1:-1].split("\x00")))
            texts = [*map(self._leaves.__getitem__, map(id, column))]
        return texts

    def _array_texts(self, column: list, depth: int) -> list[str]:
        items = self.texts([*chain.from_iterable(column)], depth + 1)
        sep, end = _separators(depth)
        out, start = [], 0
        for n in map(len, column):
            out.append(f"[{sep[1:]}{sep.join(items[start : start + n])}{end}]" if n else "[]")
            start += n
        return out

    def _object_texts(self, column: list, depth: int) -> list[str]:
        """The texts of objects that have the same keys."""
        keys = tuple(column[0])
        if not keys:
            return ["{}"] * len(column)
        values = [self.texts([*v], depth + 1) for v in zip(*map(methodcaller("values"), column))]
        sep, end = _separators(depth)
        heads = (_head(k).replace("%", "%%") for k in keys)
        template = f"{{{sep[1:]}{sep.join(h + '%s' for h in heads)}{end}}}"
        return [*map(template.__mod__, zip(*values))]


def _head(key: Any) -> str:
    """A key and its colon as ``json`` writes them, or its TypeError for a
    key that is not a str, int, float, bool or None."""
    return _LEAF_ENCODER.encode({key: None})[1:-5] + " "


def _all_str(keys: tuple) -> bool:
    return all(type(k) is str for k in keys)


def _by_group(column: list, groups: list, texts) -> list[str]:
    """``texts(group, values)`` for the values of each group in ``column``
    (``groups`` names the group of each value), put back in column order."""
    members: dict[Any, list[int]] = {}
    for i, group in enumerate(groups):
        members.setdefault(group, []).append(i)
    out = [""] * len(column)
    for group, idx in members.items():
        for i, text in zip(idx, texts(group, [column[i] for i in idx])):
            out[i] = text
    return out


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
