import csv
import io
import json
import math
import re
import sys
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varpart import (
    Dataset,
    SyntheticSpec,
    compare_report,
    enumerate_orderings,
    exchangeable_correlation,
    fit_ols,
    generate_synthetic,
    mean_center,
    residualized_simple_fits,
    venn_regions,
)
from varpart import report
from varpart.decomposition import _Orderings, ordering_walk
from varpart.report import (
    decompose_payload,
    fit_payload,
    render_json,
    render_orderings,
    render_payload,
    venn_payload,
)
from varpart.textfmt import fmt2

from conftest import (
    MODEL,
    WIDTH_NAMES,
    WIDTH_ORDERS,
    make_dataset,
    orderings_csv,
    orderings_payload,
    records_by_ordering,
    report_by_ordering,
    sections_by_ordering,
    widths_dataset,
)


class TestFmt2:
    def test_two_decimals_and_thousands_separators(self):
        assert fmt2(26196.209523809525) == "26,196.21"
        assert fmt2(1234.5) == "1,234.50"
        assert fmt2(1e6) == "1,000,000.00"
        assert fmt2(0.0) == "0.00"

    def test_half_cases_round_away_from_zero(self):
        assert fmt2(0.005) == "0.01"
        assert fmt2(-0.005) == "-0.01"

    def test_decimal_literal_rounding_not_binary(self):
        # repr gives the shortest decimal, so 2.675 rounds up even though
        # its float value sits just below the midpoint
        assert fmt2(2.675) == "2.68"

    def test_never_renders_negative_zero(self):
        assert fmt2(-0.001) == "0.00"
        assert fmt2(-0.0) == "0.00"

    def test_any_finite_float_is_rendered_in_full(self):
        # 1e26 has 27 integer digits: two decimals more overflowed the
        # default 28-digit decimal context
        assert fmt2(1e26) == "100,000,000,000,000,000,000,000,000.00"
        # repr(max) is 1.7976931348623157e+308: 309 integer digits
        big = "179,769,313,486,231,570" + ",000" * 97 + ".00"
        assert fmt2(sys.float_info.max) == big
        assert fmt2(-sys.float_info.max) == "-" + big


class Reports(dict):
    """Each command's payload by name; ``render(key, fmt)`` writes a report
    as the CLI does: ``orderings`` from the walk over its orderings, the rest
    from their payloads. The ``orderings`` payload is built from records
    computed one ordering at a time."""

    def __init__(self, c, model):
        full = fit_ols(c, model)
        rep = compare_report(c, model)
        records = records_by_ordering(c, rep.orderings)
        self.c, self.model, self.orderings = c, model, rep.orderings
        super().__init__(
            fit=fit_payload(full, c.response_name),
            decompose=decompose_payload(rep, residualized_simple_fits(c, model), c.response_name),
            orderings=orderings_payload(c.response_name, model, full, records),
            venn=venn_payload(venn_regions(c, model), c.response_name, model, c.n),
        )

    def render(self, key, fmt):
        if key == "orderings":
            walk = ordering_walk(self.c, self.model, self.orderings)
            return "".join(render_orderings(fmt, self.c.response_name, self.model, walk))
        return render_payload(self[key], fmt)


def flatten(obj, floats, ints):
    if isinstance(obj, bool):
        return
    if isinstance(obj, float):
        floats.append(obj)
    elif isinstance(obj, int):
        ints.append(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            flatten(v, floats, ints)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            flatten(v, floats, ints)


TOKEN = re.compile(r"(?<![\w.])-?\d[\d,]*(?:\.\d+)?(?![\w.])")


def allowed_text_tokens(payload):
    floats, ints = [], []
    flatten(payload, floats, ints)
    allowed = {fmt2(x) for x in floats}
    allowed |= {str(i) for i in ints} | {format(i, ",") for i in ints}
    return allowed


PAYLOAD_KEYS = ("fit", "decompose", "orderings", "venn")


@pytest.fixture(scope="module")
def dwaine_payloads(centered):
    return Reports(centered, MODEL)


@pytest.fixture(scope="module")
def synth_centered():
    rng = np.random.default_rng(13)
    base = rng.standard_normal((40, 3))
    x = base @ np.array([[1.0, 0.4, 0.2], [0.0, 1.0, 0.4], [0.0, 0.0, 1.0]])
    y = x @ np.array([1.0, -0.5, 2.0]) + rng.standard_normal(40)
    return mean_center(make_dataset(x, y))


@pytest.fixture(scope="module")
def synth_payloads(synth_centered):
    return Reports(synth_centered, synth_centered.predictor_names)


class TestTextMatchesJson:
    """Every number printed in text must be a formatted payload value.

    This pins the renderers to a single source of numbers: the payload, or
    for ``orderings`` the records the oracle payload is built from.
    """

    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_dwaine(self, dwaine_payloads, key):
        allowed = allowed_text_tokens(dwaine_payloads[key]) | {"NA"}
        for tok in TOKEN.findall(dwaine_payloads.render(key, "text")):
            assert tok in allowed, tok

    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_synthetic(self, synth_payloads, key):
        allowed = allowed_text_tokens(synth_payloads[key]) | {"NA"}
        for tok in TOKEN.findall(synth_payloads.render(key, "text")):
            assert tok in allowed, tok


class TestJson:
    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_round_trips_exactly(self, dwaine_payloads, key):
        payload = dwaine_payloads[key]
        text = dwaine_payloads.render(key, "json")
        assert text.endswith("\n")
        assert json.loads(text) == payload

    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_validates_against_shipped_schema(self, dwaine_payloads, key):
        schema = json.loads(
            (resources.files("varpart.schemas") / f"{key}.schema.json").read_text()
        )
        jsonschema.validate(json.loads(dwaine_payloads.render(key, "json")), schema)

    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_synthetic_validates_too(self, synth_payloads, key):
        schema = json.loads(
            (resources.files("varpart.schemas") / f"{key}.schema.json").read_text()
        )
        jsonschema.validate(json.loads(synth_payloads.render(key, "json")), schema)


def json_oracle(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def orderings_json(response, model, c, orderings):
    """The orderings JSON of the walk over ``orderings``, joined."""
    return "".join(render_orderings("json", response, model, ordering_walk(c, model, orderings)))


# names a renderer could trip on: "@" quoted or doubled, "%" and "%s"
# (template slots), quotes, backslashes, NUL, a comma, a line end,
# non-ASCII and ""
NAMES = st.one_of(
    st.sampled_from(
        ["", "@", "@@", '"@"', "%", "%s", "%%", '"', "\\", "\x00", ",", "a\nb", "é", "\U0001f600", "x1"]
    ),
    st.text(max_size=6),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308]),
    NAMES,
)
TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(NAMES, kids, max_size=4),
    max_leaves=20,
)
# few keys and short lists, so that list items often share a shape; keys
# that compare equal (1, True, 1.0; 0.0, -0.0) but render differently
ITEM_KEYS = st.sampled_from(["a", "b", "@", "%", 1, True, 1.0, 0.0, -0.0, None])
ITEMS = st.lists(
    st.dictionaries(
        ITEM_KEYS,
        SCALARS | st.lists(SCALARS, max_size=2) | st.dictionaries(NAMES, SCALARS, max_size=2),
        max_size=3,
    ),
    min_size=1,
    max_size=6,
)
PAYLOADS = st.dictionaries(NAMES, TREES | ITEMS | st.dictionaries(NAMES, ITEMS, max_size=2))


@st.composite
def shared_payloads(draw):
    """A tree that holds objects of one pool by reference, so one dict, list
    or leaf sits at several positions and depths: a -0.0 next to a separate
    0.0, True, 1 and 1.0, empty containers, and containers of pool objects."""
    pool = [-0.0, float("0"), True, 1, 1.0, [], {}, *draw(st.lists(TREES | ITEMS, max_size=3))]
    for _ in range(draw(st.integers(0, 3))):
        members = st.sampled_from(pool)
        pool.append(
            draw(st.lists(members, max_size=3) | st.dictionaries(NAMES, members, max_size=3))
        )
    return draw(
        st.recursive(
            st.sampled_from(pool),
            lambda kids: st.lists(kids, max_size=4) | st.dictionaries(NAMES, kids, max_size=4),
            max_leaves=30,
        )
    )


class TestJsonMatchesStdlib:
    """``render_json`` writes exactly what ``json.dumps(indent=2)`` writes."""

    @settings(max_examples=250, deadline=None)
    @given(PAYLOADS | TREES | ITEMS)
    @example({"orderings": [{"x": 0.0}, {"x": -0.0}, {"x": None}, {"x": []}, {"x": {}}]})
    @example({"@": [{"@": "@"}, {'"@"': '"@"'}], "%s": [{"%": "%s"}], "\x00": ["\x00"]})
    @example([{1: "a"}, {True: "b"}, {1.0: "c"}, {0.0: 1}, {-0.0: 2}, {None: 3}])
    def test_generated_payloads(self, payload):
        assert render_json(payload) == json_oracle(payload)

    @settings(max_examples=250, deadline=None)
    @given(shared_payloads())
    def test_shared_objects(self, payload):
        assert render_json(payload) == json_oracle(payload)

    @settings(max_examples=50, deadline=None)
    @given(
        NAMES,
        # a predictor name is any name a Dataset takes: not empty, no "," or "|"
        st.lists(
            NAMES.filter(lambda nm: nm not in ("", "y") and not {",", "|"} & set(nm)),
            min_size=3, max_size=3, unique=True,
        ),
        st.lists(st.permutations(range(3)), max_size=4),
    )
    def test_generated_names(self, response, names, perms):
        c = correlated_centered(13, 3, tuple(names))
        orders = [tuple(names[i] for i in perm) for perm in perms]
        payload = orderings_payload(response, names, fit_ols(c, names), records_by_ordering(c, orders))
        assert render_json(payload) == json_oracle(payload)
        assert orderings_json(response, names, c, orders) == json_oracle(payload)
        written = "".join(render_orderings("csv", response, names, ordering_walk(c, names, orders)))
        assert written == orderings_csv(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "payload",
        [
            lambda x: {"a": x},
            lambda x: {"l": [{"a": 1.0}, {"a": x}]},
            lambda x: {x: 1},
            lambda x: {"a": [x, {"b": x}], "c": [[x], {"d": [x]}]},
        ],
        ids=["leaf", "item", "key", "shared"],
    )
    def test_non_finite_floats_raise_like_json(self, bad, payload):
        with pytest.raises(ValueError):
            json_oracle(payload(bad))
        with pytest.raises(ValueError):
            render_json(payload(bad))

    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_dwaine_payloads(self, dwaine_payloads, key):
        assert dwaine_payloads.render(key, "json") == json_oracle(dwaine_payloads[key])

    def test_all_orderings_of_seven_predictors(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, 7)) + 0.8 * rng.standard_normal((60, 1))
        y = x.sum(axis=1) + rng.standard_normal(60)
        c = mean_center(make_dataset(x, y))
        names = c.predictor_names
        records = records_by_ordering(c, enumerate_orderings(names))
        payload = orderings_payload("y", names, fit_ols(c, names), records)
        assert len(payload["orderings"]) == 5040
        assert render_json(payload) == json_oracle(payload)
        assert orderings_json("y", names, c, enumerate_orderings(names)) == json_oracle(payload)


def correlated_centered(seed, p, names=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((12 + 3 * p, p)) + 0.7 * rng.standard_normal((12 + 3 * p, 1))
    y = x @ rng.standard_normal(p) + rng.standard_normal(len(x))
    if names is None:
        return mean_center(make_dataset(x, y))
    return mean_center(
        Dataset(
            columns=(*zip(names, x.T), ("y", y)), response_name="y", predictor_names=names
        )
    )


class TestOrderingsJson:
    """``render_orderings("json", ...)`` writes, from the walk, exactly what
    ``json.dumps`` writes for the payload built from the records of the same
    orderings."""

    @staticmethod
    def assert_matches_payload(c, model, orderings, records=None):
        records = records_by_ordering(c, orderings) if records is None else records
        oracle = json_oracle(orderings_payload(c.response_name, model, fit_ols(c, model), records))
        assert orderings_json(c.response_name, model, c, orderings) == oracle

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_all_orderings(self, p, seed):
        c = correlated_centered(seed, p)
        names = c.predictor_names
        self.assert_matches_payload(c, names, enumerate_orderings(names))

    def test_explicit_orderings_of_a_sub_model(self):
        c = correlated_centered(3, 4)
        model = ("x3", "x1", "x4")
        orders = [("x4", "x1", "x3"), ("x3", "x1", "x4"), ("x4", "x1", "x3")]
        # the walk leaves the first ordering's prefixes and comes back to them
        self.assert_matches_payload(c, model, orders)

    def test_records_that_share_nothing(self):
        c = correlated_centered(4, 3)
        names = c.predictor_names
        orders = enumerate_orderings(names)
        records = records_by_ordering(c, orders)
        assert isinstance(records[0].terms[0][1], np.float64)
        self.assert_matches_payload(c, names, orders, records)

    def test_infinite_f_is_null(self, perfect):
        records = records_by_ordering(perfect, [("x1",)])
        assert math.isinf(records[0].fit.f)
        self.assert_matches_payload(perfect, ("x1",), [("x1",)], records)
        out = orderings_json("y", ("x1",), perfect, [("x1",)])
        assert json.loads(out)["orderings"][0]["orthogonal_fit"]["f"] is None

    def test_names_that_need_escaping(self):
        names = ('say "hi"', "back\\slash", "100%", "caf\u00e9 \U0001f600")
        c = correlated_centered(5, len(names), names)
        self.assert_matches_payload(c, names, enumerate_orderings(names))

    def test_no_records(self, centered):
        texts = [*render_orderings("json", "SALES", MODEL, ordering_walk(centered, MODEL, []))]
        assert len(texts) == 2  # the head and the tail
        full = fit_ols(centered, MODEL)
        assert "".join(texts) == json_oracle(orderings_payload("SALES", MODEL, full, []))
        assert texts[1] == "]\n}\n" and texts[0].endswith('"orderings": [')

    def test_six_predictors(self):
        c = correlated_centered(6, 6)
        names = c.predictor_names
        self.assert_matches_payload(c, names, enumerate_orderings(names))


class TestPrefixSharing:
    """Orderings that share a prefix share its texts, and nothing else: in
    every format, the report of any list of orderings of one model, repeats
    and any order included, is the head, each ordering's section as the
    report of that ordering alone writes it, and the tail."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_list_of_orderings(self, data):
        p = data.draw(st.integers(1, 5), label="p")
        c = correlated_centered(data.draw(st.integers(0, 2**32 - 1), label="seed"), p)
        model = data.draw(st.permutations(c.predictor_names), label="model")
        model = model[: data.draw(st.integers(1, p), label="size")]
        # a few orderings drawn again and again, so that lists repeat them,
        # one after another and after others
        pool = data.draw(st.lists(st.permutations(model).map(tuple), min_size=1, max_size=4))
        orders = data.draw(st.lists(st.sampled_from(pool), max_size=10), label="orders")
        for fmt in ("json", "text", "csv"):
            report = "".join(render_orderings(fmt, "y", model, ordering_walk(c, model, orders)))
            assert report == report_by_ordering(fmt, "y", model, c, orders)
        records = records_by_ordering(c, orders)
        oracle = json_oracle(orderings_payload("y", model, fit_ols(c, model), records))
        assert orderings_json("y", model, c, orders) == oracle


class TestWidthsPerDepth:
    """Orderings that share a prefix may need other text column widths, on
    names that JSON escapes and CSV quotes (``conftest.widths_dataset``):
    each format writes each ordering as the report of it alone does, and
    JSON and CSV as the stdlib writes them, over all orderings (enumerated by
    the walk or by the caller) and over an explicit list with repeats."""

    @pytest.fixture(scope="class")
    def c(self):
        return mean_center(widths_dataset())

    def test_orderings_that_share_a_prefix_need_other_widths(self, c):
        # the coefficient table's head is padded to the ordering's widths
        text = report_by_ordering("text", "y", WIDTH_NAMES, c, WIDTH_ORDERS)
        heads = [
            (section.split(", ")[0], re.findall(r"^Term .*$", section, re.M))
            for section in text.split("\nOrdering: ")[1:]
        ]
        assert heads[0][0] == heads[1][0] == "w" and heads[0][1] != heads[1][1]

    @pytest.mark.parametrize("fmt", ("json", "text", "csv"))
    @pytest.mark.parametrize("given", ("default", "all", "explicit"))
    def test_each_ordering_as_if_alone(self, c, fmt, given):
        # by default the walk enumerates all orderings itself
        orders = WIDTH_ORDERS if given == "explicit" else enumerate_orderings(WIDTH_NAMES)
        walk = ordering_walk(c, WIDTH_NAMES, None if given == "default" else orders)
        written = "".join(render_orderings(fmt, "y", WIDTH_NAMES, walk))
        assert written == report_by_ordering(fmt, "y", WIDTH_NAMES, c, orders)
        if fmt != "text":
            payload = orderings_payload("y", WIDTH_NAMES, fit_ols(c, WIDTH_NAMES), records_by_ordering(c, orders))
            assert written == (json_oracle if fmt == "json" else orderings_csv)(payload)


class TestSections:
    @pytest.mark.parametrize("fmt", ("json", "text", "csv"))
    @pytest.mark.parametrize("p, batch", [(1, 64), (4, 1), (4, 5), (4, 24), (4, 64)])
    def test_the_head_batches_of_sections_and_the_tail(self, monkeypatch, fmt, p, batch):
        # the report is the head, then each ordering's own section as the
        # report of that ordering alone writes it, ``_BATCH`` of them joined
        # per text, then the tail
        monkeypatch.setattr(report, "_BATCH", batch)
        c = correlated_centered(8, p)
        names = c.predictor_names
        orders = enumerate_orderings(names)
        head, sections, tail = sections_by_ordering(fmt, "y", names, c, orders)
        texts = [*render_orderings(fmt, "y", names, ordering_walk(c, names, orders))]
        batches = ["".join(sections[i : i + batch]) for i in range(0, len(orders), batch)]
        assert texts == [head, *batches, tail]
        if fmt == "json":
            assert head.endswith('"orderings": [') and tail == "\n  ]\n}\n"
            records = records_by_ordering(c, orders)
            oracle = json_oracle(orderings_payload("y", names, fit_ols(c, names), records))
            assert "".join(texts) == oracle


class TestFormatOnce:
    @pytest.mark.parametrize("fmt", ("json", "text", "csv"))
    def test_each_shared_text_is_made_once(self, monkeypatch, fmt):
        # at p = 4: the texts of a Type I entry and a term's statistics per
        # (prefix set, predictor), 4 * 2**3, an intercept's with those of
        # the 4 sets of one predictor, a term's per ordered prefix, 4 + 12 +
        # 24 + 24, as the walk enters it, and a row per ordering, over 24
        # orderings of 4 positions
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 4)) + 0.5 * rng.standard_normal((30, 1))
        c = mean_center(make_dataset(x, x.sum(axis=1) + rng.standard_normal(30)))
        names = c.predictor_names
        orders = enumerate_orderings(names)
        want = report_by_ordering(fmt, "y", names, c, orders)
        calls = {"texts": [], "depth": [], "ordering": []}
        make = report._ORDERINGS[fmt]

        def counted(fields, fit, n):
            head, texts, depth, ordering, *ends = make(fields, fit, n)

            def spy(kind, formatter):
                return lambda *args: calls[kind].append(args) or formatter(*args)

            return head, *(spy(kind, f) for kind, f in zip(calls, (texts, depth, ordering))), *ends

        monkeypatch.setitem(report._ORDERINGS, fmt, counted)
        assert "".join(render_orderings(fmt, "y", names, ordering_walk(c, names, orders))) == want
        assert len(calls["texts"]) == len(set(calls["texts"])) == 32
        assert sorted(args[0][0] for args in calls["texts"] if args[2] is not None) == sorted(names)
        prefixes = [(i, label) for i, label, _ in calls["depth"]]
        assert len(prefixes) == len(set(prefixes)) == 64
        assert len(calls["ordering"]) == 24

    @pytest.mark.parametrize("fmt", ("json", "text", "csv"))
    def test_each_value_is_read_off_the_memo_once(self, monkeypatch, fmt):
        # the walk's values compute on each call, so the writer keeps them:
        # a Type I pair and a term's statistics per (prefix set, predictor),
        # 4 * 2**3 at p = 4, and an intercept per first predictor
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 4)) + 0.5 * rng.standard_normal((30, 1))
        c = mean_center(make_dataset(x, x.sum(axis=1) + rng.standard_normal(30)))
        names = c.predictor_names
        orders = enumerate_orderings(names)
        want = report_by_ordering(fmt, "y", names, c, orders)
        calls = {"entry": [], "stats": [], "intercept": []}
        for kind in calls:
            read = getattr(_Orderings, kind)
            monkeypatch.setattr(
                _Orderings, kind, lambda self, *args, kind=kind, read=read: calls[kind].append(args) or read(self, *args)
            )
        assert "".join(render_orderings(fmt, "y", names, ordering_walk(c, names, orders))) == want
        assert len(calls["entry"]) == len(set(calls["entry"])) == 32
        assert sorted(calls["stats"]) == sorted(calls["entry"])
        assert sorted(calls["intercept"]) == [(nm,) for nm in names]


class TestStreamedRecords:
    @pytest.mark.parametrize("fmt", ("json", "text", "csv"))
    def test_all_orderings_of_seven_predictors_in_bounded_memory(self, fmt):
        # the walk holds the sets and labels of one path of prefixes, the
        # writer their texts, the texts per (prefix set, predictor) and one
        # ordering's text: tracemalloc reads 0.95 (json), 0.27 (text) and
        # 0.31 MB (csv) when a record per ordering was written, 3.1 and
        # 2.5 MB in chunks of about 1 MB, and 15.5 (json, text) and 17.1 MB
        # (csv) when every record, term and text was held
        spec = SyntheticSpec(
            n=200, p=7, correlation=exchangeable_correlation(7, 0.6),
            signal_coefficients=np.ones(7), noise_sd=1.0, seed=4242,
        )
        c = mean_center(generate_synthetic(spec))
        names = c.predictor_names
        walk = ordering_walk(c, names, enumerate_orderings(names))  # the walk solves as it goes
        tracemalloc.start()
        try:
            size = sum(map(len, render_orderings(fmt, "y", names, walk)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 3_000_000  # 5,040 orderings were written
        assert peak <= 1_500_000


class TestCsv:
    @pytest.mark.parametrize("key", ("fit", "decompose", "orderings"))
    def test_long_format_header(self, dwaine_payloads, key):
        out = dwaine_payloads.render(key, "csv")
        assert out.splitlines()[0] == "section,name,statistic,value"

    def test_venn_uses_region_table(self, dwaine_payloads):
        out = render_payload(dwaine_payloads["venn"], "csv")
        lines = out.splitlines()
        assert lines[0] == "region,ss"
        # one row per predictor plus common, residual, missing, total
        assert len(lines) == 1 + len(MODEL) + 4

    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_numeric_cells_round_trip_to_payload_values(self, dwaine_payloads, key):
        payload = dwaine_payloads[key]
        floats, ints = [], []
        flatten(payload, floats, ints)
        exact = {repr(x) for x in floats} | {str(i) for i in ints}
        reader = csv.reader(io.StringIO(dwaine_payloads.render(key, "csv")))
        next(reader)
        for row in reader:
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    continue
                assert cell in exact, cell

    @pytest.mark.parametrize("key", PAYLOAD_KEYS)
    def test_deterministic(self, dwaine_payloads, key):
        for fmt in ("csv", "text", "json"):
            assert dwaine_payloads.render(key, fmt) == dwaine_payloads.render(key, fmt)


class TestNotes:
    def test_correlated_fixture_flags_overlap(self, dwaine_payloads):
        notes = " ".join(dwaine_payloads["decompose"]["notes"])
        assert "correlated predictors" in notes
        assert "two t statistics" in notes

    def test_orthogonal_fixture_flags_coincidence(self, orthogonal_centered):
        c = orthogonal_centered
        rep = compare_report(c, c.predictor_names)
        fits = residualized_simple_fits(c, c.predictor_names)
        notes = " ".join(decompose_payload(rep, fits, c.response_name)["notes"])
        assert "orthogonal" in notes

    def test_suppression_fixture_flags_suppression(self, suppression_centered):
        c = suppression_centered
        rep = compare_report(c, c.predictor_names)
        fits = residualized_simple_fits(c, c.predictor_names)
        notes = " ".join(decompose_payload(rep, fits, c.response_name)["notes"])
        assert "suppression" in notes

    def test_single_predictor_note(self, centered):
        rep = compare_report(centered, ("TARGTPOP",))
        fits = residualized_simple_fits(centered, ("TARGTPOP",))
        notes = " ".join(decompose_payload(rep, fits, "SALES")["notes"])
        assert "coincide" in notes

    def test_notes_carry_no_numbers(self, dwaine_payloads, suppression_centered):
        c = suppression_centered
        rep = compare_report(c, c.predictor_names)
        payloads = [
            dwaine_payloads["decompose"],
            decompose_payload(rep, residualized_simple_fits(c, c.predictor_names), c.response_name),
        ]
        for p in payloads:
            for note in p["notes"]:
                assert TOKEN.findall(note) == []


@pytest.fixture(scope="module")
def perfect():
    x = np.arange(1.0, 9.0)
    return mean_center(make_dataset(x[:, None], 2.0 * x))


class TestNonFiniteValues:
    def test_json_uses_null(self, perfect):
        fit = fit_ols(perfect, ("x1",))
        payload = fit_payload(fit, "y")
        text = render_json(payload)  # must not raise on inf
        parsed = json.loads(text)
        assert parsed["anova"]["regression"]["f"] is None

    def test_text_prints_na(self, perfect):
        fit = fit_ols(perfect, ("x1",))
        out = render_payload(fit_payload(fit, "y"), "text")
        assert "NA" in out

    def test_csv_leaves_cell_empty(self, perfect):
        fit = fit_ols(perfect, ("x1",))
        out = render_payload(fit_payload(fit, "y"), "csv")
        assert any(line.endswith(",f,") for line in out.splitlines())
