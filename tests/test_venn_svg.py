import math
import xml.etree.ElementTree as ET

import pytest

from varpart import (
    Dataset,
    mean_center,
    render_venn_svg,
    solve_center_distance,
    two_circle_layout,
    venn_regions,
)

MODEL = ("TARGTPOP", "DISPOINC")


def lens_area(d, r, s):
    if d >= r + s:
        return 0.0
    if d <= abs(r - s):
        m = min(r, s)
        return math.pi * m * m
    a = r * r * math.acos((d * d + r * r - s * s) / (2 * d * r))
    b = s * s * math.acos((d * d + s * s - r * r) / (2 * d * s))
    tri = 0.5 * math.sqrt(
        (-d + r + s) * (d + r - s) * (d - r + s) * (d + r + s)
    )
    return a + b - tri


class TestSolveCenterDistance:
    def test_zero_lens_means_external_tangency(self):
        assert solve_center_distance(3.0, 2.0, 0.0) == pytest.approx(5.0, abs=1e-9)

    def test_full_lens_means_containment(self):
        full = math.pi * 4.0
        assert solve_center_distance(3.0, 2.0, full) == pytest.approx(1.0, abs=1e-9)

    def test_round_trip(self):
        target = math.pi / 2
        d = solve_center_distance(3.0, 2.0, target)
        assert lens_area(d, 3.0, 2.0) == pytest.approx(target, rel=1e-9)

    def test_lens_larger_than_small_circle_rejected(self):
        with pytest.raises(ValueError):
            solve_center_distance(3.0, 2.0, math.pi * 4.0 + 0.1)

    def test_negative_lens_rejected(self):
        with pytest.raises(ValueError):
            solve_center_distance(3.0, 2.0, -0.1)


class TestTwoCircleLayout:
    def test_pixel_areas_proportional_to_ss(self, centered):
        v = venn_regions(centered, MODEL)
        c1, c2, cr = two_circle_layout(v, MODEL)
        # all four measurable regions against one scale
        scale = (math.pi * c1.r**2) / (v.unique[MODEL[0]] + v.common_total)
        assert (math.pi * c2.r**2) / scale == pytest.approx(
            v.unique[MODEL[1]] + v.common_total, rel=1e-6
        )
        assert (math.pi * cr.r**2) / scale == pytest.approx(v.residual, rel=1e-6)
        overlap = lens_area(c2.cx - c1.cx, c1.r, c2.r)
        assert overlap / scale == pytest.approx(v.common_total, rel=1e-6)

    def test_circles_share_a_horizontal_axis(self, centered):
        v = venn_regions(centered, MODEL)
        c1, c2, cr = two_circle_layout(v, MODEL)
        assert c1.cy == c2.cy == cr.cy
        assert c1.cx < c2.cx < cr.cx

    def test_orthogonal_design_draws_disjoint_circles(self, orthogonal_centered):
        c = orthogonal_centered
        # layout is defined for exactly two circles; use a 2-predictor view
        pair = c.predictor_names[:2]
        c1, c2, _ = two_circle_layout(venn_regions(c, pair), pair)
        assert c2.cx - c1.cx >= (c1.r + c2.r) * (1.0 - 1e-12)

    def test_fits_inside_canvas(self, centered):
        v = venn_regions(centered, MODEL)
        for c in two_circle_layout(v, MODEL):
            assert c.cx - c.r >= 0.0
            assert c.cx + c.r <= 660.0
            assert c.cy - c.r >= 0.0


class TestRenderedSvg:
    def test_geometric_document_structure(self, centered):
        svg = render_venn_svg(venn_regions(centered, MODEL), MODEL, "SALES")
        assert svg.startswith("<?xml")
        assert 'version="1.1"' in svg
        assert svg.count("<circle") == 3
        for label in ("region-TARGTPOP", "region-DISPOINC", "region-residual"):
            assert f'id="{label}"' in svg
        assert "SALES" in svg

    def test_legend_carries_formatted_region_values(self, centered):
        svg = render_venn_svg(venn_regions(centered, MODEL), MODEL, "SALES")
        assert "5,715.51" in svg  # unique region
        assert "643.48" in svg
        assert "17,656.30" in svg  # unaccounted remainder

    def test_byte_determinism(self, centered):
        v = venn_regions(centered, MODEL)
        assert render_venn_svg(v, MODEL, "SALES") == render_venn_svg(
            v, MODEL, "SALES"
        )

    def test_suppression_falls_back_to_text_panel(self, suppression_centered):
        c = suppression_centered
        v = venn_regions(c, c.predictor_names)
        svg = render_venn_svg(v, c.predictor_names, c.response_name)
        assert "<circle" not in svg
        assert "suppression" in svg
        assert svg.startswith("<?xml")

    def test_three_predictors_fall_back_to_text_panel(self, orthogonal_centered):
        c = orthogonal_centered
        v = venn_regions(c, c.predictor_names)
        svg = render_venn_svg(v, c.predictor_names, c.response_name)
        assert "<circle" not in svg
        assert "aggregate" in svg

    def test_one_predictor_gets_its_own_note(self, centered):
        svg = render_venn_svg(venn_regions(centered, ("TARGTPOP",)), ("TARGTPOP",), "SALES")
        assert "<circle" not in svg
        assert "one predictor" in svg
        assert "two predictors" not in svg

    def test_markup_escapes_label_text(self, centered):
        v = venn_regions(centered, MODEL)
        svg = render_venn_svg(v, MODEL, "a<b&c")
        assert "a&lt;b&amp;c" in svg
        assert "a<b" not in svg

    @pytest.mark.parametrize("name", ['a"b', "x<&>y"])
    @pytest.mark.parametrize("model", [2, 1], ids=["geometric", "aggregate"])
    def test_names_with_markup_characters_give_well_formed_svg(self, dwaine, name, model):
        # dwaine's predictors are positively correlated: two draw circles
        (_, a), (_, b), (_, y) = dwaine.columns
        names = (name, "c")[:model]
        c = mean_center(Dataset(((name, a), ("c", b), ("y", y)), "y", (name, "c")))
        root = ET.fromstring(render_venn_svg(venn_regions(c, names), names, "y"))
        ns = "{http://www.w3.org/2000/svg}"
        assert root.find(f"{ns}title").text == f"Variance regions: y ~ {', '.join(names)}"
        ids = [circle.get("id") for circle in root.iter(f"{ns}circle")]
        assert ids == ([f"region-{name}", "region-c", "region-residual"] if model == 2 else [])
        texts = [t.text for t in root.iter(f"{ns}text")]
        assert any(t.startswith(f"unique {name} = ") for t in texts)
