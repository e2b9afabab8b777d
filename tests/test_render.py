from xml.etree import ElementTree

from oracles import barcode_of
from ripsbars.persistence import Bar
from ripsbars.render import BAND_HEIGHT, WIDTH, barcode_svg


def make_barcode(bars, normalized=True, span_end=1.0):
    return barcode_of(
        tuple(bars),
        metric="euclidean",
        max_dim=2,
        n_points=4,
        normalized=normalized,
        span_end=span_end,
    )


def test_svg_parses_and_sizes_by_top_dimension():
    bc = make_barcode(
        [
            Bar(dim=0, birth=0.0, death=1.0, open=True),
            Bar(dim=1, birth=0.5, death=0.8),
        ]
    )
    text = barcode_svg(bc)
    root = ElementTree.fromstring(text)
    assert root.get("width") == str(WIDTH)
    assert root.get("height") == str(2 * BAND_HEIGHT)


def test_svg_empty_barcode_still_has_h0_band():
    text = barcode_svg(make_barcode([]))
    root = ElementTree.fromstring(text)
    assert root.get("height") == str(BAND_HEIGHT)
    assert ">H0<" in text


def test_open_bars_are_dashed_and_reach_the_right_edge():
    bc = make_barcode(
        [
            Bar(dim=0, birth=0.0, death=1.0, open=True),
            Bar(dim=0, birth=0.0, death=0.25),
        ]
    )
    lines = barcode_svg(bc).splitlines()
    dashed = [l for l in lines if "stroke-dasharray" in l]
    assert len(dashed) == 1
    assert 'x2="760"' in dashed[0]  # WIDTH - MARGIN_X


def test_axis_labels_follow_raw_scale():
    bc = make_barcode(
        [Bar(dim=0, birth=0.0, death=3.0)], normalized=False, span_end=4.0
    )
    text = barcode_svg(bc)
    assert ">2<" in text  # midpoint tick of [0, 4]
    assert ">4<" in text


def test_svg_embeds_version_and_config():
    text = barcode_svg(make_barcode([]), config={"command": "persist"})
    assert "<!-- ripsbars-version" in text
    assert '"command":"persist"' in text


def test_identical_input_identical_output():
    bc = make_barcode([Bar(dim=1, birth=0.1, death=0.9)])
    assert barcode_svg(bc) == barcode_svg(bc)
