"""Deterministic SVG scene rendering."""

import re

from sectorlab.geometry import SectorDisc
from sectorlab.svgplot import render_scene


def test_render_is_byte_deterministic():
    kwargs = dict(before=[1 + 1j, 1 - 1j], after=[2.8 + 0j],
                  discs=[SectorDisc(1.8, 1.2)], sector_angle=0.785,
                  predicted_angle=0.3, annotations=["alpha=0.5"])
    assert render_scene(**kwargs) == render_scene(**kwargs)


def test_document_shape():
    svg = render_scene(before=[1 + 1j])
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                          'width="800" height="800"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<svg") == 1


def test_fixed_point_coordinates():
    svg = render_scene(before=[0.123456789 + 0.987654321j], after=[-1.5 - 2.25j],
                       discs=[SectorDisc(0.5, 0.25)])
    for m in re.finditer(r'(?:cx|cy|x1|y1|x2|y2)="([^"]+)"', svg):
        assert re.fullmatch(r"-?\d+\.\d{4}", m.group(1)), m.group(1)
    assert "-0.0000" not in svg


def test_element_counts_and_order():
    svg = render_scene(before=[1 + 1j, 1 - 1j], after=[2 + 0j],
                       discs=[SectorDisc(1.0, 0.5), SectorDisc.empty_disc()],
                       sector_angle=0.7)
    # 2 axes + 2 sector rays
    assert svg.count("<line") == 4
    # 1 live disc (empty one skipped) + 2 hollow before + 1 filled after
    assert svg.count("<circle") == 4
    assert svg.index('stroke="#888888"') < svg.index('stroke="#1f6f43"')
    assert svg.index('stroke="#1f6f43"') < svg.index("<circle")
    hollow = svg.index('r="5.0"')
    filled = svg.index('r="3.5"')
    assert svg.index("fill-opacity") < hollow < filled


def test_predicted_rays_are_dashed():
    svg = render_scene(sector_angle=0.7, predicted_angle=0.2)
    assert svg.count("stroke-dasharray") == 2


def test_annotations_in_order():
    svg = render_scene(annotations=["first", "second"])
    assert svg.count("<text") == 2
    assert svg.index(">first<") < svg.index(">second<")


def test_view_limit_covers_discs():
    near = render_scene(after=[1 + 0j])
    far = render_scene(after=[1 + 0j], discs=[SectorDisc(10.0, 2.0)])
    # the same zero lands nearer the center once the disc widens the view
    cx_near = float(re.search(r'<circle cx="([^"]+)"', near).group(1))
    cx_far = float(re.search(r'r="3.5"', far) and
                   re.findall(r'<circle cx="([^"]+)"', far)[-1])
    assert abs(cx_far - 400.0) < abs(cx_near - 400.0)
