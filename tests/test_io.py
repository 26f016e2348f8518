"""DOT export of classified inputs."""

from __future__ import annotations

from tanglekit.classify import classify
from tanglekit.families import build_family
from tanglekit.io import export_dot

from test_families import c4_part_wheel, k4_fat_triangle


def test_export_dot_titles_with_verdict_and_codes():
    o = build_family(c4_part_wheel())
    report = classify(o)
    dot = export_dot(o, report)
    assert f'label="tangled: {" ".join(report.codes())}";' in dot
    assert "T1b" in report.codes()


def test_export_dot_tags_role_vertices():
    d = k4_fat_triangle()
    o = build_family(d)
    report = classify(o, first=True)
    assert report.codes() == ("T1d",)
    dot = export_dot(o, report)
    corners = report.labels[0].descriptor.roles["v"]
    for v in o.graph.vertices:
        assert (f'  {v} [label="{v}\\ncorner"];' if v in corners else f"  {v};") in dot
