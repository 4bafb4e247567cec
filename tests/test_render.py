from parkfact.arch import sigma_diagram
from parkfact.factorizations import parse_factorization
from parkfact.parking import MajorSequence, ParkingFunction, bounce, to_path
from parkfact.permutations import parse_full_cycle
from parkfact.render import (
    render_arch_ascii,
    render_arch_svg,
    render_path_ascii,
    render_path_svg,
)

P9 = ParkingFunction((1, 3, 1, 7, 0, 7, 0, 1, 4))
WORKED_DIAGRAM = sigma_diagram(
    parse_factorization("(1 4)(1 5)(3 4)(0 2)(0 4)", 5),
    parse_full_cycle("0 2 4 5 1 3"),
)


class TestPathRender:
    def test_ascii_contains_labels_and_axis(self):
        out = render_path_ascii(to_path(P9))
        lines = out.splitlines()
        assert len(lines) == 10  # 9 rows plus axis
        flat = out.replace(" ", "")
        for label in "123456789":
            assert label in flat

    def test_ascii_empty(self):
        assert "empty" in render_path_ascii(to_path(ParkingFunction(())))

    def test_ascii_bounce_marks(self):
        contacts, _ = bounce(P9)
        out = render_path_ascii(to_path(P9), contacts)
        assert " b" in out

    def test_ascii_above_side(self):
        out = render_path_ascii(to_path(MajorSequence((2, 1))))
        assert "1" in out and "2" in out

    def test_svg_structure(self):
        out = render_path_svg(to_path(P9))
        assert out.startswith("<svg ")
        assert out.rstrip().endswith("</svg>")
        assert "<polyline" in out
        assert out.count("<text") == 9

    def test_svg_bounce_path(self):
        contacts, _ = bounce(P9)
        out = render_path_svg(to_path(P9), contacts)
        assert "#cc0000" in out

    def test_deterministic(self):
        assert render_path_svg(to_path(P9)) == render_path_svg(to_path(P9))
        assert render_path_ascii(to_path(P9)) == render_path_ascii(to_path(P9))


class TestArchRender:
    def test_ascii_rows(self):
        out = render_arch_ascii(WORKED_DIAGRAM, parse_full_cycle("0 2 4 5 1 3"))
        lines = out.splitlines()
        assert len(lines) == 7  # five arcs, axis, vertex labels
        assert lines[-1].split() == ["0", "2", "4", "5", "1", "3"]
        assert out.count("/") == 5 and out.count("\\") == 5

    def test_ascii_without_sigma(self):
        out = render_arch_ascii(WORKED_DIAGRAM)
        assert out.splitlines()[-1].split() == ["0", "1", "2", "3", "4", "5"]

    def test_svg_structure(self):
        out = render_arch_svg(WORKED_DIAGRAM, parse_full_cycle("0 2 4 5 1 3"))
        assert out.count("<path") == 5
        assert out.count("<circle") == 6
        assert out.rstrip().endswith("</svg>")

    def test_deterministic(self):
        a = render_arch_svg(WORKED_DIAGRAM)
        b = render_arch_svg(WORKED_DIAGRAM)
        assert a == b
