import xml.etree.ElementTree as ET

import numpy as np
import pytest

from feddl.plotting import PALETTE, emit_scatter_svg

SVG = "{http://www.w3.org/2000/svg}"


def _circles(path):
    root = ET.parse(path).getroot()
    return root, root.findall(f"{SVG}circle")


def test_empty_embedding_is_valid_svg(tmp_path):
    p = tmp_path / "s.svg"
    emit_scatter_svg(p, np.empty((0, 2)))
    root, circles = _circles(p)
    assert root.tag == f"{SVG}svg"
    assert circles == []  # no points, no legend entries


def test_single_point_is_centered(tmp_path):
    p = tmp_path / "s.svg"
    emit_scatter_svg(p, np.array([[3.0, -7.0]]))
    root, circles = _circles(p)
    # one data circle plus one legend swatch
    data = [c for c in circles if c.get("fill-opacity")]
    assert len(data) == 1
    w, h = float(root.get("width")), float(root.get("height"))
    assert float(data[0].get("cx")) == pytest.approx(w / 2)
    assert float(data[0].get("cy")) == pytest.approx(h / 2)


def test_labels_get_distinct_palette_colors_and_legend(tmp_path):
    p = tmp_path / "s.svg"
    Z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    emit_scatter_svg(p, Z, labels=[0, 0, 1, 2], title="three groups")
    root, circles = _circles(p)
    data = [c for c in circles if c.get("fill-opacity")]
    assert [c.get("fill") for c in data] == [
        PALETTE[0],
        PALETTE[0],
        PALETTE[1],
        PALETTE[2],
    ]
    texts = [t.text for t in root.findall(f"{SVG}text")]
    assert "three groups" in texts
    assert {"0", "1", "2"} <= set(texts)  # legend entries


def test_title_and_labels_are_escaped(tmp_path):
    p = tmp_path / "s.svg"
    Z = np.array([[0.0, 0.0], [1.0, 1.0]])
    emit_scatter_svg(p, Z, labels=["a<b", "c&d"], title="A & B <x>")
    root, _ = _circles(p)  # parses only well-formed XML
    texts = [t.text for t in root.findall(f"{SVG}text")]
    assert texts == ["A & B <x>", "a<b", "c&d"]


def test_plain_title_keeps_its_bytes(tmp_path):
    p = tmp_path / "s.svg"
    emit_scatter_svg(p, np.zeros((1, 2)), title="fed-tsne")
    assert b'font-size="14">fed-tsne</text>' in p.read_bytes()


def test_quotes_in_text_keep_their_bytes(tmp_path):
    # only &, < and > are escaped in element text, as in every earlier SVG
    p = tmp_path / "s.svg"
    emit_scatter_svg(p, np.zeros((1, 2)), labels=["'b'"], title='it\'s "q" & <x>')
    svg = p.read_bytes()
    assert b'font-size="14">it\'s "q" &amp; &lt;x&gt;</text>' in svg
    assert b'font-size="12">\'b\'</text>' in svg


def test_byte_stable_for_fixed_input(tmp_path, rng):
    Z = rng.normal(size=(30, 2))
    labels = rng.integers(0, 3, size=30)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_scatter_svg(a, Z, labels=labels, title="t")
    emit_scatter_svg(b, Z, labels=labels, title="t")
    assert a.read_bytes() == b.read_bytes()


def test_rejects_bad_shapes(tmp_path):
    with pytest.raises(ValueError, match="n x >=2"):
        emit_scatter_svg(tmp_path / "s.svg", np.zeros(3))
    with pytest.raises(ValueError, match="n x >=2"):
        emit_scatter_svg(tmp_path / "s.svg", np.zeros((3, 1)))


def test_extra_dimensions_ignored(tmp_path):
    p = tmp_path / "s.svg"
    emit_scatter_svg(p, np.zeros((2, 5)))  # only first two columns plotted
    _, circles = _circles(p)
    assert len([c for c in circles if c.get("fill-opacity")]) == 2
