"""CSV round trips for binary and real-valued paths, plus the SVG emitter."""

import math
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copulachain.chain import BinaryPath, ModelParams, RealPath, simulate_bernoulli_chain, simulate_uniform_chain
from copulachain.errors import DomainError, EmptyData
from copulachain.pathio import _canonical_binary, path_from_csv, path_to_csv, read_path_csv, write_path_csv
from copulachain.svgchart import emit_svg

from oracles import path_from_csv_reference, path_to_csv_reference


def test_csv_header_and_shape():
    path = simulate_bernoulli_chain(ModelParams(0.4, 0.3), 5, 0)
    text = path_to_csv(path)
    lines = text.strip().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 7


@given(st.integers(0, 2**32))
def test_binary_roundtrip(seed):
    path = simulate_bernoulli_chain(ModelParams(0.6, 0.4), 37, seed)
    back = path_from_csv(path_to_csv(path))
    assert isinstance(back, BinaryPath)
    assert np.array_equal(back.states, path.states)


def test_real_roundtrip_is_exact():
    path = simulate_uniform_chain(0.7, 23, 5)
    back = path_from_csv(path_to_csv(path))
    assert isinstance(back, RealPath)
    assert np.array_equal(back.states, path.states)  # repr round trip, bit exact


def test_file_roundtrip(tmp_path):
    path = simulate_bernoulli_chain(ModelParams(0.5, 0.5), 40, 9)
    target = tmp_path / "walk.csv"
    write_path_csv(path, str(target))
    back = read_path_csv(str(target))
    assert np.array_equal(back.states, path.states)


def test_zero_one_floats_load_as_binary():
    text = "t,x\n0,0.0\n1,1.0\n2,0.0\n"
    assert isinstance(path_from_csv(text), BinaryPath)


def test_real_values_load_as_real():
    text = "t,x\n0,0.25\n1,0.75\n2,0.25\n"
    assert isinstance(path_from_csv(text), RealPath)


def test_bad_csv_rejected():
    with pytest.raises(EmptyData):
        path_from_csv("t,x\n")
    with pytest.raises(DomainError):
        path_from_csv("t,x\n0,0\n1,2\n")
    with pytest.raises(DomainError):
        path_from_csv("a,b\n0,0\n1,1\n")


def test_svg_is_deterministic_and_well_formed():
    pts = [(k, 0.5 + 0.01 * k) for k in range(10)]
    one = emit_svg([("series", pts)], title="demo", xlabel="lag", ylabel="value")
    two = emit_svg([("series", pts)], title="demo", xlabel="lag", ylabel="value")
    assert one == two
    assert one.startswith("<svg") and one.rstrip().endswith("</svg>")
    assert "demo" in one and "lag" in one and "value" in one


def test_svg_escapes_its_text():
    svg = emit_svg([("a<b & c", [(0, 0), (1, 1)])], title="P(X<x)", xlabel="x & y", ylabel="<y>")
    texts = [e.text for e in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert {"a<b & c", "P(X<x)", "x & y", "<y>"} <= set(texts)


def test_svg_rejects_empty_input():
    with pytest.raises(EmptyData):
        emit_svg([("nothing", [])])
    with pytest.raises(EmptyData):
        emit_svg([("undefined", [(0.1, math.nan), (math.inf, 1.0)])])


def test_svg_leaves_out_points_that_are_not_finite():
    finite = [("one", [(0.1, 1.0), (0.5, 2.0)]), ("two", [(0.1, 1.5)])]
    holes = [("one", [(0.1, 1.0), (0.3, math.nan), (0.5, 2.0)]), ("two", [(0.1, 1.5), (math.inf, 3.0), (0.7, -math.inf)])]
    assert emit_svg(holes, title="t") == emit_svg(finite, title="t")


def test_svg_keeps_the_legend_entry_of_an_undefined_series():
    one = [("one", [(0.1, 1.0), (0.5, 2.0)])]
    svg = emit_svg([*one, ("two & three", [(0.1, math.nan)])], title="t")
    alone = emit_svg(one, title="t").splitlines()
    lines = svg.splitlines()
    # the defined series is drawn as it is alone; the other one adds one text line
    assert [line for line in lines if line not in alone] == [lines[-2]]
    assert ElementTree.fromstring(svg)[-1].text == "two & three (no finite points)"


# Differential checks against the row-by-row csv module reader and writer
# kept in tests/oracles.py: same bytes written, and on every text the same
# path class, states and dtype, or the same exception with the same message.


def _outcome(read, text):
    try:
        path = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(path), path.states.dtype, path.states.tobytes()


def _same_read(text):
    got, want = _outcome(path_from_csv, text), _outcome(path_from_csv_reference, text)
    assert got == want, (text[:200], got[:2], want[:2])
    return got


@given(st.integers(0, 2**32), st.integers(1, 300), st.floats(0.01, 0.99))
def test_writes_match_reference(seed, n, a):
    for path in (simulate_bernoulli_chain(ModelParams(a, 0.3), n, seed), simulate_uniform_chain(a, n, seed)):
        text = path_to_csv(path)
        assert text == path_to_csv_reference(path)
        assert _same_read(text)[0] is type(path)


PAD = " " * 70_000  # a line longer than csv.field_size_limit(), with short fields
ACCEPTED = [
    '"t","x"\n"0","1"\n1,"0"\n"2",0\n',
    't,x\n"0\n",1\n1,0\n',
    "t,x\r\n0,1\r\n1,0\r\n",
    "t,x\r\n0,1\r\n1,0\r",
    "t,x\r\r\n0,1\r\r\n1,0\n",
    " t , x \n 0 , 1\n1 ,0 \n+2,\t1\n",
    "t,x\n\n0,1\n\n\n1,0\n\n",
    "t,x\n0,1\n1,0",
    "t,x\n0,0.0\n1,1.0\n2,1\n",
    "t,x\n0,1e0\n1,0E0\n2,-0.0\n",
    "t,x\n0,0.1\n1,0.30000000000000004\n2,1e-300\n3,5e-324\n4,0.9999999999999999\n",
    "t,x\n00,0\n0_1,1\n٢,0.5\n",
    f"t,x\n{PAD}0,1{PAD}\n1,1\n",
    "t,x\n0,-0\n1,+1.0\n2,1.00000000000000001\n3,0e-999\n",
    "t,x\n0,1\n1,1e-400\n2,0.99999999999999999\n",
    "t,x\n0,0\n1,1\n2,0.5\n",
]
REJECTED = [
    "",
    "\n",
    "\r\n",
    "t,x\n",
    "t,x",
    "t,x\n\n\n",
    "a,b\n0,1\n",
    "t,x,y\n0,1,2\n",
    "t\n0\n",
    "\n0,1\n",
    "t,x\n0\n",
    "t,x\n0,1\n1,0,1\n",
    "t,x\n0,1\n \n",
    "t,x\n0,1,\n",
    "t,x\n0,1\n1.0,0\n",
    "t,x\n0,1\n,0\n",
    "t,x\n0,1\n1,abc\n",
    "t,x\n0,\n",
    "t,x\n0,1\n2,0\n",
    "t,x\n1,0\n",
    f"t,x\n{'9' * 30},0\n",
    "t,x\n0,nan\n1,0.5\n",
    "t,x\n0,inf\n1,0\n",
    "t,x\n0,-0.5\n1,0.5\n",
    "t,x\n0,1\n5,0\n2,abc\n",
    "t,x\n0,abc\n1,0,0\n",
    "t,x\n0,1\n1,0,0\n2,abc\n",
    'a,"b\n0,1\n',
    "t,x\n0,1\r1,0\n",
    "t,x\n0,abc\n1,0\r2\n",
    "t,x\r0,1\n",
    "t,x\n0,1\x00\n1,0\n",
    "t,x\n0,1\n1,0\n2,0x1\n",
    f"t,x\n0,{'1' * 140_000}\n",
    f"t,x\n0,{'1' * 140_000}\n1,a\n",
    "t,x\n0,\ud800\n",
]


@pytest.mark.parametrize("text", ACCEPTED, ids=range(len(ACCEPTED)))
def test_reads_match_reference_on_accepted_text(text):
    assert _same_read(text)[0] in (BinaryPath, RealPath)


@pytest.mark.parametrize("text", REJECTED, ids=range(len(REJECTED)))
def test_reads_match_reference_on_rejected_text(text):
    assert issubclass(_same_read(text)[0], Exception)


@given(
    st.sampled_from(["", "t,x\n", "t,x\r\n", '"t",x\n']),
    st.text(alphabet='01289,\n\r" .e-_tx\x00', max_size=40),
)
def test_reads_match_reference_on_random_text(header, body):
    _same_read(header + body)


# A file is read as the text it holds: read_path_csv translates no line ends.


@pytest.mark.parametrize(
    "text",
    ACCEPTED + REJECTED,
    ids=[f"accepted-{i}" for i in range(len(ACCEPTED))] + [f"rejected-{i}" for i in range(len(REJECTED))],
)
def test_files_read_as_their_text(tmp_path, text):
    target = tmp_path / "path.csv"
    try:
        target.write_text(text, encoding="utf-8", newline="")
    except UnicodeEncodeError:
        # a lone surrogate: no UTF-8 file holds this text, and its bytes do not decode
        target.write_bytes(text.encode("utf-8", "surrogatepass"))
        with pytest.raises(UnicodeDecodeError):
            read_path_csv(str(target))
        return
    assert _outcome(read_path_csv, str(target)) == _outcome(path_from_csv, text)


# Around each power of ten the encoder starts a block one digit wider.  The
# last row of each path sits on such an edge, and each edit below makes the
# text differ from the encoder's bytes, so it is read by the csv.reader loop.
WIDTH_EDGES = [9, 10, 99, 100, 999, 1_000, 9_999, 10_000, 99_999]


def _edits(text):
    body, last = text[:-1].rsplit("\n", 1)  # last = "n,x", the row of t = n
    before = body.rsplit("\n", 1)[0]  # body without the row of t = n - 1
    n, x = last.split(",")
    return {
        "leading_zero": f"{body}\n0{last}\n",
        "skipped_t": f"{before}\n{last}\n",
        "state_2": f"{body}\n{n},2\n",
        "crlf_line": f"{body}\n{last}\r\n",
        "no_final_newline": text[:-1],
        "trailing_blank_line": text + "\n",
        "non_ascii": f"{body}\n{n},{chr(0x660 + int(x))}\n",  # an Arabic-Indic digit
        "spaced_header": "t, x" + text[3:],
    }


def _edge_path(n):
    return simulate_bernoulli_chain(ModelParams(0.5, 0.3), n, n)


@pytest.mark.parametrize("n", WIDTH_EDGES)
def test_width_edges_match_reference(n):
    path = _edge_path(n)
    text = path_to_csv(path)
    assert text == path_to_csv_reference(path)
    assert _canonical_binary(text) is not None
    assert _same_read(text)[0] is BinaryPath


@pytest.mark.parametrize("n", [n for n in WIDTH_EDGES if n <= 10_000])
def test_edited_width_edges_take_the_loop(n):
    for edit, text in _edits(path_to_csv(_edge_path(n))).items():
        assert _canonical_binary(text) is None, edit
        _same_read(text)
