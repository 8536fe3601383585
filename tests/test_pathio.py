"""CSV round trips for binary and real-valued paths, plus the SVG emitter."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copulachain.chain import BinaryPath, ModelParams, RealPath, simulate_bernoulli_chain, simulate_uniform_chain
from copulachain.errors import DomainError, EmptyData
from copulachain.pathio import path_from_csv, path_to_csv, read_path_csv, write_path_csv
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


def test_svg_rejects_empty_input():
    with pytest.raises(EmptyData):
        emit_svg([("nothing", [])])


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

