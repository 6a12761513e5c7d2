"""Property tests: garbage or truncated input files fail only with ValueError.

ValueError covers SteinerParseError, SteinerInvariantError and
UnicodeDecodeError.  Any other exception escaping a loader fails the test.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tetracomm import steiner
from tetracomm.cli import fixtures_dir
from tetracomm.tensor_core import (
    TENSOR_MAGIC,
    VECTOR_MAGIC,
    load_tensor,
    load_vector,
    random_symmetric,
    random_vector,
    save_tensor,
    save_vector,
)

FUZZ = settings(max_examples=40, deadline=None)
LOADERS = {"tensor": load_tensor, "vector": load_vector, "steiner": steiner.load}


def load_bytes(loader, data: bytes) -> None:
    """Load data from a file; return on success or ValueError, raise anything else."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input"
        path.write_bytes(data)
        try:
            loader(path)
        except ValueError:
            pass


def valid_files() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as d:
        save_tensor(random_symmetric(5, 1), Path(d) / "t")
        save_vector(random_vector(7, 2), Path(d) / "v")
        return {
            "tensor": (Path(d) / "t").read_bytes(),
            "vector": (Path(d) / "v").read_bytes(),
            "steiner": (fixtures_dir() / "steiner_10_4_3.txt").read_bytes(),
        }


VALID = valid_files()


@FUZZ
@given(kind=st.sampled_from(sorted(LOADERS)), data=st.binary(max_size=200))
def test_random_bytes(kind, data):
    load_bytes(LOADERS[kind], data)


@FUZZ
@given(
    kind=st.sampled_from(["tensor", "vector"]),
    n=st.integers(0, 2**64 - 1),
    payload=st.binary(max_size=64),
)
def test_binary_header_with_any_length(kind, n, payload):
    magic = TENSOR_MAGIC if kind == "tensor" else VECTOR_MAGIC
    load_bytes(LOADERS[kind], magic + n.to_bytes(8, "little") + payload)


@FUZZ
@given(
    n=st.one_of(st.integers(-5, 30), st.integers(258, 10**30)),
    r=st.integers(-2, 12),
    blocks=st.lists(st.lists(st.integers(-1, 31), max_size=8), max_size=12),
)
def test_steiner_header_and_random_blocks(n, r, blocks):
    text = f"steiner {n} {r} 3\n" + "".join(" ".join(map(str, b)) + "\n" for b in blocks)
    load_bytes(steiner.load, text.encode())


@FUZZ
@given(kind=st.sampled_from(sorted(LOADERS)), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_valid_file(kind, cut):
    data = VALID[kind]
    load_bytes(LOADERS[kind], data[: int(cut * len(data))])


def test_untruncated_files_load():
    for kind, loader in LOADERS.items():
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "input"
            path.write_bytes(VALID[kind])
            assert loader(path) is not None
