"""Binary tensor container: layout, round trips, fault injection."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fectek.checkpoint import ALIGN, MAGIC, VERSION, load_tensors, save_tensors
from fectek.errors import CorruptFileError


def test_round_trip_preserves_values_shapes_order(tmp_path, rng):
    entries = {
        "scalar": np.float64(3.25),
        "vector": rng.normal(size=7),
        "matrix": rng.normal(size=(3, 4)),
        "cube": rng.normal(size=(2, 2, 2)),
        "empty": np.zeros(0),
    }
    path = tmp_path / "t.ftck"
    save_tensors(path, entries)
    loaded = load_tensors(path)
    assert list(loaded) == list(entries)
    for name, original in entries.items():
        got = loaded[name]
        arr = np.asarray(original)
        assert got.shape == arr.shape, name
        assert np.array_equal(got, arr), name


def test_round_trip_is_bit_exact(tmp_path, rng):
    # Including values that expose any float mangling, in both dtypes.
    edge = np.array([0.0, -0.0, 1e-300, 1e300, np.pi, -np.e])
    entries = {"edge": edge, "edge32": np.array([0.0, -0.0, 1e-45, 3e38, np.pi], np.float32)}
    path = tmp_path / "t.ftck"
    save_tensors(path, entries)
    loaded = load_tensors(path)
    for name, original in entries.items():
        assert loaded[name].dtype == original.dtype, name
        assert loaded[name].tobytes() == original.tobytes(), name


def test_float32_stays_float32_and_everything_else_becomes_float64(tmp_path):
    entries = {
        "f32": np.arange(3, dtype=np.float32),
        "f64": np.arange(3, dtype=np.float64),
        "int": np.arange(3),
        "f16": np.arange(3, dtype=np.float16),
        "scalar": 2.5,
    }
    path = tmp_path / "t.ftck"
    save_tensors(path, entries)
    loaded = load_tensors(path)
    assert {name: a.dtype.name for name, a in loaded.items()} == {
        "f32": "float32", "f64": "float64", "int": "float64", "f16": "float64", "scalar": "float64"
    }
    for name, original in entries.items():
        assert np.array_equal(loaded[name], original), name


def test_save_is_deterministic(tmp_path, rng):
    entries = {"a": rng.normal(size=(4, 4)), "b": np.float64(1.0)}
    p1, p2 = tmp_path / "1.ftck", tmp_path / "2.ftck"
    save_tensors(p1, entries)
    save_tensors(p2, entries)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "t.ftck"
    save_tensors(path, {"x": np.float64(2.0), "yy": np.array([[1.5, -1.0, 3.0]], np.float32)})
    assert path.read_bytes() == (
        MAGIC
        + struct.pack("<II", 2, 2)  # version 2, two entries
        # "x": name, dtype 1 (float64), rank 0, 7 zero bytes up to offset 24, payload
        + struct.pack("<H", 1) + b"x" + bytes([1, 0]) + bytes(7) + struct.pack("<d", 2.0)
        # "yy" at 32: name, dtype 0 (float32), rank 2, dims, 2 zero bytes up to 56
        + struct.pack("<H", 2) + b"yy" + bytes([0, 2]) + struct.pack("<2Q", 1, 3) + bytes(2)
        + struct.pack("<3f", 1.5, -1.0, 3.0)
    )


def test_non_contiguous_input_serializes_logical_order(tmp_path, rng):
    base = rng.normal(size=(4, 6))
    view = base[:, ::2]
    path = tmp_path / "t.ftck"
    save_tensors(path, {"v": view})
    assert np.array_equal(load_tensors(path)["v"], view)


class TestFaultInjection:
    @pytest.fixture
    def good_blob(self, tmp_path, rng):
        path = tmp_path / "good.ftck"
        save_tensors(path, {"w": rng.normal(size=(2, 3)), "b": np.float64(0.5)})
        return path.read_bytes()

    def write(self, tmp_path, blob):
        path = tmp_path / "bad.ftck"
        path.write_bytes(blob)
        return path

    def test_bad_magic(self, tmp_path, good_blob):
        path = self.write(tmp_path, b"NOPE" + good_blob[4:])
        with pytest.raises(CorruptFileError, match="bad magic"):
            load_tensors(path)

    def test_unsupported_version(self, tmp_path, good_blob):
        blob = good_blob[:4] + struct.pack("<I", 99) + good_blob[8:]
        with pytest.raises(CorruptFileError, match="version"):
            load_tensors(self.write(tmp_path, blob))

    def test_truncated_payload_names_entry(self, tmp_path, good_blob):
        with pytest.raises(CorruptFileError, match="'w'"):
            load_tensors(self.write(tmp_path, good_blob[:-60]))

    def test_truncated_header(self, tmp_path, good_blob):
        with pytest.raises(CorruptFileError, match="truncated"):
            load_tensors(self.write(tmp_path, good_blob[:6]))

    def test_trailing_bytes(self, tmp_path, good_blob):
        with pytest.raises(CorruptFileError, match="trailing"):
            load_tensors(self.write(tmp_path, good_blob + b"\x00"))

    def test_duplicate_names(self, tmp_path, rng, good_blob):
        # Two entries claiming the same name: rebuild count=2 with a doubled body.
        body = good_blob[12:]
        # name_len + "w" + dtype + rank + dims + padding + data: 88 bytes,
        # so the copy's payload is aligned as the first one's.
        first_entry_len = 2 + 1 + 1 + 1 + 2 * 8 + 7 + 6 * 8
        entry = body[:first_entry_len]
        blob = good_blob[:4] + struct.pack("<II", VERSION, 2) + entry + entry
        with pytest.raises(CorruptFileError, match="duplicate"):
            load_tensors(self.write(tmp_path, blob))

    def test_non_utf8_name(self, tmp_path):
        blob = MAGIC + struct.pack("<II", VERSION, 1)
        blob += struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<B", 0)
        blob += struct.pack("<d", 1.0)
        with pytest.raises(CorruptFileError, match="UTF-8"):
            load_tensors(self.write(tmp_path, blob))

    def test_empty_file(self, tmp_path):
        with pytest.raises(CorruptFileError):
            load_tensors(self.write(tmp_path, b""))

    @pytest.mark.parametrize(
        "dims", [(0, 2**63), (0,) * 65], ids=["dimension-past-numpy-limit", "rank-65"]
    )
    def test_impossible_empty_shape_names_file_and_entry(self, tmp_path, dims):
        # A zero dimension makes the payload empty, so only the reshape
        # can see that numpy cannot hold the shape.
        blob = MAGIC + struct.pack("<II", VERSION, 1)
        blob += struct.pack("<H", 1) + b"w" + struct.pack("<BB", 1, len(dims))
        blob += struct.pack(f"<{len(dims)}Q", *dims)
        blob += bytes(-len(blob) % ALIGN)
        path = self.write(tmp_path, blob)
        with pytest.raises(CorruptFileError, match=rf"bad\.ftck: entry 'w' .*rank {len(dims)}"):
            load_tensors(path)


# Byte spans of {"w": float32 [2, 5], "t": float64 [2, 1, 2]}: magic 0-4,
# header 4-12, then "w" at 12-80 and "t" at 80-144 (name length 2 bytes,
# name 1, dtype 1, rank 1, dims 8 per axis, zero padding up to a multiple
# of 8, payload 4 or 8 per value; "t" pads 109-112).  Each cut ends inside
# one field.
@pytest.mark.parametrize(
    "cut, field",
    [
        (2, "magic"),
        (9, "header"),
        (81, "entry 1 name length"),
        (82, "entry 1 name"),
        (83, "entry 't' dtype"),
        (84, "entry 't' rank"),
        (96, "entry 't' dims"),
        (110, "entry 't' padding"),
        (130, "entry 't' payload"),
    ],
)
def test_truncation_names_the_field(tmp_path, rng, cut, field):
    path = tmp_path / "t.ftck"
    entries = {"w": rng.normal(size=(2, 5)).astype(np.float32), "t": rng.normal(size=(2, 1, 2))}
    save_tensors(path, entries)
    blob = path.read_bytes()
    assert len(blob) == 144
    path.write_bytes(blob[:cut])
    with pytest.raises(CorruptFileError) as info:
        load_tensors(path)
    assert str(info.value) == f"{path}: truncated while reading {field}"


def test_dims_past_any_memory_report_a_truncated_payload(tmp_path):
    path = tmp_path / "t.ftck"
    blob = MAGIC + struct.pack("<II", VERSION, 1)
    blob += struct.pack("<H", 1) + b"w" + struct.pack("<BB2Q", 0, 2, 2**40, 2**40) + bytes(7)
    path.write_bytes(blob)
    with pytest.raises(CorruptFileError) as info:
        load_tensors(path)
    assert str(info.value) == f"{path}: truncated while reading entry 'w' payload"


@given(
    st.lists(
        st.tuples(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1,
                max_size=12,
            ),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda pair: pair[0],
    ),
    st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_random_entry_sets_round_trip(tmp_path_factory, specs, seed):
    rng = np.random.default_rng(seed)
    # Alternate dtypes: a float32 payload of odd length ends at 4 mod 8.
    entries = {
        name: rng.normal(size=size).astype(np.float32 if i % 2 else np.float64)
        for i, (name, size) in enumerate(specs)
    }
    path = tmp_path_factory.mktemp("ckpt") / "t.ftck"
    save_tensors(path, entries)
    loaded = load_tensors(path)
    assert list(loaded) == list(entries)
    for name in entries:
        assert loaded[name].dtype == entries[name].dtype
        assert np.array_equal(loaded[name], entries[name])
        # A writable view of the file's buffer, aligned for its dtype.
        assert loaded[name].flags.writeable and loaded[name].ctypes.data % ALIGN == 0
