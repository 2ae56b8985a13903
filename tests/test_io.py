import csv
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from deformclass import (
    ConfigError,
    DataError,
    Dataset,
    DeformClassError,
    DeformDistribution,
    GrayImage,
    cross,
    generate_dataset,
    parse_idx_images,
    read_dataset,
    read_pgm,
    tent,
    write_dataset,
    write_pgm,
)
from deformclass.io import read_bytes, write_bytes

IMAGE_MAGIC = b"\x00\x00\x08\x03"


def tiny_image_file() -> bytes:
    return IMAGE_MAGIC + struct.pack(">3I", 1, 2, 2) + bytes([0, 255, 128, 0])


@pytest.fixture(scope="module")
def pgm_safe_dataset(tent_template, cross_template):
    # amplitudes kept below 1 so byte quantization is the only loss
    q = DeformDistribution(eta_range=(0.7, 0.9), xi_range=(1.0, 1.4), seed=3)
    return generate_dataset([tent_template], [cross_template], q, n=6, d=16)


class TestIdxImages:
    def test_grids_are_views_of_one_frozen_block(self):
        # the quotients are computed once, as one block, and not copied again
        data = (b"\x00\x00\x08\x03" + struct.pack(">3I", 3, 2, 2)
                + bytes(range(12)))
        images = parse_idx_images(data)
        block = images[0].pixels.base
        assert block is not None and not block.flags.writeable
        assert all(img.pixels.base is block for img in images)
        assert np.array_equal(block, np.arange(12.0).reshape(3, 2, 2) / 255)

    def test_pixels_are_read_in_place(self):
        # the payload is read where it lies, not sliced off into a copy
        n, side = 4, 128
        data = (IMAGE_MAGIC + struct.pack(">3I", n, side, side)
                + bytes(range(256)) * (n * side * side // 256))
        tracemalloc.start()
        try:
            images = parse_idx_images(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(images) == n
        assert peak < 4.75 * side * side * 8

    def test_hand_decoded_pixels(self):
        (img,) = parse_idx_images(tiny_image_file())
        assert img.pixels[0, 0] == 0.0
        assert img.pixels[0, 1] == 1.0
        assert img.pixels[1, 0] == 0.5019607843137255
        assert img.pixels[1, 1] == 0.0

    def test_bad_magic(self):
        with pytest.raises(DataError, match=r"^magic .*, expected"):
            parse_idx_images(b"\x00\x00\x08\x01" + tiny_image_file()[4:])

    def test_truncations(self):
        data = tiny_image_file()
        with pytest.raises(DataError, match="no room for magic"):
            parse_idx_images(data[:2])
        with pytest.raises(DataError, match="inside the dimension list"):
            parse_idx_images(data[:10])
        with pytest.raises(DataError, match="payload has 3 bytes, expected 4"):
            parse_idx_images(data[:-1])

    def test_non_square_rejected(self):
        for dims, size in (((1, 2, 3), 6), ((1, 0, 0), 0)):
            data = IMAGE_MAGIC + struct.pack(">3I", *dims) + bytes(size)
            with pytest.raises(DataError, match="must be square and non-empty"):
                parse_idx_images(data)


class TestPgm:
    def test_grid_is_not_copied_again(self):
        # the quotient is computed once and frozen, not copied again
        data = b"P5\n256 256\n255\n" + bytes(range(256)) * 256
        tracemalloc.start()
        try:
            img = read_pgm(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * img.pixels.nbytes
        assert not img.pixels.flags.writeable

    def test_fixed_policy_bytes(self):
        img = GrayImage(np.array([[1.0]]))
        assert write_pgm(img, "fixed") == b"P5\n1 1\n255\n\xff"

    def test_image_max_rescales(self):
        img = GrayImage(np.array([[0.5, 0.25], [0.0, 0.5]]))
        data = write_pgm(img, "image_max")
        back = read_pgm(data)
        assert back.pixels[0, 0] == 1.0

    def test_all_zero_image_max_warns(self):
        with pytest.warns(UserWarning):
            data = write_pgm(GrayImage(np.zeros((2, 2))), "image_max")
        assert read_pgm(data).pixels.max() == 0.0

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown max_val policy 'stretch'"):
            write_pgm(GrayImage(np.zeros((2, 2))), "stretch")

    def test_comment_tolerated(self):
        data = b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255])
        img = read_pgm(data)
        assert img.pixels[1, 1] == 1.0

    def test_comment_between_every_token(self):
        data = (b"# leading\nP5# not a comment start\n#a\n2#b\n# c d\n2\n#\n"
                b"255\n" + bytes([0, 64, 128, 255]))
        with pytest.raises(DataError, match=r"PGM magic b'P5#"):
            read_pgm(data)  # '#' inside a token belongs to the token
        data = (b"# leading\nP5\n#a\n2\n# c d\n2 #e\t#f\n#\n255\n"
                + bytes([0, 64, 128, 255]))
        assert read_pgm(data).pixels[1, 1] == 1.0

    def test_tab_and_cr_whitespace(self):
        img = read_pgm(b"P5\t2\r2\r\n\t255\r" + bytes([255, 0, 0, 51]))
        assert img.pixels.tolist() == [[1.0, 0.0], [0.0, 0.2]]
        # exactly one whitespace byte ends the header; "\r\n" leaves the
        # "\n" in the body
        with pytest.raises(DataError, match="payload has 5 bytes"):
            read_pgm(b"P5 2 2 255\r\n" + bytes(4))

    def test_unterminated_comment_is_truncation(self):
        # a comment runs to the next newline, here the end of the data
        for data in (b"P5 2 2 #255 \x00\x00\x00\x00", b"P5 2 #2 255",
                     b"#P5 2 2 255 ab"):
            with pytest.raises(DataError, match="header ended early"):
                read_pgm(data)

    def test_read_errors(self):
        with pytest.raises(DataError, match="PGM magic b'P2'"):
            read_pgm(b"P2\n1 1\n255\n\xff")
        with pytest.raises(DataError, match="PGM magic b'not'"):
            read_pgm(b"not an image\n")  # fewer than four header tokens
        with pytest.raises(DataError, match="header ended early"):
            read_pgm(b"P5\n1 1\n")
        with pytest.raises(DataError, match="square and non-empty, got 2x3"):
            read_pgm(b"P5\n2 3\n255\n" + bytes(6))
        with pytest.raises(DataError, match="payload has 3 bytes, expected 4"):
            read_pgm(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(DataError, match="PGM sample 200 above maxval 10"):
            read_pgm(b"P5\n2 2\n10\n" + bytes([0, 5, 10, 200]))

    def test_zero_maxval_rejected(self):
        with pytest.raises(DataError, match="maxval 0 unsupported"):
            read_pgm(b"P5\n2 2\n0\n" + bytes(4))

    def test_sixteen_bit_rejected(self):
        with pytest.raises(DataError, match="maxval 65535 unsupported"):
            read_pgm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_non_integer_header_token(self):
        for header in (b"P5\n2 x\n255\n", b"P5\n-2 -2\n255\n",
                       b"P5\n2 2\n2.5\n", b"P5\n" + b"1" * 5000 + b" 2\n255\n"):
            with pytest.raises(DataError, match="must be decimal integers"):
                read_pgm(header + bytes(4))

    def test_empty_image_rejected(self):
        with pytest.raises(DataError, match="square and non-empty, got 0x0"):
            read_pgm(b"P5\n0 0\n255\n")

    def test_roundtrip_within_quantization(self, pgm_safe_dataset):
        img = pgm_safe_dataset.items[0].image
        back = read_pgm(write_pgm(img, "fixed"))
        assert float(np.abs(back.pixels - img.pixels).max()) <= 1 / 510


class TestDatasetManifest:
    def test_roundtrip(self, tmp_path, pgm_safe_dataset):
        manifest = write_dataset(pgm_safe_dataset, tmp_path / "out")
        assert manifest.name == "manifest.csv"
        back = read_dataset(tmp_path / "out")
        assert len(back.items) == len(pgm_safe_dataset.items)
        assert ([it.image.d for it in back.items]
                == [it.image.d for it in pgm_safe_dataset.items])
        for orig, got in zip(pgm_safe_dataset.items, back.items):
            assert got.label == orig.label
            # repr round trip keeps the parameters exact
            assert got.params.eta == orig.params.eta
            assert got.params.xi == orig.params.xi
            assert got.params.xi_prime == orig.params.xi_prime
            assert got.params.tau == orig.params.tau
            assert got.params.tau_prime == orig.params.tau_prime
            # each PGM is scaled by its image's maximum
            want = orig.image.pixels / orig.image.pixels.max()
            assert float(np.abs(got.image.pixels - want).max()) <= 1 / 510

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="no manifest.csv under"):
            read_dataset(tmp_path)

    def test_wrong_columns(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="manifest columns .* unexpected"):
            read_dataset(tmp_path)

    def test_missing_image_file(self, tmp_path, pgm_safe_dataset):
        write_dataset(pgm_safe_dataset, tmp_path / "d")
        (tmp_path / "d" / "item_00000.pgm").unlink()
        with pytest.raises(DataError, match="cannot read"):
            read_dataset(tmp_path / "d")

    @given(flip_prob=st.sampled_from([0.0, 0.5, 1.0]),
           xi_range=st.sampled_from([(0.5, 0.5), (2.0, 2.0), (0.5, 2.0)]),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6))
    def test_generated_params_read_back_equal(self, tmp_path_factory, flip_prob,
                                              xi_range, seed, n):
        """What generate_dataset draws passes the read-side model check."""
        q = DeformDistribution(eta_range=(0.5, 1.5), xi_range=xi_range,
                               flip_prob=flip_prob, seed=seed)
        data = generate_dataset([tent(0.25)], [cross(0.25, 0.08)], q, n=n, d=8)
        out = tmp_path_factory.mktemp("roundtrip")
        write_dataset(data, out)
        back = read_dataset(out)
        assert ([it.params for it in back.items]
                == [it.params for it in data.items])

    def test_header_only_manifest(self, tmp_path, pgm_safe_dataset):
        manifest = write_dataset(pgm_safe_dataset, tmp_path / "d")
        text = manifest.read_text().splitlines()[0] + "\n"
        manifest.write_text(text)
        with pytest.raises(DataError, match="lists no items"):
            read_dataset(tmp_path / "d")


    @pytest.mark.parametrize("row, message", [
        ("0,1,0,1.0,1.0,1.0,0.0,0.0", "has 8 fields"),
        ("0,1,0,1.0,1.0,1.0,0.0,0.0,item_00000.pgm,x", "has 10 fields"),
        ("0,1,0,one,1.0,1.0,0.0,0.0,item_00000.pgm", "eta 'one' is not a number"),
        ("0,1.0,0,1.0,1.0,1.0,0.0,0.0,item_00000.pgm",
         "label '1.0' is not an integer"),
        ("x,1,0,1.0,1.0,1.0,0.0,0.0,item_00000.pgm", "index 'x' is not"),
        ("0,1,,1.0,1.0,1.0,0.0,0.0,item_00000.pgm", "template_index '' is not"),
        ("0,1,-7,1.0,1.0,1.0,0.0,0.0,item_00000.pgm",
         "row 1: template_index -7 is not 0"),
        ("0,1,1,1.0,1.0,1.0,0.0,0.0,item_00000.pgm",
         "row 1: template_index 1 is not 0"),
        ("0,1,0,nan,1.0,1.0,0.0,0.0,item_00000.pgm", "eta 'nan' is not finite"),
        ("0,1,0,1.0,inf,1.0,0.0,0.0,item_00000.pgm", "xi 'inf' is not finite"),
        ("0,1,0,1.0,1.0,-inf,0.0,0.0,item_00000.pgm",
         "xi_prime '-inf' is not finite"),
        ("0,1,0,1.0,1.0,1.0,NaN,0.0,item_00000.pgm", "tau 'NaN' is not finite"),
        ("0,1,0,1.0,1.0,1.0,0.0,1e400,item_00000.pgm",
         "tau_prime '1e400' is not finite"),
        ("0,2,0,1.0,1.0,1.0,0.0,0.0,item_00000.pgm", "row 1: label 2 is not 0 or 1"),
        ("0,-1,0,1.0,1.0,1.0,0.0,0.0,item_00000.pgm", "label -1 is not 0 or 1"),
        ("0,1,0,1.0,0.3,1.0,0.0,0.0,item_00000.pgm",
         r"row 1: \|xi\| must be >= 1/2, got 0.3"),
        ("0,1,0,0.0,1.0,1.0,0.0,0.0,item_00000.pgm",
         "row 1: amplitude must be positive"),
        ("0,1,0,1.0,1.0,1.0,0.0,0.3,item_00000.pgm",
         "row 1: tau_prime=0.3 outside admissible"),
    ])
    def test_malformed_rows(self, tmp_path, pgm_safe_dataset, row, message):
        manifest = write_dataset(pgm_safe_dataset, tmp_path / "d")
        header = manifest.read_text().splitlines()[0]
        manifest.write_text(f"{header}\n{row}\n")
        with pytest.raises(DataError, match=message):
            read_dataset(tmp_path / "d")

    def test_images_may_differ_in_size(self, tmp_path, pgm_safe_dataset):
        write_dataset(pgm_safe_dataset, tmp_path / "d")
        (tmp_path / "d" / "item_00000.pgm").write_bytes(
            write_pgm(GrayImage(np.eye(4))))
        back = read_dataset(tmp_path / "d")
        assert ([it.image.d for it in back.items][:2]
                == [4, pgm_safe_dataset.items[1].image.d])

    def test_rows_read_by_position(self, tmp_path, pgm_safe_dataset):
        manifest = write_dataset(pgm_safe_dataset, tmp_path / "d")
        lines = manifest.read_text().splitlines()
        # Blank lines are skipped and a quoted file name is unquoted.
        first = lines[1].rsplit(",", 1)
        manifest.write_text("\n".join([lines[0], "", f'{first[0]},"{first[1]}"']
                                      + lines[2:]) + "\n")
        back = read_dataset(tmp_path / "d")
        assert [it.label for it in back.items] == [
            it.label for it in pgm_safe_dataset.items]

    def test_undecodable_manifest(self, tmp_path):
        (tmp_path / "manifest.csv").write_bytes(b"index,label\n\xff\xfe\n")
        with pytest.raises(DataError, match="UTF-8"):
            read_dataset(tmp_path)


class TestReadBytes:
    def test_reads_whole_file(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(b"\x00P5\n")
        assert read_bytes(tmp_path / "f.bin") == b"\x00P5\n"
        assert read_bytes(str(tmp_path / "f.bin")) == b"\x00P5\n"

    @pytest.mark.parametrize("name", ["absent.pgm", ".", "a\0b"])
    def test_unreadable_path_is_data_error(self, tmp_path, name):
        with pytest.raises(DataError, match="cannot read"):
            read_bytes(tmp_path / name)


class TestWriteBytes:
    def test_writes_whole_file(self, tmp_path):
        write_bytes(tmp_path / "f.bin", b"\x00P5\n")
        assert (tmp_path / "f.bin").read_bytes() == b"\x00P5\n"

    @pytest.mark.parametrize("name", ["absent/f.bin", "file/f.bin", ".", "a\0b"])
    def test_unwritable_path_is_config_error(self, tmp_path, name):
        (tmp_path / "file").write_bytes(b"")
        with pytest.raises(ConfigError, match="cannot write"):
            write_bytes(tmp_path / name, b"")


def _idx_image_bytes():
    """Arbitrary bytes, bytes after a right magic, and small well-formed
    headers with arbitrary payloads."""
    dims = st.lists(st.integers(0, 4), min_size=3, max_size=3)
    header = dims.map(lambda ds: IMAGE_MAGIC + struct.pack(">3I", *ds))
    return (st.binary()
            | st.binary().map(lambda b: IMAGE_MAGIC + b)
            | st.builds(bytes.__add__, header, st.binary(max_size=64)))


def _pgm_bytes():
    token = st.integers(0, 300).map(str) | st.sampled_from(["x", "-1", "2.5", "", "#c\n"])
    header = st.lists(token, min_size=0, max_size=4).map(
        lambda ts: ("P5\n" + " ".join(ts) + "\n").encode("ascii"))
    return (st.binary()
            | st.binary().map(lambda b: b"P5" + b)
            | st.builds(bytes.__add__, header, st.binary(max_size=64)))


_MANIFEST_HEADER = "index,label,template_index,eta,xi,xi_prime,tau,tau_prime,file"
_MANIFEST_FIELD = (st.sampled_from(["0", "1", "-3", " 2", "1.5", "1e400", "nan",
                                    "", "x", "item_00000.pgm", "item_00001.pgm",
                                    "tiny.pgm", "absent.pgm", ".", "..",
                                    "manifest.csv", "a\0b", '"', "\n", "\r"])
                   | st.text(max_size=6))


def _csv_line(fields, quoted):
    if not quoted:
        return ",".join(fields)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


_VALID_ROW = ["0", "1", "0", "1.0", "0.9", "1.1", "0.0", "0.1", "item_00000.pgm"]


@st.composite
def _manifest_fields(draw):
    """A valid row with up to two fields replaced and maybe cut short or
    extended, or fields of arbitrary count."""
    if draw(st.booleans()):
        return draw(st.lists(_MANIFEST_FIELD, max_size=11))
    fields = list(_VALID_ROW)
    for _ in range(draw(st.integers(0, 2))):
        fields[draw(st.integers(0, 8))] = draw(_MANIFEST_FIELD)
    return (fields + ["x"])[:draw(st.sampled_from([9, 9, 9, 8, 10]))]


def _manifest_bytes():
    """Arbitrary bytes and text, and manifests of the right header (mostly)
    over rows built from numbers, file names and junk."""
    row = st.builds(_csv_line, _manifest_fields(), st.booleans())
    header = st.sampled_from([_MANIFEST_HEADER] * 8 + ["", "index,label"])
    structured = st.builds(lambda h, rows, end: "\n".join([h] + rows) + end,
                           header, st.lists(row, max_size=3),
                           st.sampled_from(["\n", "", "\r\n"]))
    structured = structured.map(str.encode)
    return st.one_of(st.binary(), st.text().map(str.encode), structured,
                     structured, structured)


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """A directory of valid PGMs (two 16 x 16, one 4 x 4) for manifests to
    point at."""
    out = tmp_path_factory.mktemp("manifest")
    for i in range(2):
        (out / f"item_{i:05d}.pgm").write_bytes(
            write_pgm(GrayImage(np.full((16, 16), 0.25 * (i + 1)))))
    (out / "tiny.pgm").write_bytes(write_pgm(GrayImage(np.eye(4))))
    return out


def byte_walk_read_pgm(data: bytes) -> GrayImage:
    """Oracle of ``read_pgm``: the header walked one byte at a time."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise DataError("PGM header ended early")
        chunk = data[pos:pos + 1]
        if chunk == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        elif chunk.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
            if tokens[0] != b"P5":
                raise DataError(f"PGM magic {tokens[0]!r}, expected b'P5'")
    if not all(t.isdigit() and len(t) <= 10 for t in tokens[1:]):
        raise DataError(f"PGM size and maxval must be decimal integers "
                        f"of at most 10 digits, got {b' '.join(tokens[1:])!r}")
    w, h, max_val = (int(t) for t in tokens[1:])
    if not 1 <= max_val <= 255:
        raise DataError(f"PGM maxval {max_val} unsupported, only 8-bit 1..255")
    if w != h or w < 1:
        raise DataError(f"image must be square and non-empty, got {w}x{h}")
    body = data[pos + 1:]
    if len(body) != w * h:
        raise DataError(f"payload has {len(body)} bytes, expected {w * h}")
    if max(body) > max_val:
        raise DataError(f"PGM sample {max(body)} above maxval {max_val}")
    return GrayImage(np.frombuffer(body, dtype=np.uint8).reshape(h, w) / max_val)


def _outcome(read, data: bytes):
    try:
        img = read(data)
    except DeformClassError as exc:
        return type(exc), str(exc)
    return img.pixels.shape, img.pixels.tobytes()


_SEPARATOR = st.lists(st.sampled_from([b" ", b"\n", b"\r", b"\t", b"\x0b", b"\x0c",
                                       b"#c\n", b"# a b\n", b"#\r\n"]),
                      min_size=1, max_size=3).map(b"".join)
_ODD_TOKEN = st.sampled_from([b"P2", b"x", b"#", b"1" * 11, b"2#", b"0", b"3",
                              b"\x00", b"\xff"])


@st.composite
def _pgm_like(draw):
    """A 2 x 2 PGM with each header token, separator and the body length
    possibly off."""
    parts = []
    for token in (b"P5", b"2", b"2", b"255"):
        keep = draw(st.sampled_from([True, True, True, False]))
        parts += [draw(_SEPARATOR), token if keep else draw(_ODD_TOKEN)]
    parts.append(draw(st.just(b"\n") | _SEPARATOR))
    parts.append(draw(st.binary(min_size=3, max_size=5) | st.binary()))
    return b"".join(parts)


class TestPgmHeaderOracle:
    @given(data=_pgm_like())
    def test_same_outcome_as_byte_walk(self, data):
        assert _outcome(read_pgm, data) == _outcome(byte_walk_read_pgm, data)


class TestByteBoundaries:
    """Any input either parses or raises a package error."""

    @given(data=_pgm_bytes())
    @example(data=b"P5\n2 2\n10\n" + bytes([0, 5, 10, 200]))
    def test_read_pgm(self, data):
        try:
            img = read_pgm(data)
        except DeformClassError:
            return
        assert isinstance(img, GrayImage)
        assert 0.0 <= img.pixels.min() and img.pixels.max() <= 1.0

    @given(data=_idx_image_bytes())
    def test_parse_idx_images(self, data):
        try:
            assert all(isinstance(img, GrayImage) for img in parse_idx_images(data))
        except DeformClassError:
            pass

    @given(data=_manifest_bytes())
    def test_read_dataset(self, manifest_dir, data):
        (manifest_dir / "manifest.csv").write_bytes(data)
        try:
            back = read_dataset(manifest_dir)
        except DeformClassError:
            return
        assert isinstance(back, Dataset)
        assert all(item.label in (0, 1) for item in back.items)
