import struct

import numpy as np
import pytest

from deformclass import (
    BadMagic,
    DeformDistribution,
    DimMismatch,
    EmptyDataset,
    GrayImage,
    InvalidParams,
    MalformedHeader,
    TruncatedPayload,
    generate_dataset,
    load_idx_pair,
    parse_idx_images,
    parse_idx_labels,
    read_dataset,
    read_pgm,
    serialize_idx_images,
    serialize_idx_labels,
    write_dataset,
    write_pgm,
)

IMAGE_MAGIC = b"\x00\x00\x08\x03"
LABEL_MAGIC = b"\x00\x00\x08\x01"


def tiny_image_file() -> bytes:
    return IMAGE_MAGIC + struct.pack(">3I", 1, 2, 2) + bytes([0, 255, 128, 0])


@pytest.fixture(scope="module")
def pgm_safe_dataset(tent_template, cross_template):
    # amplitudes kept below 1 so byte quantization is the only loss
    q = DeformDistribution(eta_range=(0.7, 0.9), xi_range=(1.0, 1.4), seed=3)
    return generate_dataset([tent_template], [cross_template], q, n=6, d=16)


class TestIdxImages:
    def test_hand_decoded_pixels(self):
        (img,) = parse_idx_images(tiny_image_file())
        assert img.pixels[0, 0] == 0.0
        assert img.pixels[0, 1] == 1.0
        assert img.pixels[1, 0] == 0.5019607843137255
        assert img.pixels[1, 1] == 0.0

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            parse_idx_images(b"\x00\x00\x08\x01" + tiny_image_file()[4:])

    def test_truncations(self):
        data = tiny_image_file()
        with pytest.raises(TruncatedPayload):
            parse_idx_images(data[:2])
        with pytest.raises(TruncatedPayload):
            parse_idx_images(data[:10])
        with pytest.raises(TruncatedPayload):
            parse_idx_images(data[:-1])

    def test_non_square_rejected(self):
        data = IMAGE_MAGIC + struct.pack(">3I", 1, 2, 3) + bytes(6)
        with pytest.raises(DimMismatch):
            parse_idx_images(data)

    def test_bytes_roundtrip_exactly(self):
        images = parse_idx_images(tiny_image_file())
        assert serialize_idx_images(images) == tiny_image_file()

    def test_serialize_validation(self):
        with pytest.raises(EmptyDataset):
            serialize_idx_images([])
        with pytest.raises(DimMismatch):
            serialize_idx_images([GrayImage(np.zeros((2, 2))),
                                  GrayImage(np.zeros((3, 3)))])

    def test_dataset_roundtrip_within_quantization(self, pgm_safe_dataset):
        images = [item.image for item in pgm_safe_dataset.items]
        back = parse_idx_images(serialize_idx_images(images))
        worst = max(float(np.abs(a.pixels - b.pixels).max())
                    for a, b in zip(images, back))
        assert worst <= 1 / 510


class TestIdxLabels:
    def test_roundtrip(self):
        data = serialize_idx_labels([0, 1, 9])
        assert data == LABEL_MAGIC + struct.pack(">I", 3) + bytes([0, 1, 9])
        assert parse_idx_labels(data) == [0, 1, 9]

    def test_byte_range_enforced(self):
        with pytest.raises(InvalidParams):
            serialize_idx_labels([0, 256])

    def test_truncated(self):
        with pytest.raises(TruncatedPayload):
            parse_idx_labels(serialize_idx_labels([1, 2, 3])[:-1])

    def test_pair_count_mismatch(self):
        with pytest.raises(DimMismatch):
            load_idx_pair(tiny_image_file(), serialize_idx_labels([0, 1]))

    def test_pair_happy_path(self):
        pairs = load_idx_pair(tiny_image_file(), serialize_idx_labels([7]))
        assert len(pairs) == 1
        assert pairs[0][1] == 7


class TestPgm:
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
        with pytest.raises(InvalidParams):
            write_pgm(GrayImage(np.zeros((2, 2))), "stretch")

    def test_comment_tolerated(self):
        data = b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255])
        img = read_pgm(data)
        assert img.pixels[1, 1] == 1.0

    def test_read_errors(self):
        with pytest.raises(BadMagic):
            read_pgm(b"P2\n1 1\n255\n\xff")
        with pytest.raises(TruncatedPayload):
            read_pgm(b"P5\n1 1\n")
        with pytest.raises(DimMismatch):
            read_pgm(b"P5\n2 3\n255\n" + bytes(6))
        with pytest.raises(TruncatedPayload):
            read_pgm(b"P5\n2 2\n255\n" + bytes(3))

    def test_zero_maxval_rejected(self):
        with pytest.raises(DimMismatch, match="maxval 0 unsupported"):
            read_pgm(b"P5\n2 2\n0\n" + bytes(4))

    def test_sixteen_bit_rejected(self):
        with pytest.raises(DimMismatch, match="maxval 65535 unsupported"):
            read_pgm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_non_integer_header_token(self):
        for header in (b"P5\n2 x\n255\n", b"P5\n-2 -2\n255\n",
                       b"P5\n2 2\n2.5\n"):
            with pytest.raises(MalformedHeader):
                read_pgm(header + bytes(4))

    def test_empty_image_rejected(self):
        with pytest.raises(DimMismatch):
            read_pgm(b"P5\n0 0\n255\n")

    def test_roundtrip_within_quantization(self, pgm_safe_dataset):
        img = pgm_safe_dataset.items[0].image
        back = read_pgm(write_pgm(img, "fixed"))
        assert float(np.abs(back.pixels - img.pixels).max()) <= 1 / 510


class TestDatasetManifest:
    def test_roundtrip(self, tmp_path, pgm_safe_dataset):
        manifest = write_dataset(pgm_safe_dataset, tmp_path / "out",
                                 max_val_policy="fixed")
        assert manifest.name == "manifest.csv"
        back = read_dataset(tmp_path / "out")
        assert len(back.items) == len(pgm_safe_dataset.items)
        assert back.d == pgm_safe_dataset.d
        for orig, got in zip(pgm_safe_dataset.items, back.items):
            assert got.label == orig.label
            assert got.template_index == orig.template_index
            # repr round trip keeps the parameters exact
            assert got.params.eta == orig.params.eta
            assert got.params.xi == orig.params.xi
            assert got.params.xi_prime == orig.params.xi_prime
            assert got.params.tau == orig.params.tau
            assert got.params.tau_prime == orig.params.tau_prime
            err = float(np.abs(got.image.pixels - orig.image.pixels).max())
            assert err <= 1 / 510

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(EmptyDataset):
            read_dataset(tmp_path)

    def test_wrong_columns(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DimMismatch):
            read_dataset(tmp_path)

    def test_header_only_manifest(self, tmp_path, pgm_safe_dataset):
        manifest = write_dataset(pgm_safe_dataset, tmp_path / "d")
        text = manifest.read_text().splitlines()[0] + "\n"
        manifest.write_text(text)
        with pytest.raises(EmptyDataset):
            read_dataset(tmp_path / "d")
