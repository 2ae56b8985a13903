import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deformclass
from deformclass import (ArchSpec, DeformDistribution, ExperimentConfig,
                         GrayImage, OptSpec, SearchConfig, TrainableCnn, cli,
                         harness, save_checkpoint, tent, write_pgm)
from deformclass.cli import main

GEN_ARGS = ["gen", "--template0", "tent:delta=0.25",
            "--template1", "cross:arm=0.25,taper=0.08",
            "--n", "6", "--d", "16", "--seed", "1"]


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(GEN_ARGS + ["--out", str(out)]) == 0
    return out


_EXPERIMENT = ExperimentConfig(tent(0.25), tent(0.25))
_Q, _ARCH, _OPT, _SEARCH = DeformDistribution(), ArchSpec(), OptSpec(), SearchConfig()
_TEMPLATES = ["--template0", "tent", "--template1", "cone"]


@pytest.mark.parametrize("argv, expected", [
    (["gen", *_TEMPLATES, "--n", "2", "--out", "x"],
     dict(d=_EXPERIMENT.d, seed=_Q.seed, eta_range=_Q.eta_range,
          xi_range=_Q.xi_range, xi_prime_range=_Q.xi_prime_range,
          flip_prob=_Q.flip_prob)),
    (["cnn", "bank", *_TEMPLATES, "--image", "x.pgm"],
     dict(xi_max=_EXPERIMENT.bank_xi_max)),
    (["cnn", "train", "--data", "x", "--out", "y"],
     dict(epochs=_OPT.epochs, batch_size=_OPT.batch_size,
          learning_rate=_OPT.learning_rate, seed=_OPT.seed,
          n_filters=_ARCH.n_filters, filter_size=_ARCH.filter_size,
          beta=_ARCH.beta)),
    (["sep", *_TEMPLATES],
     dict(xi_max=_SEARCH.xi_max, step=_SEARCH.coarse_step,
          refine_iters=_SEARCH.refine_iters)),
])
def test_flag_defaults_are_the_dataclass_defaults(argv, expected):
    args = vars(cli._build_parser().parse_args(argv))
    assert {name: args[name] for name in expected} == expected


@pytest.mark.parametrize("command", ["gen", "train", "bench"])
def test_negative_seed_exits_2(dataset_dir, tmp_path, capsys, command):
    # numpy's seeding raises a bare ValueError on a negative seed.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TestBench.CONFIG + "experiment.seed = -1\n")
    argv = {"gen": GEN_ARGS[:-1] + ["-1", "--out", str(tmp_path / "x")],
            "train": ["cnn", "train", "--data", str(dataset_dir),
                      "--out", str(tmp_path / "net.ckpt"), "--seed", "-1"],
            "bench": ["bench", "--config", str(cfg)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: seed must be >= 0, got -1\n")


class TestGen:
    def test_writes_manifest_and_images(self, dataset_dir, capsys):
        assert (dataset_dir / "manifest.csv").exists()
        assert len(list(dataset_dir.glob("*.pgm"))) == 6

    def test_bad_template_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--template0", "blob", "--template1", "tent",
                     "--n", "2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_infinite_range_exits_2(self, tmp_path, capsys):
        code = main(GEN_ARGS + ["--eta-range", "1,inf", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "eta_range bounds must be finite" in err and "Traceback" not in err

    # Item i's parameters come from its own substream, so both sizes share
    # the first seven rows' eta, xi, xi_prime, tau and tau_prime.
    _GOLDEN_PARAMS = (
        "1.1546263522806763,-1.419730327678435,-1.0630848815182252,"
        "-0.8394796213092268,-0.9694815742211129",
        "1.0973781617894451,1.0946759452558892,-1.2780821060406742,"
        "0.21922207124202925,-1.0696450676558642",
        "1.1447556251140425,-1.488949299102051,1.3262866121603722,"
        "-1.4970616512960973,0.196671766333395",
        "1.1064597167950538,1.0589685356172693,1.0247661779663848,"
        "-0.06678001596193661,0.09019511609118314",
        "0.9079859988654196,1.309993874001597,-1.160846280130157,"
        "-0.08747762816376137,-1.2299311526149186",
        "1.1114884545548285,-1.399280553771655,1.4424129436035749,"
        "-1.597203043206771,-0.048972043607016486",
        "1.024336275551199,1.2969170367823772,-1.1171069602825363,"
        "0.18293676979048967,-1.0323255637168993",
        "1.1550425645896671,-1.1547756021474052,1.3002653367384043,"
        "-1.0858115202469896,0.29461444917919677",
        "1.0120657192734368,1.2164007066301599,-1.245264414147841,"
        "0.34145374597731215,-1.294947127144673",
        "0.9153058439183733,-1.0930086832470223,-1.1184372475003557,"
        "-0.9410379777087339,-0.9903124932131704",
    )

    @pytest.mark.parametrize("n, labels, pgm_sha256", [
        # odd n: each label is a coin flip from the item's choice stream
        (7, "1110001",
         "85dd964c985d83131111671535b26185785870d21cbbbaf68c86ae33964c7db3"),
        # even n: a seeded permutation of five labels of each class
        (10, "1100001011",
         "ea6fa63ca3697d94e9a02111a45a8ba6efb2d972bc0b99028a9c6ecf769f00be"),
    ], ids=["n7", "n10"])
    def test_golden_output(self, tmp_path, capsys, n, labels, pgm_sha256):
        """The manifest text and one sha256 over the PGM bytes, in file-name
        order, of a flipped two-template dataset."""
        out = tmp_path / "data"
        assert main(["gen", "--template0", "tent",
                     "--template1", "cross:arm=0.25,taper=0.08",
                     "--d", "24", "--seed", "5", "--eta-range", "0.8,1.2",
                     "--xi-range", "1.0,1.5", "--flip-prob", "0.5",
                     "--n", str(n), "--out", str(out)]) == 0
        assert (out / "manifest.csv").read_text() == (
            "index,label,template_index,eta,xi,xi_prime,tau,tau_prime,file\n"
            + "".join(f"{i},{label},0,{self._GOLDEN_PARAMS[i]},item_{i:05d}.pgm\n"
                      for i, label in enumerate(labels)))
        digest = hashlib.sha256()
        for path in sorted(out.glob("*.pgm")):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == pgm_sha256


    def test_range_needs_two_numbers_exits_2(self, tmp_path, capsys):
        code = main(GEN_ARGS + ["--eta-range", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--eta-range needs two comma-separated numbers, got '1'" in err
        assert "Traceback" not in err and not (tmp_path / "x").exists()


class TestAlign:
    def test_classifies_member_image(self, dataset_dir, capsys):
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        code = main(["align", "--gallery", str(dataset_dir),
                     "--query", str(query)])
        assert code == 0
        out = capsys.readouterr().out
        assert "label=" in out and "distance=0.000000" in out

    def test_flips_flag(self, dataset_dir, capsys):
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        code = main(["align", "--gallery", str(dataset_dir),
                     "--query", str(query), "--flips"])
        assert code == 0
        assert "orientation=" in capsys.readouterr().out

    def test_flips_golden_output(self, tmp_path, capsys):
        """A query off the gallery, matched in orientation 2; the line was
        recorded with the one-query loop search."""
        gallery, queries = tmp_path / "gallery", tmp_path / "queries"
        assert main(GEN_ARGS + ["--flip-prob", "0.5", "--out", str(gallery)]) == 0
        assert main(["gen", "--template0", "tent:delta=0.25",
                     "--template1", "cross:arm=0.25,taper=0.08", "--n", "2",
                     "--d", "16", "--seed", "2", "--flip-prob", "0.5",
                     "--eta-range", "0.8,1.2", "--xi-range", "1.0,1.5",
                     "--out", str(queries)]) == 0
        capsys.readouterr()
        code = main(["align", "--gallery", str(gallery),
                     "--query", str(queries / "item_00001.pgm"), "--flips"])
        assert code == 0
        assert capsys.readouterr().out == (
            "label=0 neighbor=5 distance=0.026304 orientation=2\n")

    def test_query_is_aligned_on_the_gallery_grid(self, tmp_path, capsys):
        """A 64-px query against a 32-px gallery: with no --m, both sides
        are resampled onto the gallery's 32 x 32 grid, as --m 32 does."""
        gallery, queries = tmp_path / "gallery", tmp_path / "queries"
        templates = GEN_ARGS[1:5]
        assert main(["gen", *templates, "--n", "6", "--d", "32", "--seed", "1",
                     "--out", str(gallery)]) == 0
        assert main(["gen", *templates, "--n", "2", "--d", "64", "--seed", "2",
                     "--out", str(queries)]) == 0
        capsys.readouterr()
        argv = ["align", "--gallery", str(gallery),
                "--query", str(queries / "item_00001.pgm")]
        outputs = []
        for extra in ([], ["--m", "32"]):
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("label=")

    def test_grid_side_above_cap_exits_2(self, dataset_dir, capsys):
        # A 10^6-px side would need terabytes; it is refused before any
        # grid is allocated.
        code = main(["align", "--gallery", str(dataset_dir),
                     "--query", str(dataset_dir / "item_00000.pgm"),
                     "--m", "1000000"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: resample grid needs m >= 2 and m <= 4096, "
            "got 1000000\n")

    def test_missing_gallery_exits_3(self, tmp_path, capsys):
        query = tmp_path / "q.pgm"
        query.write_bytes(write_pgm(GrayImage(np.ones((4, 4)))))
        code = main(["align", "--gallery", str(tmp_path / "absent"),
                     "--query", str(query)])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda row: row[:3],                       # short row
        lambda row: [row[0], row[1], row[2], "abc"] + row[4:],   # eta
        lambda row: [row[0], "1.5"] + row[2:],     # label
        lambda row: [row[0], "7"] + row[2:],       # label not 0 or 1
        lambda row: row[:2] + ["-7"] + row[3:],    # template index not 0
        lambda row: row[:4] + ["0.3"] + row[5:],   # |xi| below 1/2
    ])
    def test_malformed_manifest_exits_3(self, dataset_dir, capsys, edit):
        manifest = dataset_dir / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[1] = ",".join(edit(lines[1].split(",")))
        manifest.write_text("\n".join(lines) + "\n")
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        code = main(["align", "--gallery", str(dataset_dir),
                     "--query", str(query)])
        err = capsys.readouterr().err
        assert code == 3
        assert "data error: manifest row 1" in err and "Traceback" not in err

    def test_blank_query_exits_4(self, dataset_dir, tmp_path, capsys):
        query = tmp_path / "blank.pgm"
        query.write_bytes(write_pgm(GrayImage(np.zeros((16, 16)))))
        code = main(["align", "--gallery", str(dataset_dir),
                     "--query", str(query)])
        assert code == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_blank_gallery_image_is_named(self, dataset_dir, capsys):
        (dataset_dir / "item_00003.pgm").write_bytes(
            write_pgm(GrayImage(np.zeros((16, 16)))))
        code = main(["align", "--gallery", str(dataset_dir),
                     "--query", str(dataset_dir / "item_00000.pgm")])
        err = capsys.readouterr().err
        assert code == 4
        assert "image 3: no pixel is positive" in err and "Traceback" not in err


class TestCnn:
    def test_bank_labels_each_template(self, dataset_dir, tmp_path, capsys):
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        code = main(["cnn", "bank", "--template0", "tent:delta=0.25",
                     "--template1", "cross:arm=0.25,taper=0.08",
                     "--image", str(query), "--xi-max", "1"])
        assert code == 0
        assert "label=" in capsys.readouterr().out

    def test_bank_is_built_at_the_image_side(self, tmp_path, capsys):
        data = tmp_path / "data32"
        assert main(["gen", *GEN_ARGS[1:5], "--n", "2", "--d", "32",
                     "--out", str(data)]) == 0
        code = main(["cnn", "bank", *GEN_ARGS[1:5],
                     "--image", str(data / "item_00000.pgm"), "--xi-max", "1"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "label=" in captured.out

    def test_bank_nan_beta_exits_2(self, dataset_dir, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("bank built before the temperature check")

        monkeypatch.setattr(cli, "build_filter_bank", unreachable)
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        for beta in ("nan", "-1", "0", "inf"):
            code = main(["cnn", "bank", "--template0", "tent:delta=0.25",
                         "--template1", "cross:arm=0.25,taper=0.08",
                         "--image", str(query), "--xi-max", "1",
                         "--beta", beta])
            assert code == 2
            err = capsys.readouterr().err
            assert "config error: temperature must be positive" in err

    def test_bank_malformed_image_exits_3(self, tmp_path, capsys):
        query = tmp_path / "deep.pgm"
        query.write_bytes(b"P5\n16 16\n65535\n" + bytes(512))
        code = main(["cnn", "bank", "--template0", "tent:delta=0.25",
                     "--template1", "cross:arm=0.25,taper=0.08",
                     "--image", str(query), "--xi-max", "1"])
        assert code == 3
        assert "maxval 65535 unsupported" in capsys.readouterr().err

    def test_bank_below_minimum_resolution_exits_2(self, tmp_path, capsys):
        query = tmp_path / "tiny.pgm"
        query.write_bytes(write_pgm(GrayImage(np.full((2, 2), 0.5))))
        code = main(["cnn", "bank", "--template0", "tent:delta=0.25",
                     "--template1", "cross:arm=0.25,taper=0.08",
                     "--image", str(query), "--xi-max", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: resolution 2 below minimum 4\n"
        assert "label=" not in captured.out

    def test_train_then_classify(self, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "net.ckpt"
        code = main(["cnn", "train", "--data", str(dataset_dir),
                     "--out", str(ckpt), "--epochs", "2",
                     "--n-filters", "2", "--batch-size", "4"])
        assert code == 0
        assert ckpt.exists()
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        code = main(["cnn", "classify", "--checkpoint", str(ckpt),
                     "--image", str(query)])
        assert code == 0
        assert "label=" in capsys.readouterr().out

    def test_train_nan_learning_rate_exits_2(self, dataset_dir, tmp_path, capsys):
        code = main(["cnn", "train", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "net.ckpt"), "--learning-rate", "nan"])
        assert code == 2
        err = capsys.readouterr().err
        assert "finite positive rate" in err and "Traceback" not in err

    def test_train_mixed_sizes_exits_3(self, dataset_dir, tmp_path, capsys):
        small = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        small.write_bytes(write_pgm(GrayImage(np.eye(12))))
        code = main(["cnn", "train", "--data", str(dataset_dir),
                     "--out", str(tmp_path / "net.ckpt"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "data error: training images must share one side length" in err
        assert "Traceback" not in err
        assert not (tmp_path / "net.ckpt").exists()

    def test_train_label_other_than_0_or_1_exits_3(self, dataset_dir,
                                                   tmp_path, capsys):
        manifest = dataset_dir / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[1] = ",".join([lines[1].split(",")[0], "7",
                             *lines[1].split(",")[2:]])
        manifest.write_text("\n".join(lines) + "\n")
        ckpt = tmp_path / "net.ckpt"
        code = main(["cnn", "train", "--data", str(dataset_dir),
                     "--out", str(ckpt), "--epochs", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "data error: manifest row 1: label 7 is not 0 or 1\n")
        assert not ckpt.exists()

    def test_train_too_many_filters_exits_2_before_reading(
            self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("called before the network spec was checked")

        monkeypatch.setattr(cli, "read_dataset", fail)
        monkeypatch.setattr(cli, "train_least_squares", fail)
        ckpt = tmp_path / "net.ckpt"
        code = main(["cnn", "train", "--data", str(tmp_path),
                     "--out", str(ckpt), "--n-filters", "65536"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: filter count") and "65535" in err
        assert err.count("\n") == 1
        assert not ckpt.exists()

    def test_train_overflowing_rate_exits_4(self, tmp_path, capsys):
        data = tmp_path / "data16"
        assert main(GEN_ARGS[:5] + ["--n", "16"] + GEN_ARGS[7:]
                    + ["--out", str(data)]) == 0
        ckpt = tmp_path / "net.ckpt"
        code = main(["cnn", "train", "--data", str(data), "--out", str(ckpt),
                     "--epochs", "3", "--learning-rate", "1e300"])
        assert code == 4
        # numpy's overflow warnings are not printed before the error
        assert capsys.readouterr().err == (
            "numeric failure: network output is not finite\n")
        assert not ckpt.exists()

    @staticmethod
    def weights_checkpoint(tmp_path, value: float):
        """A checkpoint of the default architecture whose every weight is
        ``value``."""
        net = TrainableCnn(ArchSpec())
        net.params[...] = value
        path = tmp_path / "net.ckpt"
        path.write_bytes(save_checkpoint(net))
        return path

    @pytest.mark.parametrize("value, code, message", [
        (1e308, 4, "numeric failure: network output is not finite"),
        (float("nan"), 3, "data error: checkpoint weights are not finite"),
    ])
    def test_classify_non_finite(self, dataset_dir, tmp_path, capsys, value,
                                 code, message):
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        assert main(["cnn", "classify", "--checkpoint",
                     str(self.weights_checkpoint(tmp_path, value)),
                     "--image", str(query)]) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert "label=" not in captured.out

    def test_flipped_weight_bit_exits_3(self, dataset_dir, tmp_path, capsys):
        blob = bytearray(save_checkpoint(TrainableCnn(ArchSpec())))
        blob[-5] ^= 1  # lowest bit of the last weight's top byte
        ckpt = tmp_path / "net.ckpt"
        ckpt.write_bytes(bytes(blob))
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        assert main(["cnn", "classify", "--checkpoint", str(ckpt),
                     "--image", str(query)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "data error: checkpoint checksum mismatch\n"
        assert captured.out == ""

    def test_garbage_checkpoint_exits_3(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        code = main(["cnn", "classify", "--checkpoint", str(bad),
                     "--image", str(query)])
        assert code == 3


class TestSep:
    def test_reports_separation_and_gamma(self, capsys):
        code = main(["sep", "--template0", "tent:delta=0.25",
                     "--template1", "tent:delta=0.25",
                     "--step", "0.25", "--refine-iters", "0",
                     "--gamma-d", "64", "--gamma-budget", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "separation: d_fg=0.000000" in out
        assert out.count("gamma~") == 2

    def test_golden_output(self, capsys):
        # Golden text: speed-ups of the search or the gamma scan must not
        # move a printed digit.
        code = main(["sep", "--template0", "tent:delta=0.25",
                     "--template1", "cross:arm=0.25,taper=0.08",
                     "--step", "0.25", "--refine-iters", "2",
                     "--gamma-budget", "64", "--gamma-d", "64"])
        assert code == 0
        assert capsys.readouterr().out == (
            "separation: d_fg=0.321056 d_gf=0.280532 D=0.321056\n"
            "template0: gamma~1.6886 (boundary points 124, scan points 64)\n"
            "template1: gamma~1.6438 (boundary points 124, scan points 64)\n")

    def test_repeated_template_parameter_exits_2(self, capsys):
        code = main(["sep", "--template0", "tent:delta=0.25,delta=0.1",
                     "--template1", "cone"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: template spec 'tent:delta=0.25,delta=0.1' "
            "repeats key 'delta'\n")

    def test_negative_refine_iters_exits_2(self, capsys):
        code = main(["sep", "--template0", "tent", "--template1", "cone",
                     "--refine-iters", "-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: refine_iters must be >= 0\n")

    def test_non_numeric_template_parameter_exits_2(self, capsys):
        code = main(["sep", "--template0", "tent:delta=abc",
                     "--template1", "tent:delta=0.25"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_non_finite_xi_max_exits_2(self, capsys):
        for value in ("nan", "inf"):
            code = main(["sep", "--template0", "tent:delta=0.25",
                         "--template1", "cone", "--xi-max", value])
            assert code == 2
            err = capsys.readouterr().err
            assert "xi_max must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--gamma-budget", "2"], "sample budget must be >= 3, got 2"),
        (["--gamma-d", "3"], "resolution 3 below minimum 4"),
        (["--gamma-d", "10000000"], "resolution 10000000 above maximum 4096"),
    ])
    def test_bad_gamma_flag_exits_2_before_the_search(self, capsys, monkeypatch,
                                                      flags, message):
        def search(*args):
            raise AssertionError("the separation search ran")

        monkeypatch.setattr(cli, "estimate_separation", search)
        code = main(["sep", "--template0", "tent:delta=0.25",
                     "--template1", "cone:radius=0.2", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err

    def test_nan_template_parameter_exits_2(self, capsys):
        code = main(["sep", "--template0", "tent:delta=nan",
                     "--template1", "tent:delta=0.25"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--xi-max", "1e308"], ["--step", "1e-300"]])
    def test_scale_grid_above_cap_exits_2(self, capsys, flags):
        code = main(["sep", "--template0", "tent:delta=0.25",
                     "--template1", "cone", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the coarse grid has")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_out_of_memory_exits_2(self, capsys, tmp_path):
        # 10^15 items ask for an 8 PB label array, more than any address
        # space holds, so numpy fails at once without allocating.
        code = main(["gen", "--template0", "tent:delta=0.25",
                     "--template1", "cone", "--n", "1000000000000000",
                     "--out", str(tmp_path / "huge")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "huge").exists()
        assert err.startswith("config error: out of memory: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestPgmTemplates:
    def test_gen_sep_and_bank(self, glyph_pgms, tmp_path, capsys):
        ring, bar = (f"pgm:path={p}" for p in glyph_pgms)
        out = tmp_path / "glyphs"
        assert main(["gen", "--template0", ring, "--template1", bar,
                     "--n", "4", "--d", "16", "--out", str(out)]) == 0
        assert main(["cnn", "bank", "--template0", ring, "--template1", bar,
                     "--image", str(out / "item_00000.pgm"),
                     "--xi-max", "1"]) == 0
        assert main(["sep", "--template0", ring, "--template1", bar,
                     "--step", "0.25", "--refine-iters", "0",
                     "--gamma-d", "64", "--gamma-budget", "64"]) == 0
        out = capsys.readouterr().out
        assert "wrote 4 images" in out and "label=" in out
        assert "separation:" in out and out.count("gamma~") == 2

    def test_spec_errors(self, tmp_path, capsys):
        (tmp_path / "blank.pgm").write_bytes(write_pgm(GrayImage(np.zeros((8, 8)))))
        (tmp_path / "notes.txt").write_text("not an image\n")
        cases = [("pgm:path=" + str(tmp_path / "absent.pgm"), 3, "data error"),
                 ("pgm:path=" + str(tmp_path), 3, "data error"),
                 ("pgm:path=" + str(tmp_path / "notes.txt"), 3, "PGM magic"),
                 ("pgm:path=" + str(tmp_path / "blank.pgm"), 2, "invalid template"),
                 ("pgm:", 2, "needs path="),
                 ("pgm:path=", 2, "needs path=")]
        for spec, code, message in cases:
            assert main(["sep", "--template0", spec, "--template1", "cone"]) == code
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err

    def test_tiny_templates_exit_2(self, capsys):
        for spec, message in (("tent:delta=1e-110", "l1 mass 0.0"),
                              ("cone:radius=1e-200", "l1 mass 0.0"),
                              ("cross:arm=1e-320", "Lipschitz constant inf")):
            assert main(["sep", "--template0", spec, "--template1", "cone"]) == 2
            assert message in capsys.readouterr().err


class TestBench:
    CONFIG = ("task.template0 = tent:delta=0.25\n"
              "task.template1 = cross:arm=0.25,taper=0.08\n"
              "q.eta_range = 0.8,1.2\n"
              "q.xi_range = 1.0,1.5\n"
              "experiment.n_list = 2\n"
              "experiment.n_test = 6\n"
              "experiment.repetitions = 2\n"
              "experiment.d = 16\n")

    def test_writes_reports(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        raw = tmp_path / "raw.csv"
        agg = tmp_path / "agg.csv"
        code = main(["bench", "--config", str(cfg), "--out", str(raw),
                     "--aggregate-out", str(agg)])
        assert code == 0
        raw_lines = raw.read_text().splitlines()
        assert raw_lines[0] == "classifier,n,repetition,R_N"
        assert len(raw_lines) == 1 + 2
        agg_lines = agg.read_text().splitlines()
        assert agg_lines[0] == "classifier,n,median_R_N"
        assert len(agg_lines) == 2

    def test_stdout_default(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        assert main(["bench", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "classifier,n,repetition,R_N" in out
        assert "classifier,n,median_R_N" in out

    def test_failed_rows_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG.replace("experiment.d = 16",
                                           "experiment.d = 2"))
        raw = tmp_path / "raw.csv"
        agg = tmp_path / "agg.csv"
        code = main(["bench", "--config", str(cfg), "--out", str(raw),
                     "--aggregate-out", str(agg)])
        assert code == 1
        assert raw.read_text().splitlines()[1:] == ["IAC,2,0,nan", "IAC,2,1,nan"]
        assert agg.read_text().splitlines() == ["classifier,n,median_R_N"]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"item failed (repetition {rep}, n=2): ConfigError: "
            f"resolution 2 below minimum 4" for rep in (0, 1)] + [
            "2 of 2 rows failed"]

    @pytest.mark.parametrize("d, xi_max, message", [
        (5000, 2, "resolution 5000 above maximum 4096"),
        (16, 0, "scale limit must be >= 1, got 0")])
    def test_bad_config_exits_2_before_the_sweep(self, tmp_path, capsys,
                                                 d, xi_max, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG.replace("experiment.d = 16\n", "")
                       + f"experiment.d = {d}\nbank.xi_max = {xi_max}\n")
        raw = tmp_path / "raw.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(raw)]) == 2
        assert not raw.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {message}"]

    def test_iac_golden_raw_csv(self, tmp_path, capsys):
        """Both IAC classifiers on flipped data; the CSV was recorded with the
        one-query loop search and per-classifier alignment."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("task.template0 = tent:delta=0.25\n"
                       "task.template1 = cross:arm=0.25,taper=0.08\n"
                       "q.eta_range = 0.8,1.2\n"
                       "q.xi_range = 1.0,1.5\n"
                       "q.flip_prob = 0.5\n"
                       "experiment.n_list = 2,4,8\n"
                       "experiment.n_test = 20\n"
                       "experiment.repetitions = 3\n"
                       "experiment.d = 16\n"
                       "experiment.classifiers = IAC,IAC_FLIPS\n")
        raw = tmp_path / "raw.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(raw),
                     "--aggregate-out", str(tmp_path / "agg.csv")]) == 0
        assert raw.read_text() == (
            "classifier,n,repetition,R_N\n"
            "IAC,2,0,0.100000\nIAC,2,1,0.000000\nIAC,2,2,0.100000\n"
            "IAC,4,0,0.000000\nIAC,4,1,0.000000\nIAC,4,2,0.250000\n"
            "IAC,8,0,0.050000\nIAC,8,1,0.100000\nIAC,8,2,0.000000\n"
            "IAC_FLIPS,2,0,0.100000\nIAC_FLIPS,2,1,0.000000\n"
            "IAC_FLIPS,2,2,0.100000\nIAC_FLIPS,4,0,0.000000\n"
            "IAC_FLIPS,4,1,0.000000\nIAC_FLIPS,4,2,0.250000\n"
            "IAC_FLIPS,8,0,0.050000\nIAC_FLIPS,8,1,0.100000\n"
            "IAC_FLIPS,8,2,0.000000\n")

    def test_four_classifier_golden_csv(self, tmp_path, capsys):
        """Every classifier of the sweep on flipped data, raw and aggregate
        CSV bytes.  The bank's smallest |z0 - z1| over these test images is
        5e-4, far above what the BLAS thread count moves it by."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("task.template0 = tent:delta=0.25\n"
                       "task.template1 = cross:arm=0.25,taper=0.08\n"
                       "q.eta_range = 0.8,1.2\n"
                       "q.xi_range = 1.0,1.5\n"
                       "q.flip_prob = 0.5\n"
                       "experiment.n_list = 2,8\n"
                       "experiment.n_test = 12\n"
                       "experiment.repetitions = 2\n"
                       "experiment.d = 16\n"
                       "experiment.classifiers = IAC,IAC_FLIPS,CNN_EXPLICIT,"
                       "CNN_TRAINED\n"
                       "bank.xi_max = 1\n"
                       "cnn.n_filters = 4\n"
                       "cnn.dense_widths = 8\n"
                       "cnn.epochs = 20\n"
                       "cnn.batch_size = 4\n")
        raw, agg = tmp_path / "raw.csv", tmp_path / "agg.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(raw),
                     "--aggregate-out", str(agg)]) == 0
        assert raw.read_bytes() == (
            b"classifier,n,repetition,R_N\n"
            b"CNN_EXPLICIT,2,0,0.333333\nCNN_EXPLICIT,2,1,0.333333\n"
            b"CNN_EXPLICIT,8,0,0.416667\nCNN_EXPLICIT,8,1,0.416667\n"
            b"CNN_TRAINED,2,0,0.083333\nCNN_TRAINED,2,1,0.333333\n"
            b"CNN_TRAINED,8,0,0.083333\nCNN_TRAINED,8,1,0.000000\n"
            b"IAC,2,0,0.083333\nIAC,2,1,0.000000\n"
            b"IAC,8,0,0.166667\nIAC,8,1,0.000000\n"
            b"IAC_FLIPS,2,0,0.083333\nIAC_FLIPS,2,1,0.000000\n"
            b"IAC_FLIPS,8,0,0.166667\nIAC_FLIPS,8,1,0.000000\n")
        assert agg.read_bytes() == (
            b"classifier,n,median_R_N\n"
            b"CNN_EXPLICIT,2,0.333333\nCNN_EXPLICIT,8,0.416667\n"
            b"CNN_TRAINED,2,0.208333\nCNN_TRAINED,8,0.041667\n"
            b"IAC,2,0.041667\nIAC,8,0.083333\n"
            b"IAC_FLIPS,2,0.041667\nIAC_FLIPS,8,0.083333\n")

    def test_reused_dirty_memory_keeps_the_golden(self, tmp_path, capsys):
        """The command keeps freed memory in its heap, so later arrays may
        reuse pages that held NaN: every np.empty must be written before it
        is read.  The golden holds before and after such a reuse."""
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        self.test_four_classifier_golden_csv(first, capsys)
        dirty = np.full(2 ** 20, np.nan)  # 8 MB, below the mmap threshold
        del dirty
        self.test_four_classifier_golden_csv(second, capsys)

    def test_bank_below_minimum_resolution_exits_2(self, tmp_path, capsys,
                                                   monkeypatch):
        def unreachable(*args):
            raise AssertionError("an item ran")

        monkeypatch.setattr(harness, "_draw_template_sets", unreachable)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG.replace("experiment.d = 16", "experiment.d = 2")
                       + "experiment.classifiers = IAC,CNN_EXPLICIT\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: resolution 2 below minimum 4\n")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["bench", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_glyph_templates_all_classifiers(self, glyph_pgms, tmp_path, capsys):
        cfg = tmp_path / "glyphs.cfg"
        cfg.write_text(f"task.template0 = pgm:path={glyph_pgms[0]}\n"
                       f"task.template1 = pgm:path={glyph_pgms[1]}\n"
                       "q.eta_range = 0.8,1.2\n"
                       "q.xi_range = 1.0,1.5\n"
                       "experiment.n_list = 2,8\n"
                       "experiment.n_test = 20\n"
                       "experiment.repetitions = 3\n"
                       "experiment.d = 32\n"
                       "experiment.classifiers = IAC,IAC_FLIPS,CNN_EXPLICIT,"
                       "CNN_TRAINED\n"
                       "cnn.n_filters = 4\n"
                       "cnn.dense_widths = 8\n"
                       "cnn.epochs = 5\n")
        agg = tmp_path / "agg.csv"
        code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "raw.csv"),
                     "--aggregate-out", str(agg)])
        assert code == 0
        assert "failed" not in capsys.readouterr().err
        medians = {(c, int(n)): float(r) for c, n, r in
                   (line.split(",") for line in agg.read_text().splitlines()[1:])}
        assert sorted(medians) == [(c, n) for c in ("CNN_EXPLICIT", "CNN_TRAINED",
                                                    "IAC", "IAC_FLIPS")
                                   for n in (2, 8)]
        # A ring and a bar are far apart; the model-based classifiers
        # separate them from two examples.
        for name in ("IAC", "IAC_FLIPS", "CNN_EXPLICIT"):
            assert medians[name, 2] <= 0.1 and medians[name, 8] <= 0.1

    def test_task_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + "experiment.task = two_templates\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "line 9: unknown key 'experiment.task'" in capsys.readouterr().err

    def test_nan_learning_rate_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + "experiment.classifiers = CNN_TRAINED\n"
                       "cnn.learning_rate = nan\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "finite positive rate" in err and "Traceback" not in err

    def test_overflowing_learning_rate_fails_rows(self, tmp_path, capsys):
        # Every weight overflows, so every probability is NaN; the rows
        # must fail rather than report a risk of 1/2.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG.replace("n_list = 2", "n_list = 8")
                       .replace("n_test = 6", "n_test = 20")
                       + "experiment.classifiers = CNN_TRAINED\n"
                       "cnn.learning_rate = 1e300\n")
        raw = tmp_path / "raw.csv"
        code = main(["bench", "--config", str(cfg), "--out", str(raw),
                     "--aggregate-out", str(tmp_path / "agg.csv")])
        assert code == 1
        assert raw.read_text().splitlines()[1:] == ["CNN_TRAINED,8,0,nan",
                                                    "CNN_TRAINED,8,1,nan"]
        assert "2 of 2 rows failed" in capsys.readouterr().err

    def test_too_many_cnn_filters_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + "experiment.classifiers = CNN_TRAINED\n"
                       "cnn.n_filters = 65536\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "at most 65535" in err and "Traceback" not in err

    def test_infinite_cnn_beta_exits_2(self, tmp_path, capsys):
        # With an infinite temperature every loss is NaN.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + "experiment.classifiers = CNN_TRAINED\n"
                       "cnn.beta = inf\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "temperature must be positive and finite" in err
        assert "Traceback" not in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + "mystery.key = 5\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + "experiment.d = 2\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert ("line 9: key 'experiment.d' repeats line 8"
                in capsys.readouterr().err)

    def test_repeated_list_entry_exits_2(self, tmp_path, capsys):
        # Each copy would print its own rows and weight the median.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG.replace("n_list = 2", "n_list = 2,2")
                       + "experiment.classifiers = IAC,IAC\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: n_list repeats 2\n"
        assert captured.out == ""

    def test_bank_beta_key_is_gone(self, tmp_path, capsys):
        # The bank's temperature never changed a label or a risk.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + "bank.beta = 1\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "line 9: unknown key 'bank.beta'" in capsys.readouterr().err


class TestPathFlags:
    """Every path flag of every subcommand, given a path that cannot be read
    or written, exits with its documented code and one line on stderr."""

    READS = [
        (["bench", "--config", "{bad}"], 2),
        (["align", "--gallery", "{bad}", "--query", "{query}"], 3),
        (["align", "--gallery", "{data}", "--query", "{bad}"], 3),
        (["cnn", "bank", *_TEMPLATES, "--image", "{bad}", "--xi-max", "1"], 3),
        (["cnn", "train", "--data", "{bad}", "--out", "{ckpt}"], 3),
        (["cnn", "classify", "--checkpoint", "{bad}", "--image", "{query}"], 3),
        (["cnn", "classify", "--checkpoint", "{ckpt}", "--image", "{bad}"], 3),
        (["sep", "--template0", "pgm:path={bad}", "--template1", "cone"], 3),
    ]
    WRITES = [
        GEN_ARGS + ["--out", "{bad}"],
        ["cnn", "train", "--data", "{data}", "--out", "{bad}", "--epochs", "1",
         "--n-filters", "2", "--batch-size", "4"],
        ["bench", "--config", "{cfg}", "--out", "{bad}"],
        ["bench", "--config", "{cfg}", "--aggregate-out", "{bad}"],
    ]

    @pytest.fixture()
    def paths(self, dataset_dir, tmp_path):
        ckpt = tmp_path / "net.ckpt"
        ckpt.write_bytes(save_checkpoint(TrainableCnn(ArchSpec())))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TestBench.CONFIG)
        (tmp_path / "empty").mkdir()
        (tmp_path / "file").write_bytes(b"")
        return {"data": dataset_dir, "query": dataset_dir / "item_00000.pgm",
                "ckpt": ckpt, "cfg": cfg, "absent": tmp_path / "absent",
                "directory": tmp_path / "empty", "nul": tmp_path / "a\0b",
                "under_file": tmp_path / "file" / "out",
                "under_absent": tmp_path / "absent" / "out"}

    @staticmethod
    def run(argv, paths, bad, capsys):
        code = main([arg.format(bad=paths[bad], **paths) for arg in argv])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("bad", ["absent", "directory", "nul"])
    @pytest.mark.parametrize("argv, code", READS,
                             ids=["config", "gallery", "query", "bank-image",
                                  "data", "checkpoint", "classify-image",
                                  "pgm-template"])
    def test_unreadable_input(self, paths, capsys, argv, code, bad):
        got, err = self.run(argv, paths, bad, capsys)
        assert got == code
        assert err.startswith({2: "config error: ", 3: "data error: "}[code])

    @pytest.mark.parametrize("argv", WRITES, ids=["gen", "train", "bench-raw",
                                                  "bench-aggregate"])
    def test_unwritable_output(self, paths, capsys, argv):
        code, err = self.run(argv, paths, "under_file", capsys)
        assert code == 2
        assert err.startswith(f"config error: cannot write {paths['under_file']}")

    @pytest.mark.parametrize("bad", ["under_file", "under_absent"])
    @pytest.mark.parametrize("argv", WRITES[1:], ids=["train", "bench-raw",
                                                      "bench-aggregate"])
    def test_unwritable_output_fails_before_the_work(self, paths, capsys,
                                                     monkeypatch, argv, bad):
        def never(*args, **kwargs):
            raise AssertionError("the work ran before the output was checked")

        monkeypatch.setattr(cli, "run_experiment", never)
        monkeypatch.setattr(cli, "train_least_squares", never)
        code, err = self.run(argv, paths, bad, capsys)
        assert code == 2
        assert err.startswith(f"config error: cannot write {paths[bad]}")


_FAULT_PROBE = """
import contextlib, io, json, resource, sys
from deformclass import cli

faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["bench", "--config", sys.argv[1]])
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"code": code, "faults": faults}))
"""


class TestAllocatorPolicy:
    """``main`` sets glibc's mmap and trim thresholds for its own process,
    so the large temporaries of a sweep reuse heap pages instead of
    faulting fresh ones in; where it cannot, the command runs as before."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the thresholds are glibc's")
    def test_second_sweep_reuses_freed_memory(self, tmp_path):
        # Measured on a 2-vCPU VM: the second call took 668-1179 minor
        # faults with glibc's default dynamic thresholds and 163-173 with
        # the command's; the rest are the interpreter's own arenas.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("task.template0 = tent:delta=0.25\n"
                       "task.template1 = cross:arm=0.25,taper=0.08\n"
                       "experiment.classifiers = IAC_FLIPS\n"
                       "experiment.n_list = 8,32\n"
                       "experiment.n_test = 40\n"
                       "experiment.d = 64\n"
                       "experiment.repetitions = 1\n")
        src = str(Path(deformclass.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(cfg)],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        got = json.loads(done.stdout)
        assert got["code"] == 0
        assert got["faults"][1] < 400, got["faults"]

    @pytest.mark.parametrize("library", ["unloadable", "no-mallopt"])
    def test_runs_without_mallopt(self, tmp_path, capsys, monkeypatch, library):
        loads = []

        def cdll(name):
            loads.append(name)
            if library == "unloadable":
                raise OSError(f"cannot load {name}")
            return object()  # a C library without mallopt

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        out = tmp_path / "data"
        assert main(GEN_ARGS + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 6 images to {out}\n"
        assert loads == ([None] if sys.platform.startswith("linux") else [])
