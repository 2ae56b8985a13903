import numpy as np
import pytest

from deformclass import GrayImage, cli, write_pgm
from deformclass.cli import main

GEN_ARGS = ["gen", "--template0", "tent:delta=0.25",
            "--template1", "cross:arm=0.25,taper=0.08",
            "--n", "6", "--d", "16", "--seed", "1"]


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(GEN_ARGS + ["--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_manifest_and_images(self, dataset_dir, capsys):
        assert (dataset_dir / "manifest.csv").exists()
        assert len(list(dataset_dir.glob("*.pgm"))) == 6

    def test_bad_template_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--template0", "blob", "--template1", "tent",
                     "--n", "2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


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

    def test_missing_gallery_exits_3(self, tmp_path, capsys):
        query = tmp_path / "q.pgm"
        query.write_bytes(write_pgm(GrayImage(np.ones((4, 4)))))
        code = main(["align", "--gallery", str(tmp_path / "absent"),
                     "--query", str(query)])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_blank_query_exits_4(self, dataset_dir, tmp_path, capsys):
        query = tmp_path / "blank.pgm"
        query.write_bytes(write_pgm(GrayImage(np.zeros((16, 16)))))
        code = main(["align", "--gallery", str(dataset_dir),
                     "--query", str(query)])
        assert code == 4
        assert "numeric failure" in capsys.readouterr().err


class TestCnn:
    def test_bank_labels_each_template(self, dataset_dir, tmp_path, capsys):
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        code = main(["cnn", "bank", "--template0", "tent:delta=0.25",
                     "--template1", "cross:arm=0.25,taper=0.08",
                     "--image", str(query), "--d", "16", "--xi-max", "1"])
        assert code == 0
        assert "label=" in capsys.readouterr().out

    def test_bank_nan_beta_exits_2(self, dataset_dir, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("bank built before the temperature check")

        monkeypatch.setattr(cli, "build_filter_bank", unreachable)
        query = next(iter(sorted(dataset_dir.glob("*.pgm"))))
        for beta in ("nan", "-1", "0"):
            code = main(["cnn", "bank", "--template0", "tent:delta=0.25",
                         "--template1", "cross:arm=0.25,taper=0.08",
                         "--image", str(query), "--d", "16", "--xi-max", "1",
                         "--beta", beta])
            assert code == 2
            err = capsys.readouterr().err
            assert "config error: temperature must be positive" in err

    def test_bank_malformed_image_exits_3(self, tmp_path, capsys):
        query = tmp_path / "deep.pgm"
        query.write_bytes(b"P5\n16 16\n65535\n" + bytes(512))
        code = main(["cnn", "bank", "--template0", "tent:delta=0.25",
                     "--template1", "cross:arm=0.25,taper=0.08",
                     "--image", str(query), "--d", "16", "--xi-max", "1"])
        assert code == 3
        assert "maxval 65535 unsupported" in capsys.readouterr().err

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

    def test_non_numeric_template_parameter_exits_2(self, capsys):
        code = main(["sep", "--template0", "tent:delta=abc",
                     "--template1", "tent:delta=0.25"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_nan_template_parameter_exits_2(self, capsys):
        code = main(["sep", "--template0", "tent:delta=nan",
                     "--template1", "tent:delta=0.25"])
        assert code == 2
        assert "config error" in capsys.readouterr().err


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
        cfg.write_text(self.CONFIG + "experiment.d = 2\n")
        raw = tmp_path / "raw.csv"
        agg = tmp_path / "agg.csv"
        code = main(["bench", "--config", str(cfg), "--out", str(raw),
                     "--aggregate-out", str(agg)])
        assert code == 1
        assert raw.read_text().splitlines()[1:] == ["IAC,2,0,nan", "IAC,2,1,nan"]
        assert agg.read_text().splitlines() == ["classifier,n,median_R_N"]
        assert "2 of 2 rows failed" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["bench", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG + "mystery.key = 5\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err
