import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from deformclass import (
    ArchSpec,
    ConfigError,
    DataError,
    DeformClassError,
    DeformDistribution,
    ExperimentConfig,
    GrayImage,
    OptSpec,
    RiskReport,
    RiskRow,
    TemplateFunction,
    cone,
    cross,
    emit_report,
    parse_config,
    parse_template_spec,
    raster_interp,
    read_pgm,
    run_experiment,
    tent,
    write_pgm,
)
from deformclass.harness import _KEYS, _KNOWN_KEYS
from deformclass.model import MAX_RESOLUTION

MINIMAL_CONFIG = """
# minimal sweep over two synthetic shapes
task.template0 = tent:delta=0.25
task.template1 = cross:arm=0.25,taper=0.08
q.eta_range = 0.8,1.2
q.xi_range = 1.0,1.5
experiment.n_list = 2,4
experiment.n_test = 8
experiment.repetitions = 2
experiment.d = 16
"""


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        template0=parse_template_spec("tent:delta=0.25"),
        template1=parse_template_spec("cross:arm=0.25,taper=0.08"),
        q=DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5)),
        n_list=(2,),
        n_test=6,
        repetitions=2,
        d=16,
        classifiers=("IAC",),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# A valid value unequal to the default for every config key, the
# ExperimentConfig field it sets (nested fields dotted) and what it parses to.
NON_DEFAULT = {
    "experiment.n_list": ("3,5", "n_list", (3, 5)),
    "experiment.n_test": ("7", "n_test", 7),
    "experiment.repetitions": ("4", "repetitions", 4),
    "experiment.d": ("32", "d", 32),
    "experiment.classifiers": ("IAC_FLIPS,CNN_EXPLICIT", "classifiers",
                               ("IAC_FLIPS", "CNN_EXPLICIT")),
    "experiment.seed": ("9", "seed", 9),
    "align.m": ("24", "align_m", 24),
    "bank.xi_max": ("1", "bank_xi_max", 1),
    "q.eta_range": ("0.5,2", "q.eta_range", (0.5, 2.0)),
    "q.xi_range": ("0.75,1.25", "q.xi_range", (0.75, 1.25)),
    "q.xi_prime_range": ("1,2", "q.xi_prime_range", (1.0, 2.0)),
    "q.flip_prob": ("0.25", "q.flip_prob", 0.25),
    "cnn.n_filters": ("5", "cnn_arch.n_filters", 5),
    "cnn.filter_size": ("4", "cnn_arch.filter_size", 4),
    "cnn.dense_widths": ("16,8", "cnn_arch.dense_widths", (16, 8)),
    "cnn.beta": ("2.5", "cnn_arch.beta", 2.5),
    "cnn.learning_rate": ("0.05", "cnn_opt.learning_rate", 0.05),
    "cnn.epochs": ("3", "cnn_opt.epochs", 3),
    "cnn.batch_size": ("8", "cnn_opt.batch_size", 8),
}


def assert_same_template(f, g):
    """f and g take the same values on a grid across the unit square and
    have the same mass and Lipschitz constant."""
    t = np.linspace(0.0, 1.0, 41)
    assert np.array_equal(f(t[:, None], t[None, :]), g(t[:, None], t[None, :]))
    assert (f.l1_norm, f.lipschitz_const) == (g.l1_norm, g.lipschitz_const)


class TestTemplateSpec:
    def test_tent_with_center(self):
        f = parse_template_spec("tent:delta=0.2,cx=0.45,cy=0.55")
        assert_same_template(f, tent(0.2, cx=0.45, cy=0.55))

    def test_bare_names_use_defaults(self):
        assert_same_template(parse_template_spec("tent"), tent(0.25))
        assert_same_template(parse_template_spec("cone"), cone(0.2))
        assert_same_template(parse_template_spec("cross"), cross(1 / 16, 1 / 16))

    def test_errors(self):
        for bad in ("blob", "tent:delta", "tent:delta=0.9", "tent:wobble=1",
                    "tent:delta=abc", "tent:delta=nan", "cone:radius=nan",
                    "tent:cx=nan", "cone:cy=nan"):
            with pytest.raises(ConfigError):
                parse_template_spec(bad)
        for bad, key in (("tent:delta=0.25,delta=0.1", "delta"),
                         ("cross:arm=0.2,arm=0.1", "arm"),
                         ("cone:cx=0.4, cx=0.4", "cx")):
            with pytest.raises(ConfigError, match=f"repeats key '{key}'"):
                parse_template_spec(bad)


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory, glyph_pgms):
    """The only files a ``pgm:`` spec under test may name: reading an
    arbitrary path could block (``/dev/zero`` never ends)."""
    base = tmp_path_factory.mktemp("specs")
    (base / "blank.pgm").write_bytes(write_pgm(GrayImage(np.zeros((8, 8)))))
    (base / "notes.txt").write_text("not an image\n")
    (base / "folder").mkdir()
    return {"glyph": str(glyph_pgms[0]), "blank": str(base / "blank.pgm"),
            "text": str(base / "notes.txt"), "directory": str(base / "folder"),
            "missing": str(base / "absent.pgm"), "nul": "a\0b"}


def key_value_parts():
    keys = st.sampled_from(["delta", "radius", "arm", "taper", "cx", "cy",
                            "path", "center", ""]) | st.text(max_size=4)
    values = (st.floats().map(repr) | st.sampled_from(["1e-110", "1e-320"])
              | st.text(max_size=4))
    return st.lists(st.builds(lambda k, v: f"{k}={v}", keys, values), max_size=4)


class TestPgmSpec:
    def test_glyph_becomes_raster_template(self, glyph_pgms):
        f = parse_template_spec(f"pgm:path={glyph_pgms[0]}")
        ref = raster_interp(read_pgm(glyph_pgms[0].read_bytes()).pixels)
        assert_same_template(f, ref)

    def test_path_is_verbatim_and_relative_to_cwd(self, glyph_pgms, tmp_path,
                                                  monkeypatch):
        (tmp_path / "a,b=c.pgm").write_bytes(glyph_pgms[1].read_bytes())
        monkeypatch.chdir(tmp_path)
        ref = raster_interp(read_pgm(glyph_pgms[1].read_bytes()).pixels)
        assert_same_template(parse_template_spec("pgm:path=a,b=c.pgm"), ref)

    @pytest.mark.parametrize("name, error, match", [
        ("missing", DataError, "cannot read"),
        ("directory", DataError, "cannot read"),
        ("nul", DataError, "cannot read"),
        ("text", DataError, "PGM magic"),
        ("blank", ConfigError, "invalid template"),
    ])
    def test_file_errors(self, spec_paths, name, error, match):
        with pytest.raises(error, match=match):
            parse_template_spec(f"pgm:path={spec_paths[name]}")

    def test_needs_path(self):
        for bad in ("pgm", "pgm:", "pgm:path=", "pgm:file=x.pgm", "pgm:Path=x"):
            with pytest.raises(ConfigError, match="needs path="):
                parse_template_spec(bad)

    @given(data=st.data())
    def test_any_spec_is_a_template_or_a_package_error(self, spec_paths, data):
        spec = data.draw(
            st.text().filter(lambda s: not s.startswith("pgm:"))
            | st.builds(lambda kind, parts: kind + ":" + ",".join(parts),
                        st.sampled_from(["tent", "cone", "cross", "blob", ""]),
                        key_value_parts())
            | st.sampled_from(sorted(spec_paths.values())).map(
                lambda path: "pgm:path=" + path)
            | st.sampled_from(["pgm", "pgm:", "pgm:path=", "pgm:file=x"]))
        try:
            assert isinstance(parse_template_spec(spec), TemplateFunction)
        except DeformClassError:
            pass


class TestParseConfig:
    def test_happy_path(self):
        cfg = parse_config(MINIMAL_CONFIG)
        assert_same_template(cfg.template0, tent(0.25))
        assert_same_template(cfg.template1, cross(0.25, 0.08))
        assert cfg.n_list == (2, 4)
        assert cfg.n_test == 8
        assert cfg.d == 16
        assert cfg.classifiers == ("IAC",)
        assert cfg.q.eta_range == (0.8, 1.2)

    def test_defaults(self):
        cfg = parse_config("task.template0 = tent\ntask.template1 = cone\n")
        assert cfg.n_list == (2, 4, 8, 16, 32, 64)
        assert cfg.repetitions == 30
        assert cfg.d == 64
        assert cfg.seed == 0
        # every default is the dataclasses' own
        assert cfg == ExperimentConfig(cfg.template0, cfg.template1)
        assert cfg.q == DeformDistribution()
        assert (cfg.cnn_arch, cfg.cnn_opt) == (ArchSpec(), OptSpec())

    def test_unknown_key_reports_line(self):
        text = "task.template0 = tent\ntask.template1 = cone\nbogus.key = 1\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(text)

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_bad_numeric(self):
        with pytest.raises(ConfigError, match="experiment.d"):
            parse_config(MINIMAL_CONFIG.replace("experiment.d = 16",
                                                "experiment.d = many"))
        with pytest.raises(ConfigError, match="align.m"):
            parse_config(MINIMAL_CONFIG + "align.m = 1\n")
        with pytest.raises(ConfigError, match="q.eta_range needs two "
                                              "comma-separated numbers, got '1'"):
            parse_config(MINIMAL_CONFIG.replace("q.eta_range = 0.8,1.2",
                                                "q.eta_range = 1"))

    def test_infinite_temperature_rejected(self):
        with pytest.raises(ConfigError, match="temperature must be positive and finite"):
            parse_config(MINIMAL_CONFIG + "cnn.beta = inf\n")

    def test_repeated_key_reports_both_lines(self):
        # MINIMAL_CONFIG sets experiment.d on its line 10.
        for first, second in (("16", "32"), ("many", "16")):
            text = (MINIMAL_CONFIG.replace("experiment.d = 16",
                                           f"experiment.d = {first}")
                    + f"experiment.d = {second}\n")
            with pytest.raises(ConfigError, match="line 11: key 'experiment.d' "
                                                  "repeats line 10"):
                parse_config(text)

    def test_missing_templates(self):
        with pytest.raises(ConfigError, match="template"):
            parse_config("experiment.n_test = 5\n")

    def test_unknown_classifier_rejected(self):
        with pytest.raises(ConfigError, match="classifier"):
            parse_config(MINIMAL_CONFIG + "experiment.classifiers = ORACLE\n")

    def test_list_entries_may_contain_spaces(self):
        cfg = parse_config(MINIMAL_CONFIG.replace("n_list = 2,4", "n_list = 2, 4")
                           + "experiment.classifiers = IAC, IAC_FLIPS ,CNN_TRAINED\n")
        assert cfg.n_list == (2, 4)
        assert cfg.classifiers == ("IAC", "IAC_FLIPS", "CNN_TRAINED")

    @pytest.mark.parametrize("line, message", [
        ("experiment.n_list = 4,2,4", "n_list repeats 4"),
        ("experiment.classifiers = IAC,IAC_FLIPS,IAC", "classifiers repeats 'IAC'"),
        ("experiment.classifiers = IAC, IAC", "classifiers repeats 'IAC'"),
    ])
    def test_repeated_list_entry_rejected(self, line, message):
        text = MINIMAL_CONFIG.replace("experiment.n_list = 2,4\n", "")
        with pytest.raises(ConfigError, match=message):
            parse_config(text + line + "\n")

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_each_key_sets_only_its_field(self, key):
        text, path, value = NON_DEFAULT[key]
        cfg = parse_config(f"task.template0 = tent\ntask.template1 = cone\n"
                           f"{key} = {text}\n")
        base = ExperimentConfig(cfg.template0, cfg.template1)
        part, _, name = path.rpartition(".")
        if part:
            value = replace(getattr(base, part), **{name: value})
            name = part
        expected = replace(base, **{name: value})
        assert expected != base
        assert cfg == expected

    def test_every_key_has_a_non_default_case(self):
        assert set(NON_DEFAULT) == set(_KEYS)

    def test_readme_config_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(block)
        assert cfg.classifiers == ("IAC", "CNN_TRAINED")

    def test_bad_distribution(self):
        with pytest.raises(ConfigError, match="distribution"):
            parse_config("task.template0 = tent\ntask.template1 = cone\n"
                         "q.xi_range = 0.2,0.4\n")

    @given(text=st.text()
           | st.lists(st.builds(
               lambda k, v: f"{k} = {v}",
               st.sampled_from(sorted(_KNOWN_KEYS)) | st.text(max_size=6),
               st.sampled_from(["nan", "inf", "-1", "0", "2", "0.5,1", "1,2,3", "",
                                "tent", "cone:radius=1e-200", "IAC,CNN_TRAINED"])
               | st.integers().map(str) | st.floats().map(repr)
               | st.text(max_size=8)), max_size=8).map(
               lambda lines: MINIMAL_CONFIG + "\n".join(lines)))
    def test_any_text_is_a_config_or_a_package_error(self, text):
        # Reading a named file could block (``/dev/zero`` never ends).
        assume("pgm:" not in text)
        try:
            assert isinstance(parse_config(text), ExperimentConfig)
        except DeformClassError:
            pass


class TestConfigValidation:
    def test_template_task_needs_q(self):
        with pytest.raises(ConfigError):
            tiny_config(q=None)

    def test_count_floors(self):
        for bad in (dict(repetitions=0), dict(n_test=0), dict(n_list=()),
                    dict(align_m=1), dict(align_m=MAX_RESOLUTION + 1),
                    dict(seed=-1)):
            with pytest.raises(ConfigError):
                tiny_config(**bad)
        # the cap on d and the bank's scale limit, whatever the classifiers
        for bad, message in (
                (dict(d=MAX_RESOLUTION + 1), "resolution 4097 above maximum 4096"),
                (dict(bank_xi_max=0), "scale limit must be >= 1, got 0"),
                (dict(bank_xi_max=-3), "scale limit must be >= 1, got -3")):
            with pytest.raises(ConfigError, match=message):
                tiny_config(**bad)
        assert tiny_config(align_m=MAX_RESOLUTION).align_m == MAX_RESOLUTION


class TestRunExperiment:
    def test_deterministic_across_reruns(self):
        cfg = tiny_config(classifiers=("IAC", "CNN_TRAINED"),
                          cnn_arch=ArchSpec(n_filters=4, filter_size=3,
                                            dense_widths=(8,)),
                          cnn_opt=OptSpec(epochs=2, batch_size=4))
        first = emit_report(run_experiment(cfg))
        second = emit_report(run_experiment(cfg))
        assert first == second

    def test_seed_changes_output(self):
        arch = ArchSpec(n_filters=4, filter_size=3, dense_widths=(8,))
        opt = OptSpec(epochs=2, batch_size=4)
        a = emit_report(run_experiment(tiny_config(
            classifiers=("CNN_TRAINED",), cnn_arch=arch, cnn_opt=opt, seed=0)))
        b = emit_report(run_experiment(tiny_config(
            classifiers=("CNN_TRAINED",), cnn_arch=arch, cnn_opt=opt, seed=1)))
        assert a != b

    def test_rows_sorted_and_complete(self):
        cfg = tiny_config(classifiers=("IAC_FLIPS", "IAC"), n_list=(4, 2))
        report = run_experiment(cfg)
        keys = [(r.classifier, r.n, r.repetition) for r in report.rows]
        assert keys == sorted(keys)
        assert len(report.rows) == 2 * 2 * 2
        assert all(r.error == "" for r in report.rows)

    def test_iac_classifiers_share_one_alignment_per_image(self, monkeypatch):
        import deformclass.align as align
        import deformclass.harness as harness

        aligned, searches = [], []

        def counting_align(images, m=None):
            aligned.extend(images)
            return align_images(images, m)

        def counting_classify(gallery, queries, flips=False):
            searches.append(len(queries))
            return classify_1nn(gallery, queries, flips)

        # build_gallery aligns through the align module's binding, the test
        # queries through the harness's.
        align_images, classify_1nn = align.align_images, align.classify_1nn
        monkeypatch.setattr(align, "align_images", counting_align)
        monkeypatch.setattr(harness, "align_images", counting_align)
        monkeypatch.setattr(harness, "classify_1nn", counting_classify)
        cfg = tiny_config(classifiers=("IAC", "IAC_FLIPS"), n_list=(2, 4))
        report = run_experiment(cfg)
        assert all(r.error == "" for r in report.rows)
        # Per item: n train images and n_test test images, each aligned once.
        assert len(aligned) == cfg.repetitions * sum(n + cfg.n_test
                                                     for n in cfg.n_list)
        assert len({id(img) for img in aligned}) == len(aligned)
        # One search per item and classifier, over the whole test set.
        assert searches == [cfg.n_test] * (2 * cfg.repetitions * len(cfg.n_list))

    def test_cnn_classifiers_share_one_unit_norm_test_stack(self, monkeypatch):
        import deformclass.harness as harness
        from deformclass.train import TrainableCnn

        normalized, banked, predicted = [], [], []

        def counting_unit_arrays(data):
            normalized.append(data)
            return unit_arrays(data)

        def counting_bank(bank, img, beta=None):
            banked.append(img.pixels)
            return classify_bank(bank, img, beta)

        def counting_predict(net, x, chunk):
            predicted.append(x)
            return predict_batch(net, x, chunk)

        unit_arrays, classify_bank = harness.unit_arrays, harness.classify_bank
        predict_batch = TrainableCnn.predict_batch
        monkeypatch.setattr(harness, "unit_arrays", counting_unit_arrays)
        monkeypatch.setattr(harness, "classify_bank", counting_bank)
        monkeypatch.setattr(TrainableCnn, "predict_batch", counting_predict)
        cfg = tiny_config(classifiers=("CNN_EXPLICIT", "CNN_TRAINED"),
                          bank_xi_max=1,
                          cnn_arch=ArchSpec(n_filters=4, filter_size=3,
                                            dense_widths=(8,)),
                          cnn_opt=OptSpec(epochs=1, batch_size=4))
        report = run_experiment(cfg)
        assert all(r.error == "" for r in report.rows)
        # Per item: the train set once, for training, and the test set once.
        items = cfg.repetitions * len(cfg.n_list)
        assert len(normalized) == 2 * items
        assert len({id(data) for data in normalized}) == len(normalized)
        # The bank's queries are the rows of the stack the net predicts on.
        assert len(banked) == items * cfg.n_test and len(predicted) == items
        for i, x in enumerate(predicted):
            assert not x.flags.writeable
            for row, pixels in zip(x, banked[i * cfg.n_test:]):
                assert pixels.base is x and np.array_equal(pixels, row)

    def test_all_zero_test_image_fails_its_cnn_item(self, monkeypatch, capsys):
        import deformclass.harness as harness

        def zero_first_test_image(cfg, rep, n):
            train, test = draw(cfg, rep, n)
            first = replace(test.items[0],
                            image=GrayImage(np.zeros((cfg.d, cfg.d))))
            return train, replace(test, items=(first, *test.items[1:]))

        draw = harness._draw_template_sets
        monkeypatch.setattr(harness, "_draw_template_sets",
                            zero_first_test_image)
        cfg = tiny_config(classifiers=("CNN_EXPLICIT",), bank_xi_max=1,
                          repetitions=1)
        (row,) = run_experiment(cfg).rows
        assert row.error == "cannot normalize image 0: it is all zero"
        assert "NumericError" in capsys.readouterr().err

    def test_empty_classifiers_rejected(self):
        with pytest.raises(ConfigError, match="classifiers must name at least one"):
            tiny_config(classifiers=())


class TestReporting:
    @pytest.fixture()
    def mixed_report(self):
        rows = (
            RiskRow("IAC", 2, 0, 0.10),
            RiskRow("IAC", 2, 1, 0.30),
            RiskRow("IAC", 2, 2, float("nan"), error="boom"),
            RiskRow("IAC", 4, 0, 0.05),
        )
        return RiskReport(rows=rows)

    def test_aggregates_skip_error_rows(self, mixed_report):
        assert mixed_report.aggregates() == [("IAC", 2, 0.2), ("IAC", 4, 0.05)]

    def test_csv_raw_bytes(self, mixed_report):
        out = emit_report(mixed_report, fmt="csv", view="raw")
        lines = out.decode().split("\n")
        assert lines[0] == "classifier,n,repetition,R_N"
        assert lines[1] == "IAC,2,0,0.100000"
        assert lines[3] == "IAC,2,2,nan"
        assert out.endswith(b"\n")

    def test_csv_aggregate_bytes(self, mixed_report):
        out = emit_report(mixed_report, fmt="csv", view="aggregate")
        assert out == (b"classifier,n,median_R_N\n"
                       b"IAC,2,0.200000\n"
                       b"IAC,4,0.050000\n")

    def test_pretty_format(self, mixed_report):
        out = emit_report(mixed_report, fmt="pretty", view="aggregate").decode()
        lines = out.split("\n")
        assert lines[0].split() == ["classifier", "n", "median_R_N"]
        assert set(lines[1].replace(" ", "")) == {"-"}

    def test_bad_format_and_view(self, mixed_report):
        with pytest.raises(ConfigError):
            emit_report(mixed_report, fmt="xml")
        with pytest.raises(ConfigError):
            emit_report(mixed_report, view="transposed")
