import pytest

from deformclass import (
    ArchSpec,
    ConfigError,
    DeformDistribution,
    ExperimentConfig,
    MnistPair,
    OptSpec,
    RiskReport,
    RiskRow,
    TwoTemplates,
    emit_report,
    parse_config,
    parse_template_spec,
    run_experiment,
)

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
        task=TwoTemplates(parse_template_spec("tent:delta=0.25"),
                          parse_template_spec("cross:arm=0.25,taper=0.08")),
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


class TestTemplateSpec:
    def test_tent_with_center(self):
        f = parse_template_spec("tent:delta=0.2,cx=0.45,cy=0.55")
        assert f.kind == "tent"
        assert f.params == (0.2, 0.45, 0.55)

    def test_bare_names_use_defaults(self):
        assert parse_template_spec("tent").params == (0.25, 0.5, 0.5)
        assert parse_template_spec("cone").params[0] == 0.2
        assert parse_template_spec("cross").params == (1 / 16, 1 / 16)

    def test_errors(self):
        for bad in ("blob", "tent:delta", "tent:delta=0.9", "tent:wobble=1",
                    "tent:delta=abc", "tent:delta=nan", "cone:radius=nan",
                    "tent:cx=nan", "cone:cy=nan"):
            with pytest.raises(ConfigError):
                parse_template_spec(bad)


class TestParseConfig:
    def test_happy_path(self):
        cfg = parse_config(MINIMAL_CONFIG)
        assert isinstance(cfg.task, TwoTemplates)
        assert cfg.task.f0.kind == "tent"
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

    def test_unknown_key_reports_line(self):
        text = "task.template0 = tent\ntask.template1 = cone\nbogus.key = 1\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(text)

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_bad_numeric(self):
        with pytest.raises(ConfigError, match="experiment.d"):
            parse_config(MINIMAL_CONFIG + "experiment.d = many\n")
        for bad in ("align.m = 1", "bank.beta = -1", "bank.beta = nan"):
            with pytest.raises(ConfigError, match=bad.split(" ")[0]):
                parse_config(MINIMAL_CONFIG + bad + "\n")

    def test_missing_templates(self):
        with pytest.raises(ConfigError, match="template"):
            parse_config("experiment.n_test = 5\n")

    def test_mnist_task_needs_paths(self):
        with pytest.raises(ConfigError, match="mnist"):
            parse_config("experiment.task = mnist_pair\n")

    def test_unknown_task_kind(self):
        with pytest.raises(ConfigError, match="task kind"):
            parse_config("experiment.task = sorting_hat\n")

    def test_unknown_classifier_rejected(self):
        with pytest.raises(ConfigError, match="classifier"):
            parse_config(MINIMAL_CONFIG + "experiment.classifiers = ORACLE\n")

    def test_bad_distribution(self):
        with pytest.raises(ConfigError, match="distribution"):
            parse_config("task.template0 = tent\ntask.template1 = cone\n"
                         "q.xi_range = 0.2,0.4\n")


class TestConfigValidation:
    def test_mnist_excludes_explicit_bank(self):
        cfg = ExperimentConfig(
            task=MnistPair(0, 1, "img", "lab"),
            classifiers=("CNN_EXPLICIT",))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_template_task_needs_q(self):
        with pytest.raises(ConfigError):
            tiny_config(q=None).validate()

    def test_count_floors(self):
        for bad in (dict(repetitions=0), dict(n_test=0), dict(n_list=()),
                    dict(align_m=1), dict(bank_beta=-1.0),
                    dict(bank_beta=float("nan"))):
            with pytest.raises(ConfigError):
                tiny_config(**bad).validate()


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

    def test_empty_classifiers_warns(self, capsys):
        report = run_experiment(tiny_config(classifiers=()))
        assert report.rows == ()
        assert "no classifiers" in capsys.readouterr().err


class TestReporting:
    @pytest.fixture()
    def mixed_report(self):
        rows = (
            RiskRow("IAC", 2, 0, 0.10),
            RiskRow("IAC", 2, 1, 0.30),
            RiskRow("IAC", 2, 2, float("nan"), error="boom"),
            RiskRow("IAC", 4, 0, 0.05),
        )
        return RiskReport(rows=rows, n_test=10)

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
