"""Self-tests of the benchmark's own logic.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""
import contextlib
import io
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from metrics import self_times, tail, union_length  # noqa: E402
from tracing import Span, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Disk1nn  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return run._import_program()


# -- tail rule ----------------------------------------------------------------

def test_tail_omitted_below_twenty_units():
    assert tail([0.1] * 19) is None


def test_tail_at_twenty_units_is_the_median_rank():
    lat = [float(k) for k in range(1, 21)]
    assert tail(lat) == (10.0, 50.0, 10)


def test_tail_keeps_ten_units_beyond():
    lat = [float(k) for k in range(100, 0, -1)]
    value, pct, beyond = tail(lat)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(1 for v in lat if v > value) == 10


# -- self time ------------------------------------------------------------------

def test_union_of_overlapping_intervals():
    assert union_length([(1.0, 5.0), (3.0, 8.0), (9.0, 10.0)]) == 8.0
    assert union_length([]) == 0.0


def test_self_time_with_overlapping_children_from_two_threads():
    spans = [Span(1, None, "harness.run_experiment", 100, 0.0, 10.0, "unit"),
             Span(2, 1, "datagen.generate_dataset", 200, 1.0, 5.0, "unit"),
             Span(3, 1, "datagen.generate_dataset", 300, 3.0, 8.0, "unit"),
             Span(4, 3, "model.rasterize", 300, 4.0, 6.0, "unit"),
             Span(5, 1, "align.build_gallery", 200, 9.0, 12.0, "unit")]
    own = self_times(spans)
    # children cover [1, 8] and, clipped to the parent, [9, 10]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(2.0)


def test_tracer_links_worker_thread_spans_to_the_driving_span():
    tracer = Tracer(SimpleNamespace(__name__="nothing_to_patch"))
    tracer.phase = "unit"

    def child():
        time.sleep(0.05)
        return threading.get_ident()

    traced_child = tracer._wrap("child", child, None)

    def parent():
        with ThreadPoolExecutor(max_workers=2) as ex:
            futures = [ex.submit(traced_child) for _ in range(2)]
            return [f.result(timeout=10) for f in futures]

    tids = tracer._wrap("parent", parent, None)()
    top = next(s for s in tracer.spans if s.name == "parent")
    kids = [s for s in tracer.spans if s.name == "child"]
    assert len(kids) == 2 and all(s.parent == top.sid for s in kids)
    assert {s.tid for s in kids} == set(tids)
    assert top.tid not in set(tids)
    own = self_times(tracer.spans)
    covered = union_length([(s.start, s.end) for s in kids])
    assert own[top.sid] == pytest.approx((top.end - top.start) - covered)


def test_install_patches_every_binding_and_uninstall_restores(api):
    before = (api.harness.classify_1nn, api.cli.read_dataset,
              api.datagen.rasterize, api.train.TrainableCnn.forward_batch)
    tracer = Tracer(api)
    tracer.install("unit")
    try:
        assert api.harness.classify_1nn is not before[0]
        assert api.cli.read_dataset is not before[1]
        assert api.datagen.rasterize is not before[2]
        assert api.train.TrainableCnn.forward_batch is not before[3]
    finally:
        tracer.uninstall()
    assert (api.harness.classify_1nn, api.cli.read_dataset,
            api.datagen.rasterize, api.train.TrainableCnn.forward_batch) == before


# -- failures and references --------------------------------------------------

def test_failed_frac_is_one_on_a_d2_config(api, tmp_path):
    wl = WORKLOADS["sweep_iac"]
    config = tmp_path / "d2.cfg"
    config.write_text(wl.config_text(5, d=2), encoding="utf-8")
    state = wl.setup(api, {"configs": [config]})
    with contextlib.redirect_stderr(io.StringIO()):
        units = run.run_units(api, wl, state, seconds=0.0, min_units=3)
    failed, problems = run.count_failures(wl, state, units, refs=None)
    assert len(units) == 3
    assert failed / len(units) == 1.0
    assert all(u.error is None for u in units)  # bench returned; rows say NaN
    assert any("nan" in p for p in problems)


def test_reference_mismatch_is_detected(api, tmp_path):
    wl = WORKLOADS["sweep_iac"]
    refs = run.load_references()["sweep_iac"]
    state = wl.setup(api, wl.inputs(api, DEFAULT_SEED, tmp_path))
    units = run.run_units(api, wl, state, seconds=0.0, min_units=1)
    assert run.count_failures(wl, state, units, refs) == (0, [])
    tampered = [refs[0].replace("IAC,2,0,0.000000", "IAC,2,0,0.025000")]
    assert tampered[0] != refs[0]
    failed, problems = run.count_failures(wl, state, units, tampered)
    assert failed == 1 and "differs from reference" in problems[0]


def test_toleranced_and_exact_fields_of_a_disk_reference():
    wl = Disk1nn()
    ref = {"label": 1, "neighbor": 7, "distance": 0.25, "orientation": 2}
    assert wl.compare(ref, dict(ref, distance=0.250001)) == []
    assert wl.compare(ref, dict(ref, distance=0.2501))
    assert wl.compare(ref, dict(ref, neighbor=8))


def test_manifest_matches_benchmark_json():
    path = Path(run.ROOT) / "BENCHMARK.json"
    assert json.loads(path.read_text(encoding="utf-8")) == run.manifest()
