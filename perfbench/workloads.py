"""The five workloads.

Each workload makes its inputs from the seed (untimed), performs the
program's set-up (timed into ``setup_s``), runs one unit at a time, and
checks every unit's output: invariants that need no reference on every
seed, and exact or toleranced agreement with ``references.json`` on the
default seed.
"""
from __future__ import annotations

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Tolerances for the reference comparison; everything else is exact.
BANK_Z_TOL = 1e-5      # z0/z1 come from a float32 fast path
SEP_DIST_TOL = 1e-6    # separation distances and gamma estimates
DISK_DIST_TOL = 2e-6   # the CLI prints distances with six decimals


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _close(name: str, ref: float, got: float, tol: float) -> list[str]:
    if not _finite(got) or abs(got - ref) > tol:
        return [f"{name} {got!r} differs from reference {ref!r} by more than {tol}"]
    return []


def _exact(name: str, ref, got) -> list[str]:
    return [] if ref == got else [f"{name} {got!r} != reference {ref!r}"]


class Workload:
    name = ""
    why = ""
    # distinct inputs per seed; unit i uses input i % inputs_per_seed
    inputs_per_seed = 16

    def inputs(self, api, seed: int, work: Path) -> dict:
        """The benchmark's own input generation; not part of set-up."""
        raise NotImplementedError

    def setup(self, api, inputs: dict) -> dict:
        """The program's one-time work before the first unit."""
        raise NotImplementedError

    def probe_state(self, api, state: dict, inputs: dict) -> dict:
        """Set-up for the default-seed reference probe of a run."""
        return self.setup(api, inputs)

    def unit(self, api, state: dict, i: int, tracer=None):
        raise NotImplementedError

    def check(self, state: dict, i: int, out) -> list[str]:
        """Invariants that hold on every seed."""
        raise NotImplementedError

    def fingerprint(self, out):
        """The JSON-able part of an output that references record."""
        return out

    def compare(self, ref, got) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Sweeps: in-process ``deformclass bench`` calls
# ---------------------------------------------------------------------------

_AGG_HEADER = "classifier,n,median_R_N"
_RAW_HEADER = "classifier,n,repetition,R_N"


class _Sweep(Workload):
    config = ""
    classifiers: tuple[str, ...] = ()
    n_list: tuple[int, ...] = ()
    n_test = 40

    def config_text(self, unit_seed: int, d: int = 64) -> str:
        return (self.config
                + f"experiment.classifiers={','.join(self.classifiers)}\n"
                + f"experiment.n_list={','.join(map(str, self.n_list))}\n"
                + f"experiment.n_test={self.n_test}\n"
                + f"experiment.d={d}\n"
                + "experiment.repetitions=1\n"
                + f"experiment.seed={unit_seed}\n")

    def inputs(self, api, seed, work):
        k = self.inputs_per_seed
        paths = []
        for j in range(k):
            path = work / f"{self.name}-{seed}-{j}.cfg"
            path.write_text(self.config_text(seed * k + j), encoding="utf-8")
            paths.append(path)
        return {"configs": paths}

    def setup(self, api, inputs):
        text = inputs["configs"][0].read_text(encoding="utf-8")
        return {"configs": inputs["configs"], "cfg": api.parse_config(text)}

    def unit(self, api, state, i, tracer=None):
        path = state["configs"][i % len(state["configs"])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            api.cli.main(["bench", "--config", str(path)])
        text = buf.getvalue()
        return text.split(_AGG_HEADER, 1)[0]

    def check(self, state, i, out):
        lines = out.splitlines()
        want = len(self.classifiers) * len(self.n_list)
        if not lines or lines[0] != _RAW_HEADER:
            return [f"raw CSV header missing: {out[:80]!r}"]
        if len(lines) - 1 != want:
            return [f"{len(lines) - 1} raw rows, expected {want}"]
        problems = []
        for line in lines[1:]:
            parts = line.split(",")
            try:
                risk = float(parts[3])
            except (IndexError, ValueError):
                problems.append(f"unparseable row {line!r}")
                continue
            if not (0.0 <= risk <= 1.0) or abs(risk * self.n_test
                                                - round(risk * self.n_test)) > 1e-4:
                problems.append(f"row {line!r} is not a risk over {self.n_test} tests")
        return problems

    def compare(self, ref, got):
        if got != ref:
            return [f"raw CSV differs from reference:\n{got}--- reference:\n{ref}"]
        return []


class SweepIac(_Sweep):
    name = "sweep_iac"
    why = ("many 1-NN queries against small galleries through bench: align "
           "and datagen dominate, no CNN; shows 1-NN batching and image copies")
    config = ("task.template0=tent:delta=0.25\n"
              "task.template1=cross:arm=0.25,taper=0.08\n"
              "q.eta_range=0.8,1.2\n"
              "q.xi_range=1.0,1.5\n"
              "q.flip_prob=0.5\n")
    classifiers = ("IAC", "IAC_FLIPS")
    n_list = (2, 4, 8, 16, 32, 64)


class SweepCnn(_Sweep):
    name = "sweep_cnn"
    why = ("trained-CNN sweep through bench on the frozen risk-curve config: "
           "training and prediction (forward_batch) dominate")
    config = ("task.template0=tent:delta=0.25\n"
              "task.template1=cone:radius=0.22\n"
              "q.eta_range=0.5,1.5\n"
              "q.xi_range=1.0,2.0\n")
    classifiers = ("IAC", "CNN_TRAINED")
    n_list = (2, 4)


# ---------------------------------------------------------------------------
# Explicit filter bank
# ---------------------------------------------------------------------------

class Bank(Workload):
    name = "bank"
    why = ("explicit filter bank: set-up builds 132k filters and packs the "
           "stacks, each unit classifies one query; the cnn module does all work")
    inputs_per_seed = 32
    specs = ("tent:delta=0.25", "cross:arm=0.25,taper=0.08")

    def inputs(self, api, seed, work):
        q = api.DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5),
                                   seed=seed)
        data = api.generate_dataset([api.tent(0.25)], [api.cross(0.25, 0.08)], q,
                                    self.inputs_per_seed, 64)
        return {"images": [it.image for it in data.items]}

    def setup(self, api, inputs):
        f0, f1 = (api.parse_template_spec(s) for s in self.specs)
        bank = api.build_filter_bank(f0, f1, 2, 64)
        # the first call packs the filter stacks; that cost is set-up
        api.classify_bank(bank, api.normalize_l2(inputs["images"][0]))
        return {"bank": bank, "images": inputs["images"]}

    def probe_state(self, api, state, inputs):
        return {"bank": state["bank"], "images": inputs["images"]}

    def unit(self, api, state, i, tracer=None):
        img = state["images"][i % len(state["images"])]
        dec = api.classify_bank(state["bank"], api.normalize_l2(img))
        return {"label": int(dec.label), "z0": float(dec.z0), "z1": float(dec.z1),
                "p0": float(dec.p0), "p1": float(dec.p1)}

    def check(self, state, i, out):
        z0, z1 = out["z0"], out["z1"]
        if not all(_finite(v) for v in out.values()):
            return [f"non-finite decision {out}"]
        problems = []
        if not (0.0 <= z0 <= 1.0 + 1e-5 and 0.0 <= z1 <= 1.0 + 1e-5):
            problems.append(f"channel maxima outside [0, 1]: {out}")
        if out["label"] != (0 if z0 >= z1 else 1):
            problems.append(f"label disagrees with the larger channel: {out}")
        if abs(out["p0"] + out["p1"] - 1.0) > 1e-9:
            problems.append(f"probabilities do not sum to one: {out}")
        return problems

    def fingerprint(self, out):
        return {"label": out["label"], "z0": out["z0"], "z1": out["z1"]}

    def compare(self, ref, got):
        return (_exact("label", ref["label"], got["label"])
                + _close("z0", ref["z0"], got["z0"], BANK_Z_TOL)
                + _close("z1", ref["z1"], got["z1"], BANK_Z_TOL))


# ---------------------------------------------------------------------------
# Separation and boundary regularity
# ---------------------------------------------------------------------------

class Sep(Workload):
    name = "sep"
    why = ("what sep does for one template pair: separation search (FFT scan "
           "and refine) plus boundary trace and gamma scan; no other workload")
    # A reduced search: the default SearchConfig takes ~14 s per pair.
    search = {"coarse_step": 0.25, "coarse_quadrature": 64, "quadrature": 256}
    gamma_d = 128
    gamma_budget = 128

    def inputs(self, api, seed, work):
        rng = np.random.default_rng([seed, 7])
        pairs = []
        for j in range(self.inputs_per_seed):
            tent = f"tent:delta={rng.uniform(0.2, 0.25):.4f}"
            if j % 2 == 0:
                other = (f"cross:arm={rng.uniform(0.15, 0.25):.4f},"
                         f"taper={rng.uniform(0.05, 0.1):.4f}")
            else:
                other = f"cone:radius={rng.uniform(0.18, 0.25):.4f}"
            pairs.append((tent, other))
        return {"pairs": pairs}

    def setup(self, api, inputs):
        templates = [(api.parse_template_spec(a), api.parse_template_spec(b))
                     for a, b in inputs["pairs"]]
        return {"templates": templates, "cfg": api.SearchConfig(**self.search)}

    def unit(self, api, state, i, tracer=None):
        f0, f1 = state["templates"][i % len(state["templates"])]
        g0, g1 = (f0, f1) if tracer is None else (tracer.counting_template(f0),
                                                  tracer.counting_template(f1))
        res = api.estimate_separation(g0, g1, state["cfg"])
        out = {"d_fg": float(res.d_fg), "d_gf": float(res.d_gf),
               "gamma": [], "boundary_points": [], "scan_points": []}
        for f in (f0, f1):
            img = api.rasterize(f, api.IDENTITY, self.gamma_d)
            curve = api.trace_boundary(img.support_mask())
            scan = api.gamma_scan(curve, sample_budget=self.gamma_budget)
            out["gamma"].append(float(scan.estimate))
            out["boundary_points"].append(len(curve.points))
            out["scan_points"].append(int(scan.points_used))
        return out

    def check(self, state, i, out):
        problems = []
        for key in ("d_fg", "d_gf"):
            if not (_finite(out[key]) and 0.0 <= out[key] <= 1.0 + 1e-9):
                problems.append(f"{key}={out[key]!r} is not a relative distance")
        for g, b, s in zip(out["gamma"], out["boundary_points"], out["scan_points"]):
            if not (_finite(g) and g >= 1.0 - 1e-9):
                problems.append(f"gamma {g!r} below 1")
            if not (3 <= s <= b):
                problems.append(f"{s} scan points from {b} boundary points")
        return problems

    def compare(self, ref, got):
        problems = (_close("d_fg", ref["d_fg"], got["d_fg"], SEP_DIST_TOL)
                    + _close("d_gf", ref["d_gf"], got["d_gf"], SEP_DIST_TOL)
                    + _exact("boundary_points", ref["boundary_points"],
                             got["boundary_points"])
                    + _exact("scan_points", ref["scan_points"], got["scan_points"]))
        for k, (r, g) in enumerate(zip(ref["gamma"], got["gamma"])):
            problems += _close(f"gamma[{k}]", r, g, SEP_DIST_TOL)
        return problems


# ---------------------------------------------------------------------------
# 1-NN against an on-disk gallery
# ---------------------------------------------------------------------------

_ALIGN_LINE = re.compile(r"label=(\d+) neighbor=(\d+) distance=(\S+) orientation=(\d+)")


class Disk1nn(Workload):
    name = "disk_1nn"
    why = ("align CLI on a 256-image gallery read from disk per query: io "
           "parsing and gallery rebuild per call; the bypass for query batching")
    inputs_per_seed = 64
    gallery_size = 256

    def _q(self, api, seed):
        return api.DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5),
                                      flip_prob=0.5, seed=seed)

    def inputs(self, api, seed, work):
        t = ([api.tent(0.25)], [api.cross(0.25, 0.08)])
        gallery = api.generate_dataset(*t, self._q(api, 2 * seed),
                                       self.gallery_size, 64)
        queries = api.generate_dataset(*t, self._q(api, 2 * seed + 1),
                                       self.inputs_per_seed, 64)
        return {"gallery": gallery, "queries": [it.image for it in queries.items],
                "dir": work / f"{self.name}-{seed}"}

    def setup(self, api, inputs):
        base = inputs["dir"]
        gdir = base / "gallery"
        api.write_dataset(inputs["gallery"], gdir)
        paths = []
        for j, img in enumerate(inputs["queries"]):
            path = base / f"query_{j:03d}.pgm"
            path.write_bytes(api.write_pgm(img, "image_max"))
            paths.append(path)
        return {"gallery": str(gdir), "queries": [str(p) for p in paths],
                "labels": [it.label for it in inputs["gallery"].items]}

    def unit(self, api, state, i, tracer=None):
        query = state["queries"][i % len(state["queries"])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            api.cli.main(["align", "--gallery", state["gallery"], "--query", query,
                          "--flips"])
        m = _ALIGN_LINE.search(buf.getvalue())
        if m is None:
            return {"error": buf.getvalue()[:200]}
        return {"label": int(m[1]), "neighbor": int(m[2]),
                "distance": float(m[3]), "orientation": int(m[4])}

    def check(self, state, i, out):
        if "error" in out:
            return [f"align printed no decision: {out['error']!r}"]
        labels = state["labels"]
        problems = []
        if not 0 <= out["neighbor"] < len(labels):
            return [f"neighbor {out['neighbor']} outside the gallery"]
        if out["label"] != labels[out["neighbor"]]:
            problems.append(f"label {out['label']} is not the neighbor's label")
        if not (_finite(out["distance"]) and out["distance"] >= 0.0):
            problems.append(f"distance {out['distance']!r} is not a distance")
        if out["orientation"] not in (0, 1, 2, 3):
            problems.append(f"orientation {out['orientation']} outside 0..3")
        return problems

    def compare(self, ref, got):
        if "error" in got:
            return ["no decision to compare"]
        return (_exact("label", ref["label"], got["label"])
                + _exact("neighbor", ref["neighbor"], got["neighbor"])
                + _exact("orientation", ref["orientation"], got["orientation"])
                + _close("distance", ref["distance"], got["distance"], DISK_DIST_TOL))


WORKLOADS = {w.name: w for w in (SweepIac(), SweepCnn(), Bank(), Sep(), Disk1nn())}
