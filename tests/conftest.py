import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from deformclass import (
    DeformDistribution,
    DeformParams,
    GrayImage,
    cone,
    cross,
    generate_dataset,
    tent,
    write_pgm,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def tent_template():
    return tent(0.25)


@pytest.fixture(scope="session")
def cross_template():
    return cross(0.25, 0.08)


@pytest.fixture(scope="session")
def cone_template():
    return cone(0.22)


@pytest.fixture(scope="session")
def mild_q():
    return DeformDistribution(eta_range=(0.8, 1.2), xi_range=(1.0, 1.5), seed=7)


@pytest.fixture(scope="session")
def small_dataset(tent_template, cross_template, mild_q):
    return generate_dataset([tent_template], [cross_template], mild_q, n=8, d=16)


@pytest.fixture(scope="session")
def identity_params():
    return DeformParams(eta=1.0, xi=1.0, xi_prime=1.0, tau=0.0, tau_prime=0.0)


@pytest.fixture(scope="session")
def glyph_pgms(tmp_path_factory):
    """Two 28 x 28 glyph PGMs, a ring and a bar, for ``pgm:path=`` templates."""
    r, c = np.mgrid[0:28, 0:28] - 13.5
    ring = np.clip(1.0 - np.abs(np.hypot(r, c) - 8.0) / 2.5, 0.0, 1.0)
    bar = np.clip(1.0 - np.abs(c) / 2.5, 0.0, 1.0) * (np.abs(r) <= 8)
    out = tmp_path_factory.mktemp("glyphs")
    paths = []
    for name, px in (("ring", ring), ("bar", bar)):
        path = out / f"{name}.pgm"
        path.write_bytes(write_pgm(GrayImage(px)))
        paths.append(path)
    return tuple(paths)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)
