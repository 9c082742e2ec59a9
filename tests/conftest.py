import numpy as np
import pytest

from stitchpolar.reliability import ChannelModel, channel_from_snr_db
from stitchpolar.stitching import build_family, save_family

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples and no example database, so every run tests the same codes
    settings.register_profile("stitchpolar", derandomize=True, database=None,
                              max_examples=30, deadline=None)
    settings.load_profile("stitchpolar")


@pytest.fixture(scope="session")
def bec():
    return ChannelModel("bec", 0.5)


@pytest.fixture(scope="session")
def fam8(bec):
    return build_family(8, bec)


@pytest.fixture(scope="session")
def fam64(bec):
    return build_family(64, bec)


@pytest.fixture(scope="session")
def fam64_awgn():
    return build_family(64, channel_from_snr_db(1.0))


@pytest.fixture(scope="session")
def fam8_path(fam8, tmp_path_factory):
    p = tmp_path_factory.mktemp("fam") / "family8.json"
    save_family(fam8, p)
    return p


@pytest.fixture(scope="session")
def fam64_path(fam64, tmp_path_factory):
    p = tmp_path_factory.mktemp("fam64") / "family64.json"
    save_family(fam64, p)
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
