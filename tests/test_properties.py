"""Hypothesis properties of the decode executor, over codes drawn through
``oracles.random_valid_pairs``.  The settings profile in conftest.py fixes
the examples, so a run is deterministic."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import oracles as O  # noqa: E402
from stitchpolar.codes import CodeSpec, encode  # noqa: E402
from stitchpolar.decoding import sc_decode_batch, scl_decode_batch  # noqa: E402
from stitchpolar.reliability import ChannelModel, channel_from_snr_db  # noqa: E402
from stitchpolar.sequences import CouplingSequence  # noqa: E402
from stitchpolar.simulate import SimConfig, simulate_bler  # noqa: E402


@st.composite
def codes(draw, max_n=12):
    """A random valid code and a numpy generator for its test data."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = O.random_valid_pairs(rng, n)
    info = draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
    return CodeSpec(CouplingSequence(n, pairs), tuple(sorted(info))), rng


@given(codes(), st.sampled_from([1, 4]), st.sampled_from(["exact", "minsum"]))
def test_noiseless_decode_is_identity(code, list_size, f_mode):
    spec, rng = code
    msg = rng.integers(0, 2, size=(3, spec.message_length)).astype(np.uint8)
    x = np.array([encode(spec, m) for m in msg])
    llrs = (1.0 - 2.0 * x) * 2.0
    res = scl_decode_batch(spec, llrs, list_size, f_mode=f_mode)
    assert (res.chosen_bits == msg).all()
    assert (res.metrics[:, 0] == 0).all()


@given(codes(), st.sampled_from([1, 4]))
def test_batch_decode_equals_single_words(code, list_size):
    spec, rng = code
    llrs = rng.normal(size=(5, spec.n_code)) * 2
    llrs[rng.random(llrs.shape) < 0.2] = 0.0
    if list_size == 1:
        res = sc_decode_batch(spec, llrs)
        for i in range(len(llrs)):
            one = sc_decode_batch(spec, llrs[i:i + 1])
            assert (res.u_hat[i] == one.u_hat[0]).all()
            assert np.array_equal(res.decision_llrs[i], one.decision_llrs[0])
    else:
        res = scl_decode_batch(spec, llrs, list_size)
        for i in range(len(llrs)):
            one = scl_decode_batch(spec, llrs[i:i + 1], list_size)
            assert (res.info_bits[i] == one.info_bits[0]).all()
            assert np.array_equal(res.metrics[i], one.metrics[0])


@given(codes(), st.sampled_from([1, 2]), st.booleans(), st.integers(0, 1000))
def test_simulate_counts_do_not_depend_on_workers(code, list_size, bec, seed):
    spec, _ = code
    chan = ChannelModel("bec", 0.4) if bec else channel_from_snr_db(1.0)
    cfg = SimConfig(spec, chan, seed=seed, trials=150, chunk=32, list_size=list_size)
    one = simulate_bler(cfg, workers=1)
    two = simulate_bler(cfg, workers=2)
    assert (one.trials, one.errors, one.bit_errors) == (two.trials, two.errors,
                                                         two.bit_errors)
