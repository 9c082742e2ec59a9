import json
import subprocess
import sys

import numpy as np
import pytest

import vectors as V
from stitchpolar.cli import main
from stitchpolar.codes import CodeSpec, CrcConfig, load_spec, spec_to_json
from stitchpolar.reliability import channel_from_snr_db
from stitchpolar.sequences import make_regular_sequence
from stitchpolar.simulate import SimConfig, simulate_bler, snr_search
from stitchpolar.stitching import load_family


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_construct_family_cli(capsys, tmp_path):
    out = tmp_path / "fam.json"
    code, text, _ = _run(capsys, "construct-family", "--max-len", "6",
                         "--out", str(out))
    assert code == 0
    head = json.loads(text)
    assert head["max_len"] == 6
    assert head["entries"] == sum(n + 1 for n in range(1, 7))
    fam = load_family(out)
    assert fam.spec(6, 3).n_code == 6


def test_build_cli(capsys, tmp_path, fam8_path):
    out = tmp_path / "code.json"
    code, text, _ = _run(capsys, "build", "--n", "11", "--k", "4", "--s", "2",
                         "--family", str(fam8_path), "--out", str(out))
    assert code == 0
    head = json.loads(text)
    assert head["n"] == 11 and head["k"] == 4
    spec = load_spec(out)
    assert spec.n_code == 11
    assert len(spec.info) == 4


def test_baseline_and_spectrum_cli(capsys, tmp_path):
    out = tmp_path / "qup.json"
    code, text, _ = _run(capsys, "baseline", "--type", "qup", "--n", "5",
                         "--k", "2", "--channel", "bec:0.5", "--out", str(out))
    assert code == 0
    assert json.loads(text)["mother"] == 8
    code, text, _ = _run(capsys, "spectrum", "--code", str(out))
    assert code == 0
    rep = json.loads(text)
    assert tuple(rep["spectrum"]) == V.SPECTRUM_QUP5_NATURAL
    assert rep["min_distance"] == V.MIN_DIST_QUP5_K2
    assert rep["n"] == 5

    brs = tmp_path / "brs.json"
    _run(capsys, "baseline", "--type", "brs", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(brs))
    code, text, _ = _run(capsys, "spectrum", "--code", str(brs))
    rep = json.loads(text)
    assert tuple(rep["spectrum"]) == V.SPECTRUM_BRS5
    assert rep["min_distance"] == V.MIN_DIST_BRS5_K2


def test_encode_decode_cli(capsys, tmp_path, rng):
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(spec_path))
    msg = rng.integers(0, 2, size=2)
    msg_path = tmp_path / "msg.txt"
    msg_path.write_text("\n".join(str(int(b)) for b in msg) + "\n")
    cw_path = tmp_path / "cw.txt"
    code, _, _ = _run(capsys, "encode", "--code", str(spec_path),
                      "--in", str(msg_path), "--out", str(cw_path))
    assert code == 0
    bits = [int(t) for t in cw_path.read_text().split()]
    assert len(bits) == 5

    llr_path = tmp_path / "llr.txt"
    llr_path.write_text("\n".join(str(100.0 * (1 - 2 * b)) for b in bits) + "\n")
    code, text, _ = _run(capsys, "decode", "--code", str(spec_path),
                         "--llr", str(llr_path))
    assert code == 0
    rep = json.loads(text)
    assert rep["info_bits"] == [int(b) for b in msg]
    # the transmitted positions, as encode wrote them, not the mother word
    assert rep["codeword"] == bits

    code, text, _ = _run(capsys, "decode", "--code", str(spec_path),
                         "--llr", str(llr_path), "--list", "4", "--minsum")
    assert code == 0
    rep = json.loads(text)
    assert len(rep["paths"]) == 4
    sel = rep["selected"]
    assert rep["paths"][sel]["info_bits"] == [int(b) for b in msg]


def test_encode_decode_cli_with_crc(capsys, tmp_path, rng):
    """decode prints the message bits, not the CRC parity after them."""
    spec = CodeSpec(make_regular_sequence(5), tuple(range(17, 33)),
                    crc=CrcConfig((1, 0, 1, 1)))
    spec_path = tmp_path / "crc.json"
    spec_path.write_text(json.dumps(spec_to_json(spec)))
    msg = [int(b) for b in rng.integers(0, 2, size=13)]
    msg_path = tmp_path / "msg.txt"
    msg_path.write_text("\n".join(map(str, msg)) + "\n")
    cw_path = tmp_path / "cw.txt"
    code, _, _ = _run(capsys, "encode", "--code", str(spec_path),
                      "--in", str(msg_path), "--out", str(cw_path))
    assert code == 0
    bits = [int(t) for t in cw_path.read_text().split()]
    llr_path = tmp_path / "llr.txt"
    llr_path.write_text("\n".join(str(8.0 * (1 - 2 * b)) for b in bits) + "\n")
    code, text, _ = _run(capsys, "decode", "--code", str(spec_path),
                         "--llr", str(llr_path))
    assert code == 0
    assert json.loads(text)["info_bits"] == msg
    code, text, _ = _run(capsys, "decode", "--code", str(spec_path),
                         "--llr", str(llr_path), "--list", "4")
    assert code == 0
    rep = json.loads(text)
    assert rep["crc_ok"]
    assert all(len(p["info_bits"]) == 13 for p in rep["paths"])
    assert rep["paths"][rep["selected"]]["info_bits"] == msg


def test_decode_rejects_shortened_info_position(capsys, tmp_path):
    """A shortened position carrying information fails on load, as in simulate."""
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({
        "n": 4, "pairs": make_regular_sequence(2).pairs.tolist(),
        "info": [1, 2, 3], "rate_match": {"mode": "shorten", "pattern": [1]}}))
    llr_path = tmp_path / "llr.txt"
    llr_path.write_text("1.0 2.0 3.0\n")
    for extra in ((), ("--list", "4")):
        code, out, err = _run(capsys, "decode", "--code", str(spec_path),
                              "--llr", str(llr_path), *extra)
        assert code == 1
        assert out == ""
        rep = json.loads(err)
        assert rep["error"] == "StructuralError"
        assert "must be frozen" in rep["message"]


def test_decode_error_path(capsys, tmp_path):
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(spec_path))
    llr_path = tmp_path / "llr.txt"
    llr_path.write_text("1.0 2.0 3.0\n")
    code, out, err = _run(capsys, "decode", "--code", str(spec_path),
                          "--llr", str(llr_path))
    assert code == 1
    assert out == ""
    rep = json.loads(err)
    assert rep["error"] == "ValueError"
    assert "expected 5 llrs" in rep["message"]


def test_decode_rejects_list_below_one(capsys, tmp_path):
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(spec_path))
    llr_path = tmp_path / "llr.txt"
    llr_path.write_text("1.0 -2.0 3.0 0.5 -1.5\n")
    for size in ("0", "-4"):
        code, out, err = _run(capsys, "decode", "--code", str(spec_path),
                              "--llr", str(llr_path), "--list", size)
        assert code == 1
        assert out == ""
        rep = json.loads(err)
        assert rep["error"] == "ValueError"
        assert "list size" in rep["message"]


def test_decode_rejects_nan_llr(capsys, tmp_path):
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(spec_path))
    llr_path = tmp_path / "llr.txt"
    llr_path.write_text("nan,1.0,-2.0,3.0,0.5\n")
    for extra in ((), ("--list", "4")):
        code, out, err = _run(capsys, "decode", "--code", str(spec_path),
                              "--llr", str(llr_path), *extra)
        assert code == 1
        assert out == ""
        rep = json.loads(err)
        assert rep["error"] == "ValueError"
        assert "NaN" in rep["message"]


def test_decode_rejects_frozen_overlapping_info(capsys, tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"n": 2, "pairs": [[1, 2]],
                                     "info": [1, 2], "frozen": [1]}))
    llr_path = tmp_path / "llr.txt"
    llr_path.write_text("1.0 2.0\n")
    code, out, err = _run(capsys, "decode", "--code", str(spec_path),
                          "--llr", str(llr_path))
    assert code == 1
    assert out == ""
    rep = json.loads(err)
    assert rep["error"] == "ValueError"
    assert "partition" in rep["message"]


def test_bad_channel_token(capsys, tmp_path):
    code, _, err = _run(capsys, "construct-family", "--max-len", "3",
                        "--channel", "gauss", "--out", str(tmp_path / "f.json"))
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_simulate_cli(capsys, tmp_path):
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(spec_path))
    out = tmp_path / "sim.json"
    code, _, _ = _run(capsys, "simulate", "--code", str(spec_path),
                      "--channel", "bec:0.5", "--trials", "5000",
                      "--seed", "7", "--workers", "2", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["trials"] == 5000
    assert rep["n"] == 5 and rep["k"] == 2
    assert 0.0 <= rep["ci_low"] <= rep["bler"] <= rep["ci_high"] <= 1.0


def test_simulate_cli_list_chunk(capsys, tmp_path):
    """--chunk reaches the simulation, so list decoding can run small chunks."""
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "12", "--k", "6",
         "--channel", "bec:0.5", "--out", str(spec_path))
    out = tmp_path / "sim.json"
    code, _, _ = _run(capsys, "simulate", "--code", str(spec_path),
                      "--channel", "awgn:0.0", "--trials", "200", "--seed", "3",
                      "--list", "8", "--chunk", "64", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    want = simulate_bler(SimConfig(load_spec(spec_path), channel_from_snr_db(0.0),
                                   seed=3, trials=200, list_size=8, chunk=64))
    assert (rep["trials"], rep["errors"], rep["bit_errors"]) == (
        200, want.errors, want.bit_errors)
    code, text, _ = _run(capsys, "snr-search", "--code", str(spec_path),
                         "--target", "0.2", "--bracket", "0.1:0.8",
                         "--channel-kind", "bec", "--tol", "0.2", "--list", "8",
                         "--chunk", "64", "--max-trials", "640",
                         "--min-errors", "30")
    assert code == 0
    want = snr_search(load_spec(spec_path), 0.2, (0.1, 0.8), channel_kind="bec",
                      tol=0.2, list_size=8, chunk=64, max_trials=640, min_errors=30)
    assert [(e["trials"], e["errors"]) for e in json.loads(text)["evals"]] == [
        (r.trials, r.errors) for _, r in want.evals]


def test_snr_search_cli(capsys, tmp_path):
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(spec_path))
    code, text, _ = _run(capsys, "snr-search", "--code", str(spec_path),
                         "--target", "0.2", "--bracket", "0.1:0.8",
                         "--channel-kind", "bec", "--tol", "0.1",
                         "--max-trials", "8000", "--min-errors", "30")
    assert code == 0
    rep = json.loads(text)
    assert rep["kind"] == "bec"
    assert 0.1 <= rep["param"] <= 0.8
    assert len(rep["evals"]) >= 3


def test_negative_bracket_cli(capsys, tmp_path):
    """``--bracket -1:2`` parses as ``--bracket=-1:2`` does, in snr-search and
    in sweep, though argparse alone takes ``-1:2`` for an option."""
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(spec_path))
    search = ["snr-search", "--code", str(spec_path), "--target", "0.02",
              "--tol", "1", "--max-trials", "4000", "--min-errors", "30"]
    code, text, _ = _run(capsys, *search, "--bracket", "-1:2")
    assert code == 0
    assert json.loads(text)["evals"][0]["param"] == -1.0
    assert _run(capsys, *search, "--bracket=-1:2") == (code, text, "")
    outs = []
    for bracket in (["--bracket", "-1:2"], ["--bracket=-1:2"]):
        out = tmp_path / f"sweep{len(outs)}.csv"
        code, _, _ = _run(capsys, "sweep", "--rate", "0.5", "--lengths", "5",
                          "--schemes", "qup", "--target", "0.02", *bracket,
                          "--max-trials", "4000", "--min-errors", "30",
                          "--out", str(out))
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 2


def test_simulate_cli_rejects_zero_workers(capsys, tmp_path):
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(spec_path))
    code, out, err = _run(capsys, "simulate", "--code", str(spec_path),
                          "--channel", "bec:0.5", "--trials", "64",
                          "--workers", "0")
    assert code == 1
    assert out == ""
    rep = json.loads(err)
    assert rep["error"] == "ValueError"
    assert "workers" in rep["message"]


def test_snr_search_cli_rejects_zero_tol(capsys, tmp_path):
    spec_path = tmp_path / "qup.json"
    _run(capsys, "baseline", "--type", "qup", "--n", "5", "--k", "2",
         "--channel", "bec:0.5", "--out", str(spec_path))
    code, out, err = _run(capsys, "snr-search", "--code", str(spec_path),
                          "--target", "0.2", "--bracket", "0.1:0.8",
                          "--channel-kind", "bec", "--tol", "0")
    assert code == 1
    assert out == ""
    rep = json.loads(err)
    assert rep["error"] == "ValueError"
    assert "tol" in rep["message"]


def test_sweep_cli(capsys, tmp_path, fam8_path):
    out = tmp_path / "sweep.csv"
    code, text, _ = _run(capsys, "sweep", "--rate", "0.5", "--lengths", "8",
                         "--schemes", "qup,stc", "--target", "0.15",
                         "--bracket", "0.1:0.9", "--family", str(fam8_path),
                         "--s", "2", "--channel-kind", "bec",
                         "--max-trials", "8000", "--min-errors", "30",
                         "--out", str(out))
    assert code == 0
    assert json.loads(text)["rows"] == 2
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,scheme,param,bracket_lo,bracket_hi"
    assert len(lines) == 3


def test_scaling_cli(capsys, tmp_path):
    out = tmp_path / "scaling.csv"
    code, text, _ = _run(capsys, "scaling", "--scheme", "regular",
                         "--m-range", "10:12", "--epsilon", "0.5",
                         "--out", str(out))
    assert code == 0
    rep = json.loads(text)
    assert rep["mu"] is not None and rep["mu"] > 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,N,count,alpha"
    last = lines[-1].split(",")
    assert int(last[0]) == 12
    assert int(last[2]) == V.COUNT_REGULAR[12]


def test_scaling_cli_stitched(capsys, tmp_path, fam8_path):
    out = tmp_path / "stc.csv"
    code, text, _ = _run(capsys, "scaling", "--scheme", "stc",
                         "--m-range", "4:6", "--epsilon", "0.5",
                         "--offset-t", "1", "--s", "2",
                         "--family", str(fam8_path), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    for line, m in zip(lines[1:], (4, 5, 6)):
        cells = line.split(",")
        assert int(cells[1]) == (1 << m) + (1 << (m - 1))
        assert int(cells[2]) >= 0


def test_scaling_cli_rejects_offset_outside_range(capsys, tmp_path):
    for t in ("0", "5"):
        code, out, err = _run(capsys, "scaling", "--scheme", "qup",
                              "--m-range", "4:6", "--epsilon", "0.5",
                              "--offset-t", t, "--out", str(tmp_path / "q.csv"))
        assert code == 1
        assert out == ""
        rep = json.loads(err)
        assert rep["error"] == "ValueError"
        assert "--offset-t" in rep["message"]
    # the ends of 1..A are accepted
    for t, n4 in (("1", 24), ("4", 17)):
        out = tmp_path / f"q{t}.csv"
        code, _, _ = _run(capsys, "scaling", "--scheme", "qup", "--m-range", "4:6",
                          "--epsilon", "0.5", "--offset-t", t, "--out", str(out))
        assert code == 0
        assert int(out.read_text().splitlines()[1].split(",")[1]) == n4


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_module_entry(tmp_path):
    spec_path = tmp_path / "qup.json"
    r = subprocess.run([sys.executable, "-m", "stitchpolar.cli", "baseline",
                        "--type", "qup", "--n", "5", "--k", "2",
                        "--channel", "bec:0.5", "--out", str(spec_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["mother"] == 8
    r = subprocess.run([sys.executable, "-m", "stitchpolar.cli", "spectrum",
                        "--code", str(spec_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert tuple(json.loads(r.stdout)["spectrum"]) == V.SPECTRUM_QUP5_NATURAL
