"""Command-line interface run in-process: exit codes, manifests, outputs."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import cli, correlation, pretentious, profiles, reduction, sieve, stats


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _report(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_densities_prime_row(capsys, tmp_path):
    path = tmp_path / "dens.csv"
    rep = _report(capsys, "densities", "--n", "100", "--out", str(path))
    assert rep["manifest"]["n"] == 100
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# timestamp")
    assert lines[1].startswith("# manifest")
    header = lines[2]
    assert header == "ell,pi_bar,pi_bar_log,gaussian,ratio"
    row1 = lines[4].split(",")       # ell = 1 row (25 primes up to 100)
    assert row1[0] == "1"
    assert float(row1[1]) == 0.25


def test_correlate_parity_hand_value(capsys):
    rep = _report(capsys, "correlate", "--a", "parity", "--b", "parity",
                  "--n", "10", "--weighting", "cesaro")
    assert rep["results"]["lhs"] == [-0.4, 0.0]
    assert rep["manifest"]["weighting"] == "cesaro"


def test_correlate_constants_zero_error(capsys):
    rep = _report(capsys, "correlate", "--a", "const", "--b", "const",
                  "--n", "1000")
    assert rep["results"]["error"] < 1e-12


def test_unknown_preset_exit_code(capsys):
    code, _, err = _run(capsys, "correlate", "--a", "nonsense", "--b", "parity",
                        "--n", "1000")
    assert code == cli.EXIT_PRESET
    assert "error:" in err


def test_degenerate_window_exit_code(capsys):
    code, _, err = _run(capsys, "reduce", "--n", "10000",
                        "--window-lower", "24", "--window-upper", "28")
    assert code == cli.EXIT_WINDOW
    assert "error:" in err


def test_capacity_exit_code(capsys):
    code, _, err = _run(capsys, "explore-k", "--n", "2000", "--functions",
                        "parity,parity,parity,parity,parity")
    assert code == cli.EXIT_CAPACITY


def test_contract_exit_code(capsys):
    code, _, err = _run(capsys, "densities", "--n", "0")
    assert code == cli.EXIT_CONTRACT


@pytest.mark.parametrize("argv,code", [
    (("densities", "--n", "nan"), cli.EXIT_CONTRACT),
    (("densities", "--n", "inf"), cli.EXIT_CONTRACT),
    (("densities", "--n", "1.5"), cli.EXIT_CONTRACT),
    (("densities", "--n", "10k"), cli.EXIT_CONTRACT),
    (("correlate", "--n", "1000", "--shift", "abc"), cli.EXIT_CONTRACT),
    (("halasz", "--n", "1000", "--points", "2.5"), cli.EXIT_CONTRACT),
    (("sieve", "--n", "100", "--workers", "two"), cli.EXIT_CONTRACT),
    (("sieve", "--lo", "1e3", "--hi", "nan"), cli.EXIT_CONTRACT),
    (("circle", "--n", "10000", "--resolution", "inf"), cli.EXIT_CONTRACT),
    (("densities", "--n", "1e30"), cli.EXIT_CAPACITY),
    (("densities", "--n", "1e999999999"), cli.EXIT_CAPACITY),
    (("distance", "--n", "10000", "--t", "abc"), cli.EXIT_CONTRACT),
    (("distance", "--n", "10000", "--xi", "abc"), cli.EXIT_CONTRACT),
    (("circle", "--n", "10000", "--epsilon", "abc"), cli.EXIT_CONTRACT),
    (("circle", "--window-lower", "2", "--window-upper", "inf"), cli.EXIT_CONTRACT),
    (("reduce", "--n", "10000", "--window-lower", "x"), cli.EXIT_CONTRACT),
    (("reduce", "--n", "10000", "--window-upper", "1e400"), cli.EXIT_CONTRACT),
    (("sieve", "--n", "100", "--mode", "truncated", "--cutoff", "abc"), cli.EXIT_CONTRACT),
    (("halasz", "--n", "1000", "--preset", "fourier-mode:abc"), cli.EXIT_PRESET),
])
def test_integer_flags_map_bad_values_to_exit_codes(capsys, argv, code):
    assert _run(capsys, *argv)[0] == code


@pytest.mark.parametrize("text,value", [
    ("9007199254740993", 9007199254740993),
    ("1e12", 10**12),
    ("2.0E3", 2000),
    (" 42 ", 42),
    (1e6, 10**6),
])
def test_integer_flags_parse_exactly(text, value):
    assert cli._integer(text) == value


def test_sieve_window_edges_in_exponent_form(capsys):
    rep = _report(capsys, "sieve", "--lo", "1e12", "--hi", "1000000000100")
    assert (rep["manifest"]["lo"], rep["manifest"]["hi"]) == (10**12, 10**12 + 100)
    assert rep["results"]["count"] == 100


def test_manifest_file_supplies_defaults(capsys, tmp_path):
    mpath = tmp_path / "man.json"
    mpath.write_text(json.dumps({"a": "parity", "b": "parity",
                                 "n": 10, "weighting": "cesaro"}))
    rep = _report(capsys, "correlate", "--manifest", str(mpath))
    assert rep["results"]["lhs"] == [-0.4, 0.0]


def test_flags_override_manifest(capsys, tmp_path):
    mpath = tmp_path / "man.json"
    mpath.write_text(json.dumps({"a": "parity", "b": "parity",
                                 "n": 10, "weighting": "cesaro"}))
    rep = _report(capsys, "correlate", "--manifest", str(mpath),
                  "--weighting", "logarithmic")
    assert rep["manifest"]["weighting"] == "logarithmic"
    assert rep["results"]["lhs"] != [-0.4, 0.0]


def test_resolved_manifest_echoes_derived_parameters(capsys):
    rep = _report(capsys, "correlate", "--a", "parity", "--b", "parity",
                  "--n", "10000")
    derived = rep["manifest"]["derived"]
    for key in ("amplitude", "interval_radius", "interval_size",
                "truncation_cutoff", "mean", "deviation"):
        assert key in derived
    assert derived["interval_size"] == 13


def test_readme_flag_table_names_the_flags_of_each_command():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    first = lines.index("| command | flags (default) |") + 2   # past the rule
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[first:]):
        command, flags = line.split(" | ", 1)
        table[command.strip("|` ")] = set(re.findall(r"`--([a-z-]+)`", flags))
    assert table == {name: {flag.name for flag in command.flags}
                     for name, command in cli.COMMANDS.items()}


def test_sieve_csv_far_window_body_and_digest(capsys, tmp_path):
    lo, hi = 999_999_999_990, 1_000_000_000_010   # n gains a digit at 10^12
    path = tmp_path / "far.csv"
    rep = _report(capsys, "sieve", "--lo", str(lo), "--hi", str(hi),
                  "--format", "csv", "--out", str(path))
    stamp, manifest, body = path.read_text().split("\n", 2)
    assert stamp.startswith("# timestamp") and manifest.startswith("# manifest")
    counts = sieve.factor_counts(lo, hi).counts.tolist()
    assert body == "n,count\n" + "".join(f"{n},{c}\n" for n, c in zip(range(lo, hi), counts))
    # the digest is the sha256 of the parsed count column as uint8
    column = bytes(int(row.split(",")[1]) for row in body.splitlines()[1:])
    assert rep["results"]["digest"] == hashlib.sha256(column).hexdigest()


def test_sieve_csv_deterministic_across_runs(capsys, tmp_path):
    path = tmp_path / "sieve.csv"
    rep1 = _report(capsys, "sieve", "--n", "500", "--out", str(path),
                   "--format", "csv")
    body1 = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("# timestamp")]
    rep2 = _report(capsys, "sieve", "--n", "500", "--out", str(path),
                   "--format", "csv")
    body2 = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("# timestamp")]
    assert body1 == body2
    assert rep1["results"]["digest"] == rep2["results"]["digest"]


def test_sieve_digest_identical_across_worker_counts(capsys, tmp_path):
    digests = {}
    for workers in ("1", "8"):
        path = tmp_path / f"sieve-{workers}.bin"
        rep = _report(capsys, "sieve", "--n", "100000", "--out", str(path),
                      "--workers", workers)
        digests[workers] = rep["results"]["digest"]
    assert digests["1"] == digests["8"]


def test_workers_env_var_supplies_default(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    rep = _report(capsys, "sieve", "--n", "500",
                  "--out", str(tmp_path / "s.bin"))
    assert rep["manifest"]["workers"] == 2


def test_failed_run_writes_no_partial_files(capsys, tmp_path):
    path = tmp_path / "never.csv"
    code, _, _ = _run(capsys, "densities", "--n", "0", "--out", str(path))
    assert code == cli.EXIT_CONTRACT
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_exits_2_before_any_work(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setitem(cli.COMMANDS, "densities",
                        dataclasses.replace(cli.COMMANDS["densities"], run=calls.append))
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = _run(capsys, "densities", "--n", "100", "--out", str(target))
        assert code == cli.EXIT_CONTRACT
        assert str(target) in err
        assert out == ""
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_numpy_is_the_only_runtime_dependency():
    script = ("import sys, omegalab\n"
              "from omegalab import cli\n"
              "assert cli.main(['reduce', '--n', '10000']) == 0\n"
              "assert 'scipy' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["total"] == pytest.approx(
        1.956258330517151, abs=1e-10)


def test_theorem_c_multiple_n(capsys):
    rep = _report(capsys, "theorem-c", "--n", "1000,2000", "--a", "parity")
    vals = rep["results"]["values"]
    assert set(vals) == {"1000", "2000"} or len(vals) == 2


def test_theorem_c_sieves_once_and_keeps_the_order_given(capsys, monkeypatch):
    profiles.invalidate_cache()
    sieved = []
    factor_counts = sieve.factor_counts
    monkeypatch.setattr(sieve, "factor_counts", lambda lo, hi, *args:
                        sieved.append((lo, hi)) or factor_counts(lo, hi, *args))
    vals = _report(capsys, "theorem-c", "--n", "5e4,1e5", "--a", "parity")["results"]["values"]
    assert sieved == [(1, 10**5 + 2)]
    # the report sorts its keys; the handler keeps the order given
    _, results = cli._run_theorem_c({"n": [50000, 100000], "a": "parity"})
    assert list(results["values"]) == ["50000", "100000"]
    assert results["values"] == vals
    profiles.invalidate_cache()
    alone = _report(capsys, "theorem-c", "--n", "5e4", "--a", "parity")["results"]["values"]
    assert alone["50000"] == vals["50000"]


def test_theorem_c_with_one_n_streams_its_pass(capsys, monkeypatch):
    # one N makes one pass, so its counts stream and no block is adopted
    def no_adopt(block):
        raise AssertionError(f"a block up to {block.hi} adopted for one pass")
    monkeypatch.setattr(profiles, "adopt_block", no_adopt)
    profiles.invalidate_cache()
    vals = _report(capsys, "theorem-c", "--n", "5e4", "--a", "parity")["results"]["values"]
    assert list(vals) == ["50000"] and profiles._cached_block is None


# command: (flags at N ~ 2e4, passes over n <= N, sieve calls), cache cold
_PASSES = {
    "sieve": (("--n", "2e4"), 0, 1),
    "densities": (("--n", "2e4"), 1, 1),
    "erdos-kac": (("--n", "2e4"), 1, 1),
    "correlate": (("--n", "2e4"), 1, 1),
    "theorem-c": (("--n", "1e4,2e4"), 2, 1),   # one pass per N, one block
    "distance": (("--n", "2e4"), 0, 0),
    "halasz": (("--n", "2e4", "--points", "21"), 1, 1),
    "reduce": (("--n", "2e4"), 1, 1),
    "circle": (("--n", "2e4"), 0, 0),
    "explore-k": (("--n", "2e4"), 1, 1),
}


@pytest.mark.parametrize("command", list(_PASSES))
def test_passes_and_sieves_per_command(capsys, monkeypatch, command):
    assert set(_PASSES) == set(cli.COMMANDS)
    flags, passes, sieves = _PASSES[command]
    seen = {"passes": 0, "sieves": 0}
    chunks, factor_counts = profiles.chunks, sieve.factor_counts

    def counted_chunks(*args, **kwargs):
        seen["passes"] += 1
        return chunks(*args, **kwargs)

    def counted_sieve(*args, **kwargs):
        seen["sieves"] += 1
        return factor_counts(*args, **kwargs)
    monkeypatch.setattr(profiles, "chunks", counted_chunks)
    monkeypatch.setattr(sieve, "factor_counts", counted_sieve)
    profiles.invalidate_cache()
    _report(capsys, command, *flags)
    profiles.invalidate_cache()
    assert (seen["passes"], seen["sieves"]) == (passes, sieves)


def test_truncated_sieve_without_cutoff_exits_2_and_prints_nothing(capsys):
    code, out, err = _run(capsys, "sieve", "--n", "1000", "--mode", "truncated")
    assert code == cli.EXIT_CONTRACT
    assert out == ""
    assert "--cutoff" in err


def test_truncated_sieve_window_reports_the_digest_of_its_counts(capsys):
    lo, hi = 10**12, 10**12 + 10**4
    rep = _report(capsys, "sieve", "--lo", "1e12", "--hi", str(hi),
                  "--mode", "truncated", "--cutoff", "1e7")
    block = sieve.factor_counts(lo, hi, sieve.TruncatedOmega(1e7))
    assert rep["results"]["count"] == 10**4
    assert rep["results"]["digest"] == hashlib.sha256(block.counts).hexdigest()


# mode flag: (extra flags, count mode); the cutoff passes the root near 10^9,
# so truncated segments keep a smooth part
_SIEVE_MODES = {"big": ((), sieve.BigOmega), "small": ((), sieve.SmallOmega),
                "truncated": (("--cutoff", "1e5"), sieve.TruncatedOmega(1e5))}


def _file_sha256(path, skip_lines=0):
    """sha256 of a file after its first skip_lines lines, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for _ in range(skip_lines):
            fh.readline()
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _stream_and_compare(capsys, monkeypatch, tmp_path, lo, hi, mode, fmt, workers):
    """Run sieve --out on [lo, hi) and check it against one whole-block write:
    the file's bytes, the digest, the histogram, and one factor_counts call
    a piece of `workers` segments."""
    flags, count_mode = _SIEVE_MODES[mode]
    pieces, factor_counts = [], sieve.factor_counts

    def recorded(a, b, *args, **kwargs):
        pieces.append((a, b))
        return factor_counts(a, b, *args, **kwargs)
    monkeypatch.setattr(sieve, "factor_counts", recorded)
    out, whole = tmp_path / f"streamed.{fmt}", tmp_path / f"whole.{fmt}"
    rep = _report(capsys, "sieve", "--lo", str(lo), "--hi", str(hi), "--mode", mode, *flags,
                  "--format", fmt, "--workers", str(workers), "--out", str(out))
    monkeypatch.undo()
    step = workers * sieve.SEGMENT
    assert pieces == [(a, min(a + step, hi)) for a in range(lo, hi, step)]
    block = sieve.factor_counts(lo, hi, count_mode)
    if fmt == "bin":
        sieve.write_block(block, whole)
    else:
        with open(whole, "w", newline="") as fh:
            sieve.write_block_csv(block, fh)
    # a CSV's timestamp and manifest lines come before its body
    assert _file_sha256(out, 2 if fmt == "csv" else 0) == _file_sha256(whole)
    assert rep["results"]["count"] == hi - lo
    assert rep["results"]["digest"] == hashlib.sha256(block.counts).hexdigest()
    assert rep["results"]["histogram"] == stats.count_histogram(block.counts).tolist()
    out.unlink()   # the CSV files are about 40 MB each
    whole.unlink()
    return len(pieces)


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("mode", list(_SIEVE_MODES))
@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_sieve_streams_the_file_of_the_whole_block(capsys, monkeypatch, tmp_path,
                                                  fmt, mode, workers):
    # three segments and a tail, across 10^9 where n gains a digit: four
    # pieces at one worker, one piece of four segments at eight
    lo = 10**9 - (1 << 20)
    pieces = _stream_and_compare(capsys, monkeypatch, tmp_path, lo, lo + 3 * (1 << 20) + 4321,
                                 mode, fmt, workers)
    assert pieces == {1: 4, 8: 1}[workers]


def test_sieve_streams_pieces_of_eight_segments_at_eight_workers(capsys, monkeypatch,
                                                                 tmp_path):
    pieces = _stream_and_compare(capsys, monkeypatch, tmp_path, 1, 9 * (1 << 20) + 4321,
                                 "big", "bin", 8)
    assert pieces == 2


def test_sieve_memory_is_a_piece_not_the_range(capsys, tmp_path):
    # the command held its 30 MB of counts (and peaked past them) before it
    # streamed them
    path = tmp_path / "counts.bin"
    tracemalloc.start()
    try:
        code = cli.main(["sieve", "--n", "3e7", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0 and path.stat().st_size == 25 + 3 * 10**7
    assert peak < 8 * 2**20


def test_correlate_indicator_and_fourier_mode_presets(capsys):
    n = 10**4
    rep = _report(capsys, "correlate", "--n", str(n), "--a", "indicator:2",
                  "--b", "fourier-mode:1")
    a = correlation.indicator_function(2)
    b = correlation.fourier_mode_function(1, pretentious.frequency_family(n).size)
    lhs = correlation.two_point_lhs(a, b, n)
    marginal = profiles.two_point_profile(n, 0)
    prediction = marginal.mean(a.table(), "cesaro") * marginal.mean(b.table(), "cesaro")
    assert rep["results"]["lhs"] == [lhs.real, lhs.imag]
    assert rep["results"]["prediction"] == [prediction.real, prediction.imag]


def test_halasz_fourier_mode_preset_is_the_audit_of_its_mode(capsys):
    n = 10**4
    rep = _report(capsys, "halasz", "--n", str(n), "--preset", "fourier-mode:1",
                  "--points", "21")
    spec = pretentious.mode_spec(pretentious.frequency_family(n), 1.0)
    audit = pretentious.halasz_audit(spec, n, pretentious.log_t_grid(math.log(n), points=21))
    assert rep["results"] == json.loads(json.dumps(cli._jsonify(audit)))


def test_theorem_c_empty_comma_list_exits_2(capsys):
    code, out, _ = _run(capsys, "theorem-c", "--n", ",")
    assert code == cli.EXIT_CONTRACT
    assert out == ""


def test_distance_reports_folded_frequency(capsys):
    rep = _report(capsys, "distance", "--n", "10000", "--xi", "44", "--t", "0")
    fam_size = rep["manifest"]["derived"]["interval_size"]
    folded = rep["manifest"]["folded_xi"]
    assert -fam_size / 2 < folded <= fam_size / 2
    assert rep["results"]["residual"] <= 5.0


def test_halasz_parity_preset(capsys):
    rep = _report(capsys, "halasz", "--n", "10000", "--preset", "parity",
                  "--points", "201")
    assert rep["results"]["ratio"] <= 10.0


@pytest.mark.parametrize("points", ["-3", "0", "1", "2"])
def test_halasz_refuses_fewer_than_three_points(capsys, points):
    code, out, err = _run(capsys, "halasz", "--n", "1e4", "--points", points)
    assert code == cli.EXIT_CONTRACT
    assert out == ""
    assert "points >= 3" in err


def test_halasz_reports_the_tail_bound_and_distance_none(capsys):
    rep = _report(capsys, "halasz", "--n", "10000", "--points", "2001")
    assert 0.0 < rep["results"]["m0"]["tail_bound"] <= 1e-13
    rep = _report(capsys, "distance", "--n", "10000", "--t", "1.0")
    assert "tail_bound" not in json.dumps(rep)


def test_circle_command_reports_measure(capsys, tmp_path):
    rep = _report(capsys, "circle", "--n", "10000",
                  "--window-lower", "2", "--window-upper", "30",
                  "--epsilon", "0.5")
    assert 0.0 <= rep["results"]["measure"] <= 1.0
    assert rep["results"]["audit_product"] >= 0.0


def test_circle_refuses_low_resolution_before_sieving(capsys, monkeypatch):
    # every window prime is at least the lower edge, so a grid below 10 x
    # that edge is refused before the primes up to the upper edge are sieved
    def unreachable(limit):
        raise AssertionError(f"primes sieved up to {limit}")
    monkeypatch.setattr(sieve, "prime_segments", unreachable)
    code, out, err = _run(capsys, "circle", "--window-lower", "99999000",
                          "--window-upper", "1e8", "--resolution", "10")
    assert code == cli.EXIT_CONTRACT
    assert out == ""
    assert "grid_resolution must be at least 10 * max window prime" in err


@pytest.mark.parametrize("argv,what", [
    (("reduce", "--n", "10000", "--window-upper", "1e10"), "sieve"),
    (("circle", "--window-lower", "2", "--window-upper", "1e10"), "sieve"),
    # a cheap sieve, but FFT blocks of 2^23 points
    (("reduce", "--n", "10000", "--window-lower", "2e6", "--window-upper", "2.1e6"),
     "covariance"),
    (("circle", "--window-lower", "2", "--window-upper", "30", "--resolution", "1e9"),
     "grid"),
    # the default grid has 10 points a unit of the largest window prime
    (("circle", "--window-lower", "2e7", "--window-upper", "2.1e7"), "grid"),
])
def test_window_work_past_the_limit_exits_5_before_sieving(capsys, monkeypatch, argv, what):
    def unreachable(*args):
        raise AssertionError(f"sieved {args}")
    monkeypatch.setattr(sieve, "prime_segments", unreachable)
    monkeypatch.setattr(sieve, "factor_counts", unreachable)
    code, out, err = _run(capsys, *argv)
    assert code == cli.EXIT_CAPACITY
    assert out == ""
    assert f"bytes for its {what}" in err


def test_halasz_three_points_reach_t_max(capsys):
    # the 3-point grid is [-log N, 0, log N]: its audit finds the dip the
    # 4-point grid finds, not one at |t| <= 10^-6
    rep3, rep4 = (_report(capsys, "halasz", "--n", "1e4", "--points", points)["results"]
                  for points in ("3", "4"))
    assert rep3 == rep4
    assert rep3["m0"]["value"] == pytest.approx(1.9802, abs=1e-4)
    assert rep3["m0"]["argmin_t"] == pytest.approx(-3.27, abs=0.01)


def test_reduce_writes_sweep_csv(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    rep = _report(capsys, "reduce", "--n", "10000", "--out", str(path))
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "xi,term"
    assert len(lines) > 2
    assert rep["results"]["total"] == pytest.approx(1.956258330517151, abs=1e-9)


def test_random_preset_is_seeded(capsys):
    rep1 = _report(capsys, "correlate", "--a", "random:7", "--b", "random:9",
                   "--n", "2000")
    rep2 = _report(capsys, "correlate", "--a", "random:7", "--b", "random:9",
                   "--n", "2000")
    assert rep1["results"]["lhs"] == rep2["results"]["lhs"]


_BAD_MANIFESTS = {
    "absent.json": None,
    "folder.json": "directory",
    "broken.json": '{"n": 100,',
    "list.json": "[100]",
    "bogus.json": '{"n": 100, "bogus": 1}',
}


@pytest.mark.parametrize("name", list(_BAD_MANIFESTS))
def test_bad_manifest_exits_2_and_writes_nothing(capsys, tmp_path, name):
    content = _BAD_MANIFESTS[name]
    mpath = tmp_path / name
    if content == "directory":
        mpath.mkdir()
    elif content is not None:
        mpath.write_text(content)
    out = tmp_path / "dens.csv"
    code, stdout, err = _run(capsys, "densities", "--manifest", str(mpath),
                             "--n", "100", "--out", str(out))
    assert code == cli.EXIT_CONTRACT
    assert stdout == ""
    assert name in err
    if name == "bogus.json":
        assert "'bogus'" in err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if content is None else [name])


def test_workers_only_where_honoured(capsys):
    assert _run(capsys, "densities", "--n", "1000", "--workers", "0")[0] == cli.EXIT_CONTRACT
    assert _run(capsys, "correlate", "--n", "1000", "--workers", "2")[0] == cli.EXIT_CONTRACT
    assert [c for c, cmd in cli.COMMANDS.items()
            if "workers" in {f.name for f in cmd.flags}] == ["sieve"]


_WINDOW = {"window", "window_lower", "window_upper"}
# command: (flags of one run, manifest keys besides "command" and "derived")
_MANIFEST_KEYS = {
    "sieve": (("--n", "200"), {"n", "lo", "hi", "mode", "cutoff", "format", "out", "workers"}),
    "densities": (("--n", "200"), {"n", "out"}),
    "erdos-kac": (("--n", "10000"), {"n"}),
    "correlate": (("--n", "1000"), {"n", "a", "b", "shift", "weighting"}),
    "theorem-c": (("--n", "1000"), {"n", "a"}),
    "distance": (("--n", "10000"), {"n", "xi", "t", "folded_xi"}),
    "halasz": (("--n", "10000", "--points", "21"), {"n", "preset", "points"}),
    "reduce": (("--n", "10000", "--xi", "1"), {"n", "xi", "out"} | _WINDOW),
    "circle": (("--n", "10000"), {"n", "epsilon", "resolution", "out"} | _WINDOW),
    "explore-k": (("--n", "1000"), {"n", "functions", "weighting"}),
}


@pytest.mark.parametrize("command", list(_MANIFEST_KEYS))
def test_manifest_key_set_per_command(capsys, tmp_path, command):
    flags, keys = _MANIFEST_KEYS[command]
    if _WINDOW <= keys:
        # the hyphen and the underscore spelling both name a window edge
        mpath = tmp_path / "window.json"
        mpath.write_text(json.dumps({"window-lower": 2, "window_upper": 30}))
        flags += ("--manifest", str(mpath))
    manifest = _report(capsys, command, *flags)["manifest"]
    assert set(manifest) == keys | {"command", "derived"}
    assert manifest["command"] == command
    if _WINDOW <= keys:
        assert (manifest["window"]["lower"], manifest["window"]["upper"]) == (2.0, 30.0)


@pytest.mark.parametrize("command", list(_MANIFEST_KEYS))
def test_echoed_manifest_reproduces_the_run(capsys, tmp_path, command):
    first = _report(capsys, command, *_MANIFEST_KEYS[command][0])
    mpath = tmp_path / "echo.json"
    mpath.write_text(json.dumps(first["manifest"]))
    again = _report(capsys, command, "--manifest", str(mpath))
    assert again["results"] == first["results"]
    assert again["manifest"] == first["manifest"]


def test_echo_of_another_run_exits_2_before_any_work(capsys, tmp_path, monkeypatch):
    echo = _report(capsys, "densities", "--n", "200")["manifest"]
    calls = []
    monkeypatch.setitem(cli.COMMANDS, "densities",
                        dataclasses.replace(cli.COMMANDS["densities"], run=calls.append))
    out = tmp_path / "dens.csv"
    for name, changed, flags, reason in (
            ("command", {"command": "erdos-kac"}, (), "'erdos-kac'"),
            ("derived", {"derived": {**echo["derived"], "n": 300}}, (), "derived n"),
            # a flag that moves N off the echo's
            ("override", {}, ("--n", "300"), "derived n")):
        mpath = tmp_path / f"{name}.json"
        mpath.write_text(json.dumps({**echo, **changed}))
        code, stdout, err = _run(capsys, "densities", "--manifest", str(mpath),
                                 *flags, "--out", str(out))
        assert code == cli.EXIT_CONTRACT
        assert stdout == ""
        assert str(mpath) in err and reason in err
    assert calls == []
    assert not out.exists()


def test_sieve_n_and_hi_that_disagree_exit_2_before_sieving(capsys, tmp_path, monkeypatch):
    # an echo carries hi = n + 1; a new --n beside it must not lose to hi
    echo = _report(capsys, "sieve", "--n", "200")["manifest"]
    assert (echo["n"], echo["hi"]) == (200, 201)
    mpath = tmp_path / "echo.json"
    mpath.write_text(json.dumps(echo))
    calls = []
    monkeypatch.setattr(sieve, "factor_counts", lambda *args, **kwargs: calls.append(args))
    for argv in (("--manifest", str(mpath), "--n", "300"), ("--n", "200", "--hi", "300")):
        code, stdout, err = _run(capsys, "sieve", *argv)
        assert code == cli.EXIT_CONTRACT
        assert stdout == "" and "--n" in err and "--hi" in err
    assert calls == []
    monkeypatch.undo()
    rep = _report(capsys, "sieve", "--n", "200", "--hi", "201")
    assert rep["results"]["count"] == 200


def test_disk_full_while_writing_exits_1_and_leaves_nothing(capsys, tmp_path, monkeypatch):
    def full_disk(block, path, append=False):
        with open(path, "wb") as fh:
            fh.write(b"\0" * 64)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    def full_disk_csv(block, handle, append=False):
        handle.write("n,count\n" * 64)
        handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(sieve, "write_block", full_disk)
    monkeypatch.setattr(sieve, "write_block_csv", full_disk_csv)
    for fmt in ("bin", "csv"):
        out = tmp_path / f"counts.{fmt}"
        code, stdout, err = _run(capsys, "sieve", "--n", "1000", "--format", fmt,
                                 "--out", str(out))
        assert code == cli.EXIT_IO == 1
        assert stdout == ""
        assert err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


def test_csv_body_is_written_into_the_one_temp_file(capsys, tmp_path, monkeypatch):
    # each CSV writer, mid-write, sees only <out>.tmp beside the output
    writers = {"sieve": (sieve, "write_block_csv", ("--n", "1000", "--format", "csv")),
               "densities": (stats, "write_density_csv", ("--n", "1000")),
               "reduce": (reduction, "write_xi_sweep_csv", ("--n", "10000", "--xi", "1")),
               "circle": (reduction, "write_alpha_sweep_csv", ("--n", "10000"))}
    for command, (module, name, flags) in writers.items():
        seen = []
        real = getattr(module, name)

        def listing(*args, real=real, seen=seen, **kwargs):
            seen.append(sorted(os.listdir(tmp_path)))
            real(*args, **kwargs)
        monkeypatch.setattr(module, name, listing)
        out = tmp_path / f"{command}.csv"
        _report(capsys, command, *flags, "--out", str(out))
        assert seen == [[f"{command}.csv.tmp"]], command
        assert sorted(os.listdir(tmp_path)) == [f"{command}.csv"], command
        out.unlink()


def test_memory_the_machine_cannot_allocate_exits_5(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 909. TiB for an array")
    monkeypatch.setattr(sieve, "factor_counts", no_memory)
    code, stdout, err = _run(capsys, "correlate", "--n", "1000", "--shift", "1e15")
    assert code == cli.EXIT_CAPACITY == 5
    assert stdout == ""
    assert err.startswith("error:") and "Traceback" not in err


# Flag values for the fuzz test: every number stays within 10^4 in magnitude,
# so no draw asks for a large sieve, grid or thread count.
_SIZES = st.sampled_from(["2", "30", "1000", "10000", "1000,2000"])
_NUMBERS = st.one_of(
    _SIZES, st.integers(-10**4, 10**4).map(str),
    st.fractions(-10**4, 10**4, max_denominator=8).map(lambda f: str(float(f))),
    st.sampled_from(["nan", "inf", "-inf", "1e4", "1,-2"]))
_NAMES = st.sampled_from(["big", "small", "truncated", "bin", "csv", "cesaro",
                          "logarithmic", "parity", "const:0.5", "indicator:2",
                          "fourier-mode:1", "fourier-mode:nan", "random:3",
                          "parity,const", ""])
_VALUES = st.one_of(_NUMBERS, _NAMES, st.text(max_size=6))
_JSON_VALUES = st.one_of(_VALUES, st.none(), st.integers(-10**4, 10**4),
                         st.floats(-1e4, 1e4), st.lists(st.integers(0, 9), max_size=2))
_WORKERS = st.sampled_from(["0", "1", "2", "-1", "two", "1.5", "nan"])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_invocations_exit_with_a_documented_code(data):
    name = data.draw(st.sampled_from(list(cli.COMMANDS)))
    flags = cli.COMMANDS[name].flags
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.dat")

        def value(flag, anything):
            """Mostly the table's default or a plausible size, else anything."""
            if flag.name == "out":
                return out
            if flag.name == "workers":
                return data.draw(_WORKERS)
            if data.draw(st.integers(0, 2)) == 0:
                return data.draw(anything)
            return str(flag.default) if flag.default is not None else data.draw(_SIZES)

        argv = [name] + [f"--{flag.name}={value(flag, _VALUES)}"
                         for flag in flags if data.draw(st.booleans())]
        shape = data.draw(st.sampled_from(["none", "none", "object", "object",
                                           "bogus", "list", "broken"]))
        if shape != "none":
            manifest = {data.draw(st.sampled_from([flag.name, flag.key])):
                        value(flag, _JSON_VALUES)
                        for flag in flags if data.draw(st.booleans())}
            if shape == "bogus":
                manifest["bogus"] = 1
            text = {"list": "[1000]", "broken": "{not json"}.get(shape, json.dumps(manifest))
            mpath = os.path.join(tmp, "manifest.json")
            with open(mpath, "w") as fh:
                fh.write(text)
            argv += ["--manifest", mpath]
        assert cli.main(argv) in (0, 2, 3, 4, 5), argv
        assert not [f for f in os.listdir(tmp) if f.endswith(".tmp")], argv


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_echoed_manifests_exit_with_a_documented_code(data):
    name = data.draw(st.sampled_from(list(_MANIFEST_KEYS)))
    flags = cli.COMMANDS[name].flags
    with tempfile.TemporaryDirectory() as tmp:
        argv = [name, *_MANIFEST_KEYS[name][0]]
        if any(flag.name == "out" for flag in flags):
            argv += ["--out", os.path.join(tmp, "out.dat")]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert cli.main(argv) == 0, argv
        manifest = json.loads(stdout.getvalue())["manifest"]
        key = data.draw(st.sampled_from(sorted(manifest)))
        if key == "out":   # a file inside the temporary directory, or none
            manifest[key] = data.draw(st.sampled_from([None, os.path.join(tmp, "other.dat")]))
        else:
            manifest[key] = data.draw(_WORKERS if key == "workers" else _JSON_VALUES)
        mpath = os.path.join(tmp, "echo.json")
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([name, "--manifest", mpath]) in (0, 2, 3, 4, 5), manifest
        assert not [f for f in os.listdir(tmp) if f.endswith(".tmp")], manifest
