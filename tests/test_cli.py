"""Command-line interface run in-process: exit codes, manifests, outputs."""

import json
import os

import pytest

from omegalab import cli


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


def test_theorem_c_multiple_n(capsys):
    rep = _report(capsys, "theorem-c", "--n", "1000,2000", "--a", "parity")
    vals = rep["results"]["values"]
    assert set(vals) == {"1000", "2000"} or len(vals) == 2


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


def test_circle_command_reports_measure(capsys, tmp_path):
    rep = _report(capsys, "circle", "--n", "10000",
                  "--window-lower", "2", "--window-upper", "30",
                  "--epsilon", "0.5")
    assert 0.0 <= rep["results"]["measure"] <= 1.0
    assert rep["results"]["audit_product"] >= 0.0


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
