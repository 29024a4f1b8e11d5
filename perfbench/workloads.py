"""The three workloads: inputs, set-up, timed operations and their checks.

A workload runs in one fresh process per round (see child.py), so every
round starts with every in-process cache of the program empty.  Each
operation is one call into a public function of the program, timed from
outside by Round.call; the benchmark adds no tracing to the program.

  stats_1e8    counts -> statistics at N = 10^8 (profiles, stats, correlation)
  fourier_1e7  reduced sum and pretentious audits at N = 10^7 (reduction,
               pretentious); the only workload whose memory is large
  windows_cli  the CLI on sieve windows far from the origin and on file
               output (sieve segments with base primes up to 10^7, I/O)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import time

import numpy as np

import reference as ref
from checks import Checks

from omegalab import (cli, correlation, pretentious, profiles, reduction,
                      sieve, stats)

# A call whose peak resident set growth is worth its own per-layer metric.
RSS_GROWTH = {"reduction.reduced_sum_terms_s": "reduction.reduced_sum_terms.rss_growth_mb"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Round:
    """One round of one workload: timed calls, their spans and checks."""

    def __init__(self, seed: int, round_index: int, trace: bool):
        self.rng = np.random.default_rng([seed, round_index])
        self.trace = trace
        self.phase = "setup"
        self.ops = []        # operations attempted, in call order
        self.errors = {}     # operation -> why it failed
        self.spans = []
        self.checks = Checks()
        self.workdir = None  # a temporary directory for the round's files

    def call(self, op, metric, fn, *args):
        """Time one call into the program; an exception fails the operation."""
        self.ops.append(op)
        with self.span(op, metric):
            try:
                return fn(*args)
            except Exception as exc:  # a program fault is a failed operation
                self.errors[op] = f"{type(exc).__name__}: {exc}"
                return None

    @contextlib.contextmanager
    def span(self, name, metric):
        rss0, cpu0, t0 = peak_rss_mb(), time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            self.spans.append({"name": name, "metric": metric, "phase": self.phase,
                               "wall_s": wall, "cpu_s": time.process_time() - cpu0,
                               "rss_before_mb": rss0, "rss_after_mb": peak_rss_mb()})

    @contextlib.contextmanager
    def watching(self, module, attr, metric):
        """In traced rounds, time every call the program makes to module.attr."""
        original = getattr(module, attr)

        def timed(*args, **kwargs):
            with self.span(f"{module.__name__}.{attr}", metric):
                return original(*args, **kwargs)

        if self.trace:
            setattr(module, attr, timed)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def judge(self, op, build):
        """Add op's checks; an op whose checks cannot be built has failed."""
        if op in self.errors:
            return
        try:
            build(self.checks)
        except Exception as exc:  # a malformed output fails its operation
            self.errors[op] = f"unexpected output: {type(exc).__name__}: {exc}"

    def layer_values(self) -> dict:
        """Per-layer metrics of this round: summed wall time per metric."""
        out = {}
        for s in self.spans:
            if s["metric"] is None:
                continue
            out[s["metric"]] = out.get(s["metric"], 0.0) + s["wall_s"]
            grown = RSS_GROWTH.get(s["metric"])
            if grown:
                out[grown] = out.get(grown, 0.0) + s["rss_after_mb"] - s["rss_before_mb"]
        return out


def _sample_counts(rng, lo, hi, size, primes, limit, kind=0, cutoff=math.inf):
    """Seeded sample of n in [lo, hi) and their counts by trial division.

    kind picks Omega (0), omega (1) or distinct primes <= cutoff (2).
    """
    ns = np.unique(rng.integers(lo, hi, size=size))
    own = np.array([ref.factor_counts_of(int(n), primes, limit, cutoff)[kind]
                    for n in ns.tolist()])
    return ns, own


# ---------------------------------------------------------------------------


class Stats1e8:
    """The counts -> statistics workflow behind Theorem A, at N = 10^8."""

    N = 10**8
    HI = N + 16   # block covers n = 1 .. N + 15; prime shifts go up to 13
    SAMPLE = 4000

    def inputs(self, rng):
        pair = sorted(rng.choice([2, 3, 5, 7, 11, 13], size=2, replace=False).tolist())
        return {"pair": pair}

    def setup(self, rnd, inputs):
        block = rnd.call("setup.factor_counts", "sieve.factor_counts.dense_s",
                         sieve.factor_counts, 1, self.HI)
        if block is not None:
            profiles.adopt_block(block)
        return block

    def run(self, rnd, inputs, block):
        N = self.N
        par = correlation.parity_function()
        return {
            "density_table": rnd.call("density_table", "stats.density_table_s",
                                      stats.density_table, N, block),
            "sathe_selberg": rnd.call("sathe_selberg_ratio_check",
                                      "stats.sathe_selberg_ratio_check_s",
                                      stats.sathe_selberg_ratio_check, N, 2, block),
            "ks": rnd.call("erdos_kac_ks", "stats.erdos_kac_ks_s",
                           stats.erdos_kac_ks, N, block),
            "l1_gap": rnd.call("density_l1_gap", "stats.density_l1_gap_s",
                               stats.density_l1_gap, N, block),
            "profile0": rnd.call("two_point_profile.shift0",
                                 "profiles.two_point_profile.shift0_s",
                                 profiles.two_point_profile, N, 0),
            "profile1": rnd.call("two_point_profile.shift1",
                                 "profiles.two_point_profile.shift1_s",
                                 profiles.two_point_profile, N, 1),
            "theorem_a": rnd.call("theorem_a_report", "correlation.theorem_a_report_s",
                                  correlation.theorem_a_report, par, par, N),
            "theorem_c": rnd.call("theorem_c_sum", "correlation.theorem_c_sum_s",
                                  correlation.theorem_c_sum, par, N),
            "k_point": rnd.call("k_point_explore", "correlation.k_point_explore_s",
                                correlation.k_point_explore, [par, par, par], N),
            "prime_shift": rnd.call("prime_shift_identity",
                                    "correlation.prime_shift_identity_s",
                                    correlation.prime_shift_identity, par, par, N,
                                    inputs["pair"]),
        }

    def check(self, rnd, inputs, block, out):
        N, pair = self.N, inputs["pair"]
        small_primes = ref.primes_upto(10**4)   # 10007^2 > N + 15
        ns, own = _sample_counts(rnd.rng, 1, self.HI, self.SAMPLE, small_primes, 10**4)

        def setup_checks(c):
            c.equal("setup.factor_counts", "block covers [1, N + 16)",
                    block.hi - block.lo, self.HI - 1)
            c.equal("setup.factor_counts", "sampled Omega(n) = trial division",
                    block.counts[ns - 1].astype(np.int64), own)
        rnd.judge("setup.factor_counts", setup_checks)
        if "setup.factor_counts" in rnd.errors:
            return
        s = ref.stats_sums(block.counts, N, pair)
        hist, H = s["hist"], s["harmonic"]
        mu, sigma, dens = ref.gaussian_levels(N)
        lam_mean = s["lam_sum"] / N
        lhs = s["pair_log"] / H

        def density_checks(c):
            t = out["density_table"]
            c.equal("density_table", "histogram sums to N", int(t.counts.sum()), N)
            c.equal("density_table", "level-1 count is pi(10^8)", int(t.counts[1]), 5761455)
            c.equal("density_table", "histogram = own bincount", t.counts, hist)
            c.close("density_table", "pi_bar_log", t.pi_bar_log, s["log_hist"] / H, 1e-12)
            c.close("density_table", "harmonic mass", t.harmonic_mass, H, 1e-12)
            c.close("density_table", "gaussian column", t.gaussian, dens, 1e-12)
        rnd.judge("density_table", density_checks)

        def ratio_checks(c):
            r = out["sathe_selberg"]
            members = [ell for ell in range(math.ceil(mu - 2 * sigma),
                                            math.floor(mu + 2 * sigma) + 1) if ell >= 1]
            devs = [abs(hist[ell] / N / dens[ell] - 1.0) for ell in members]
            c.equal("sathe_selberg_ratio_check", "window levels",
                    np.array([row["ell"] for row in r["rows"]]), np.array(members))
            c.close("sathe_selberg_ratio_check", "max deviation",
                    r["max_deviation"], max(devs), 1e-12)
        rnd.judge("sathe_selberg_ratio_check", ratio_checks)

        def ks_checks(c):
            ks = ref.ks_distance(hist, N)
            c.close("erdos_kac_ks", "KS distance via math.erfc", out["ks"]["ks"], ks, 1e-12)
            c.close("erdos_kac_ks", "normalized KS", out["ks"]["normalized"],
                    ks * math.sqrt(mu), 1e-12)
        rnd.judge("erdos_kac_ks", ks_checks)

        rnd.judge("density_l1_gap", lambda c: c.close(
            "density_l1_gap", "L1 gap", out["l1_gap"],
            float(np.abs(hist / N - s["log_hist"] / H).sum()), 1e-12))

        # Omega(1) = 0 leaves the shifted column at n = 1; Omega(N + 1) enters it
        shifted_hist = hist.copy()
        shifted_hist[0] -= 1
        shifted_hist[ref.factor_counts_of(N + 1, small_primes, 10**4)[0]] += 1

        def profile_checks(c, op, p, shift):
            c.equal(op, "hist = own bincount", p.hist, hist)
            c.equal(op, "joint row sums = hist", p.joint.sum(axis=1), hist)
            c.equal(op, "joint column sums", p.joint.sum(axis=0),
                    hist if shift == 0 else shifted_hist)
            c.close(op, "joint_log row sums", p.joint_log.sum(axis=1),
                    s["log_hist"], 1e-12)
            c.close(op, "harmonic mass", p.harmonic_mass, H, 1e-12)
        rnd.judge("two_point_profile.shift0", lambda c: (
            profile_checks(c, "two_point_profile.shift0", out["profile0"], 0),
            c.equal("two_point_profile.shift0", "joint is diagonal",
                    out["profile0"].joint, np.diag(hist))))
        rnd.judge("two_point_profile.shift1", lambda c: profile_checks(
            c, "two_point_profile.shift1", out["profile1"], 1))

        def theorem_a_checks(c):
            r = out["theorem_a"]
            c.close("theorem_a_report", "lhs = sum l(n)l(n+1)/n / sum 1/n", r.lhs, lhs, 1e-12)
            c.close("theorem_a_report", "prediction = (sum l(n) / N)^2",
                    r.prediction, lam_mean ** 2, 1e-12)
        rnd.judge("theorem_a_report", theorem_a_checks)

        def theorem_c_checks(c):
            with np.errstate(invalid="ignore", divide="ignore"):
                disc = np.abs(s["next_sign_log"] / s["log_hist"] - lam_mean)
            disc[s["log_hist"] == 0] = 0.0
            c.close("theorem_c_sum", "level-resolved discrepancy sum",
                    out["theorem_c"], float(hist / N @ disc), 1e-12)
        rnd.judge("theorem_c_sum", theorem_c_checks)

        def k_point_checks(c):
            r = out["k_point"]
            c.close("k_point_explore", "value = sum l(n)l(n+1)l(n+2) / N",
                    r["value"], s["triple"] / N, 1e-12)
            c.close("k_point_explore", "marginal product", r["marginal_product"],
                    lam_mean ** 3, 1e-12)
        rnd.judge("k_point_explore", k_point_checks)

        def prime_shift_checks(c):
            r = out["prime_shift"]
            w = [1.0 / p for p in pair]
            rhs = sum(wp * s["shifted"][p] / H for wp, p in zip(w, pair)) / sum(w)
            c.close("prime_shift_identity", "lhs", r["lhs"], lhs, 1e-12)
            c.close("prime_shift_identity", "rhs = weighted prime-shift sums",
                    r["rhs"], rhs, 1e-12)
        rnd.judge("prime_shift_identity", prime_shift_checks)


# ---------------------------------------------------------------------------


class Fourier1e7:
    """The reduced sum and the pretentious audits at N = 10^7."""

    N = 10**7
    T_POINTS = 201

    def inputs(self, rng):
        lower, upper = ref.window_edges(self.N)
        top = int(ref.primes_upto(int(upper))[-1])
        override_primes = rng.choice(ref.primes_upto(100), size=3, replace=False)
        units = [1.0 + 0j, 1j, -1j]
        overrides = {int(p): units[int(rng.integers(3))] for p in override_primes}
        residuals = [(int(rng.integers(-40, 41)), float(rng.uniform(-10.0, 10.0)))
                     for _ in range(3)]
        return {"edges": (lower, upper), "need": self.N + top, "overrides": overrides,
                "residuals": residuals, "epsilon": float(rng.uniform(0.3, 0.7))}

    def setup(self, rnd, inputs):
        with rnd.watching(sieve, "factor_counts", "sieve.factor_counts.dense_s"):
            return rnd.call("setup.shared_counts", "profiles.shared_counts_s",
                            profiles.shared_counts, inputs["need"] + 1)

    def run(self, rnd, inputs, counts):
        N = self.N
        out = {}
        window = out["window"] = rnd.call("prime_window", "reduction.prime_window_s",
                                          reduction.prime_window, N)
        members = pretentious.frequency_family(N).members
        out["terms"] = rnd.call("reduced_sum_terms", "reduction.reduced_sum_terms_s",
                                reduction.reduced_sum_terms, N, window, members)
        grid = pretentious.log_t_grid(math.log(N), points=self.T_POINTS)
        out["halasz_constant"] = rnd.call(
            "halasz_audit.constant", "pretentious.halasz_audit.constant_s",
            pretentious.halasz_audit, pretentious.liouville_spec(), N, grid)
        spec = pretentious.MultFunSpec(default_prime_value=-1.0 + 0j,
                                       prime_values=inputs["overrides"])
        out["halasz_general"] = rnd.call(
            "halasz_audit.general", "pretentious.halasz_audit.general_s",
            pretentious.halasz_audit, spec, N, grid)
        out["residuals"] = [
            rnd.call(f"dist_formula_residual.{i}", "pretentious.dist_formula_residual_s",
                     pretentious.dist_formula_residual, xi, N, t)
            for i, (xi, t) in enumerate(inputs["residuals"])]
        out["measure"] = rnd.call("major_arc_measure", "reduction.major_arc_measure_s",
                                  reduction.major_arc_measure, window,
                                  inputs["epsilon"], 10 * window.max_prime)
        return out

    def check(self, rnd, inputs, counts, out):
        N = self.N
        primes = ref.primes_upto(N)
        invp = 1.0 / primes.astype(np.float64)
        lower, upper = inputs["edges"]
        wp = primes[(primes >= lower) & (primes <= upper)]
        root_primes = primes[primes <= 4000]   # 4001^2 > need
        ns, own = _sample_counts(rnd.rng, 1, inputs["need"] + 1, 2000, root_primes, 4000)

        def setup_checks(c):
            c.equal("setup.shared_counts", "counts cover n = 1 .. N + max prime",
                    int(counts.shape[0]), inputs["need"])
            c.equal("setup.shared_counts", "sampled Omega(n) = trial division",
                    counts[ns - 1].astype(np.int64), own)
        rnd.judge("setup.shared_counts", setup_checks)
        if "setup.shared_counts" in rnd.errors:
            return
        lam_sum = int(ref.liouville(counts[:N]).sum(dtype=np.int64))

        def window_checks(c):
            w = out["window"]
            c.equal("prime_window", "window primes", w.primes, wp)
            c.close("prime_window", "window edges", np.array([w.lower, w.upper]),
                    np.array([lower, upper]), 1e-12)
            c.close("prime_window", "window mass", w.mass, float((1.0 / wp).sum()), 1e-12)
        rnd.judge("prime_window", window_checks)

        def term_checks(c):
            terms = out["terms"]
            members = ref.frequency_members(N)
            positive = [xi for xi in members if xi > 0 and -xi in terms]
            c.equal("reduced_sum_terms", "one term per frequency",
                    np.array(sorted(terms)), np.array(members))
            c.equal("reduced_sum_terms", "term at xi = 0 is exactly 0", terms[0], 0.0)
            c.close("reduced_sum_terms", "term(-xi) = term(xi)",
                    np.array([terms[-xi] for xi in positive]),
                    np.array([terms[xi] for xi in positive]), 1e-12)
            c.within("reduced_sum_terms", "terms lie in [0, 4]",
                     np.array([terms[xi] for xi in members]), 0.0, 4.0)
            c.close("reduced_sum_terms", "term at xi = 1 by per-prime gathers", terms[1],
                    ref.reduced_term(counts, N, wp, 1, len(members)), 1e-12)
        rnd.judge("reduced_sum_terms", term_checks)

        def halasz_checks(c, op, r, mean, t0_distance):
            c.close(op, "mean = sum f(n) / N", r["mean"], mean, 1e-12)
            c.within(op, "m0 in [0, distance at t = 0]", r["m0"]["value"], 0.0, t0_distance)
            c.within(op, "bound in (0, 1]", r["bound"], 0.0, 1.0, open_lo=True)
            c.close(op, "bound = exp(-m0 / 16)", r["bound"],
                    math.exp(-r["m0"]["value"] / 16.0), 1e-12)
        rnd.judge("halasz_audit.constant", lambda c: halasz_checks(
            c, "halasz_audit.constant", out["halasz_constant"], lam_sum / N,
            float(2.0 * invp.sum())))

        def general_checks(c):
            overrides = inputs["overrides"]
            fp = np.full(primes.size, -1.0)
            for p, v in overrides.items():
                fp[np.searchsorted(primes, p)] = complex(v).real
            halasz_checks(c, "halasz_audit.general", out["halasz_general"],
                          ref.multiplicative_sum(counts, N, overrides) / N,
                          float((1.0 - fp) @ invp))
        rnd.judge("halasz_audit.general", general_checks)

        loglog, size = math.log(math.log(N)), len(ref.frequency_members(N))
        logp = np.log(primes.astype(np.float64))
        for i, (xi, t) in enumerate(inputs["residuals"]):
            op = f"dist_formula_residual.{i}"
            theta = 2.0 * math.pi * xi / size   # e(xi / |I|) depends on xi mod |I| only
            measured = float((1.0 - np.cos(theta - t * logp)) @ invp)
            formula = ((1.0 - math.cos(theta)) * loglog
                       + math.cos(theta) * math.log(1.0 + abs(t) * math.log(N)))
            rnd.judge(op, lambda c, op=op, i=i, expect=abs(measured - formula): c.close(
                op, "residual from own prime sum", out["residuals"][i], expect, 1e-9))

        def measure_checks(c):
            w = wp.astype(np.float64)
            res = 10 * int(wp[-1])
            alphas = np.arange(res) / res
            phases = np.exp(2j * math.pi * np.outer(alphas, w))
            sums = np.abs(phases @ (1.0 / w)) / (1.0 / w).sum()
            above = sums > inputs["epsilon"]
            crossings = int(np.count_nonzero(above != np.roll(above, -1)))
            grid_measure = float(above.mean())
            c.within("major_arc_measure", "measure in [0, 1]", out["measure"], 0.0, 1.0)
            c.that("major_arc_measure", "measure within one cell per crossing of the grid count",
                   out["measure"], lambda v: abs(v - grid_measure) <= (crossings + 1) / res)
        rnd.judge("major_arc_measure", measure_checks)


# ---------------------------------------------------------------------------


class WindowsCli:
    """The CLI on far sieve windows and on file output."""

    WIDTH = 10**6
    CUTOFF = 10**7
    KIND = {"big": 0, "small": 1, "truncated": 2}   # index into factor_counts_of
    SAMPLE = 48
    TRIAL_LIMIT = 10**7 + 1000   # 10001001^2 exceeds every n sieved here

    def inputs(self, rng):
        # window starts move by whole widths, at most 10^9 past the decade
        big, small, truncated = (int(k) * self.WIDTH for k in rng.integers(0, 1000, size=3))
        return {"windows": [("big", 10**12 + big), ("small", 10**14 + small),
                            ("truncated", 10**12 + truncated)]}

    def setup(self, rnd, inputs):
        return None   # set-up is the imports alone

    def run(self, rnd, inputs, _state):
        out = {"windows": {}}
        for mode, lo in inputs["windows"]:
            argv = ["sieve", "--lo", str(lo), "--hi", str(lo + self.WIDTH),
                    "--mode", mode, "--out", os.path.join(rnd.workdir, f"{mode}.bin")]
            if mode == "truncated":
                argv += ["--cutoff", str(self.CUTOFF)]
            out["windows"][mode] = rnd.call(f"cli.sieve.{mode}",
                                            f"cli.sieve.window_{mode}_s", run_cli, argv)
        csv_path = os.path.join(rnd.workdir, "counts.csv")
        out["csv"] = rnd.call("cli.sieve.csv", "cli.sieve.csv_s", run_cli,
                              ["sieve", "--n", "1e6", "--format", "csv", "--out", csv_path])
        dens_path = os.path.join(rnd.workdir, "densities.csv")
        out["densities"] = rnd.call("cli.densities", "cli.densities_s", run_cli,
                                    ["densities", "--n", "1e7", "--out", dens_path])
        out["blocks"] = {
            mode: rnd.call(f"read_block.{mode}", "sieve.read_block_s", sieve.read_block,
                           os.path.join(rnd.workdir, f"{mode}.bin"))
            for mode, _ in inputs["windows"]}
        return out

    def check(self, rnd, inputs, _state, out):
        primes = ref.primes_upto(self.TRIAL_LIMIT)
        for mode, lo in inputs["windows"]:
            op = f"cli.sieve.{mode}"
            ns, own = _sample_counts(rnd.rng, lo, lo + self.WIDTH, self.SAMPLE, primes,
                                     self.TRIAL_LIMIT, self.KIND[mode], self.CUTOFF)

            def window_checks(c, op=op, mode=mode, lo=lo, ns=ns, own=own):
                code, report = out["windows"][mode]
                block = out["blocks"][mode]
                c.equal(op, "exit code", code, 0)
                c.equal(op, "count = width", report["results"]["count"], self.WIDTH)
                c.equal(op, "digest = sha256 of the block read back",
                        report["results"]["digest"],
                        hashlib.sha256(block.counts.tobytes()).hexdigest())
                c.equal(op, f"sampled counts = trial division ({mode})",
                        block.counts[ns - lo].astype(np.int64), own)
            rnd.judge(op, window_checks)
            rnd.judge(f"read_block.{mode}", lambda c, mode=mode, lo=lo: (
                c.equal(f"read_block.{mode}", "header lo", out["blocks"][mode].lo, lo),
                c.equal(f"read_block.{mode}", "header hi", out["blocks"][mode].hi,
                        lo + self.WIDTH),
                c.equal(f"read_block.{mode}", "body length",
                        int(out["blocks"][mode].counts.size), self.WIDTH)))

        small_primes = primes[primes <= 1000]
        ns, own = _sample_counts(rnd.rng, 1, self.WIDTH + 1, 4 * self.SAMPLE,
                                 small_primes, 1000)

        def csv_checks(c):
            code, report = out["csv"]
            rows = np.loadtxt(os.path.join(rnd.workdir, "counts.csv"), delimiter=",",
                              comments="#", skiprows=3, dtype=np.int64, ndmin=2)
            c.equal("cli.sieve.csv", "exit code", code, 0)
            c.equal("cli.sieve.csv", "row count = width", int(rows.shape[0]), self.WIDTH)
            c.equal("cli.sieve.csv", "n column = 1 .. width", rows[:, 0],
                    np.arange(1, self.WIDTH + 1))
            c.equal("cli.sieve.csv", "digest = sha256 of the count column",
                    report["results"]["digest"],
                    hashlib.sha256(rows[:, 1].astype(np.uint8).tobytes()).hexdigest())
            c.equal("cli.sieve.csv", "sampled Omega(n) = trial division",
                    rows[ns - 1, 1], own)
        rnd.judge("cli.sieve.csv", csv_checks)

        def density_checks(c):
            code, _ = out["densities"]
            table = np.loadtxt(os.path.join(rnd.workdir, "densities.csv"), delimiter=",",
                               comments="#", skiprows=3, ndmin=2)
            ells = table[:, 0].astype(np.int64)
            c.equal("cli.densities", "exit code", code, 0)
            c.close("cli.densities", "pi_bar sums to 1", float(table[:, 1].sum()), 1.0, 1e-12)
            c.equal("cli.densities", "level-1 row is pi(10^7) / 10^7",
                    float(table[ells == 1, 1][0]), 664579 / 10**7)
        rnd.judge("cli.densities", density_checks)


def run_cli(argv):
    """cli.main in-process, stdout captured; returns (exit code, parsed report)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    text = buffer.getvalue().strip()
    return code, json.loads(text.splitlines()[-1]) if text else None


WORKLOADS = {"stats_1e8": Stats1e8(), "fourier_1e7": Fourier1e7(),
             "windows_cli": WindowsCli()}
