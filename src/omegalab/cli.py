"""Command-line entry point.

One experiment per invocation.  Every run prints a JSON report to
stdout whose "manifest" block echoes the fully resolved parameters
(including derived quantities such as the frequency interval, the
truncation cutoff, and window edges).  CSV outputs carry the same
manifest in comment lines; numeric payloads are deterministic given
manifest and seed, and files are written atomically so a failed run
never leaves partial results behind.

Exit codes: 0 success, 2 contract violation or bad usage, 3 unknown
function preset, 4 degenerate prime window, 5 capacity overflow.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from decimal import Decimal

import numpy as np

from .errors import (CapacityError, ContractError, DegenerateWindowError,
                     UnknownPresetError)
from . import averaging
from . import correlation as corr
from . import pretentious
from . import profiles
from . import reduction
from . import sieve
from . import stats

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_PRESET = 3
EXIT_WINDOW = 4
EXIT_CAPACITY = 5

WORKERS_ENV = "OMEGALAB_WORKERS"


# ---------------------------------------------------------------------------
# Presets and small helpers


def resolve_preset(text: str, n_limit: int) -> corr.BoundedFunction:
    """Parse a function preset: parity, const[:c], indicator:l,
    fourier-mode:xi, random:seed."""
    if not isinstance(text, str) or not text:
        raise UnknownPresetError(f"bad preset {text!r}")
    name, _, arg = text.partition(":")
    try:
        if name == "parity" and not arg:
            return corr.parity_function()
        if name == "const":
            return corr.constant_function(float(arg) if arg else 1.0)
        if name == "indicator" and arg:
            return corr.indicator_function(int(arg))
        if name == "fourier-mode" and arg:
            family = pretentious.frequency_family(n_limit)
            return corr.fourier_mode_function(int(arg), family.size)
        if name == "random" and arg:
            return corr.random_bounded_function(int(arg))
    except (ValueError, ContractError) as exc:
        raise UnknownPresetError(f"preset {text!r}: {exc}") from exc
    raise UnknownPresetError(f"unknown preset {text!r}")


def _jsonify(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    return value


def _integer(value) -> int:
    """Exact integer from a flag or manifest value.

    Digit strings parse exactly and integral exponent forms such as 1e12
    are accepted; nan, inf, non-integral values and garbage are contract
    violations, and magnitudes past 64 bits are capacity overflows.
    """
    try:
        number = Decimal(value)
    except (ArithmeticError, TypeError, ValueError):
        raise ContractError(f"expected an integer, got {value!r}") from None
    if not number.is_finite() or number != number.to_integral_value():
        raise ContractError(f"expected an integer, got {value!r}")
    if number.copy_abs() >= 2**64:
        raise CapacityError(f"{value!r} exceeds 64-bit capacity")
    return int(number)


def _parse_n(value) -> int:
    n = _integer(value)
    if n < 1:
        raise ContractError(f"n must be positive, got {value!r}")
    return n


def _parse_n_list(text) -> list:
    return [_parse_n(part) for part in str(text).split(",") if part != ""]


def _derived_block(n_limit: int | None) -> dict:
    if n_limit is None:
        return {}
    out = {"n": n_limit}
    if n_limit >= 16:
        family = pretentious.frequency_family(n_limit)
        out.update({
            "amplitude": family.A,
            "interval_radius": family.radius,
            "interval_size": family.size,
            "truncation_cutoff": sieve.truncation_cutoff(n_limit),
        })
    if n_limit >= 3:
        model = stats.gaussian_model(n_limit)
        out.update({"mean": model.mu, "deviation": model.sigma})
    return out


def _atomic_csv(path: str, manifest: dict, write_body) -> None:
    """Write a CSV atomically: body to a temp file, then final file with
    timestamp + manifest comment lines prepended."""
    tmp = path + ".tmp"
    write_body(tmp)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    final_tmp = path + ".hdr.tmp"
    try:
        with open(final_tmp, "w", newline="") as out:
            out.write(f"# timestamp {stamp}\n")
            out.write("# manifest " + json.dumps(_jsonify(manifest),
                                                 sort_keys=True) + "\n")
            with open(tmp) as body:
                for line in body:
                    out.write(line)
        os.replace(final_tmp, path)
    finally:
        for leftover in (tmp, final_tmp):
            if os.path.exists(leftover):
                os.remove(leftover)


def _resolve(args, manifest: dict, key: str, default=None, cast=None):
    """Flag value if given, else manifest value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = manifest.get(key, manifest.get(key.replace("-", "_")))
    if value is None:
        value = default
    if value is not None and cast is not None:
        value = cast(value)
    return value


def _workers(args, manifest) -> int:
    value = _resolve(args, manifest, "workers")
    if value is None:
        value = os.environ.get(WORKERS_ENV, 1)
    return _integer(value)


# ---------------------------------------------------------------------------
# Commands


def _cmd_sieve(args, manifest):
    n = _resolve(args, manifest, "n", cast=_parse_n)
    lo = _resolve(args, manifest, "lo", 1, _integer)
    hi = _resolve(args, manifest, "hi", cast=_integer)
    if hi is None:
        if n is None:
            raise ContractError("sieve needs --n or --hi")
        hi = n + 1
    mode_name = _resolve(args, manifest, "mode", "big", str)
    cutoff = _resolve(args, manifest, "cutoff", cast=float)
    if mode_name == "big":
        mode = sieve.BigOmega
    elif mode_name == "small":
        mode = sieve.SmallOmega
    elif mode_name == "truncated":
        if cutoff is None:
            raise ContractError("truncated mode needs --cutoff")
        mode = sieve.TruncatedOmega(cutoff)
    else:
        raise ContractError(f"unknown mode {mode_name!r}")
    config = sieve.SieveConfig(worker_count=_workers(args, manifest))
    out = _resolve(args, manifest, "out", cast=str)
    fmt = _resolve(args, manifest, "format", "bin", str)
    if fmt not in ("bin", "csv"):
        raise ContractError(f"unknown format {fmt!r}")

    block = sieve.factor_counts(lo, hi, mode, config)
    digest = hashlib.sha256(block.counts.tobytes()).hexdigest()
    resolved = {"command": "sieve", "lo": lo, "hi": hi, "mode": mode_name,
                "cutoff": cutoff, "format": fmt, "out": out,
                "workers": config.worker_count,
                "derived": _derived_block(hi - 1)}
    if out is not None:
        if fmt == "bin":
            tmp = out + ".tmp"
            try:
                sieve.write_block(block, tmp)
                os.replace(tmp, out)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        else:
            _atomic_csv(out, resolved, lambda p: sieve.write_block_csv(block, p))
    results = {"count": int(hi - lo), "digest": digest,
               "histogram": _jsonify(np.bincount(block.counts, minlength=1))}
    return resolved, results


def _cmd_densities(args, manifest):
    n = _resolve(args, manifest, "n", cast=_parse_n)
    if n is None:
        raise ContractError("densities needs --n")
    out = _resolve(args, manifest, "out", cast=str)
    table = stats.density_table(n)
    resolved = {"command": "densities", "n": n, "out": out,
                "derived": _derived_block(n)}
    if out is not None:
        _atomic_csv(out, resolved, lambda p: stats.write_density_csv(table, p))
    top = int(np.max(np.nonzero(table.counts)[0]))
    results = {"max_level": top,
               "mass_check": float(table.pi_bar.sum()),
               "pi_bar": _jsonify(table.pi_bar[: top + 1])}
    return resolved, results


def _cmd_erdos_kac(args, manifest):
    n = _resolve(args, manifest, "n", cast=_parse_n)
    if n is None:
        raise ContractError("erdos-kac needs --n")
    report = stats.erdos_kac_ks(n)
    resolved = {"command": "erdos-kac", "n": n, "derived": _derived_block(n)}
    return resolved, _jsonify(report)


def _cmd_correlate(args, manifest):
    n = _resolve(args, manifest, "n", cast=_parse_n)
    if n is None:
        raise ContractError("correlate needs --n")
    a_name = _resolve(args, manifest, "a", "const", str)
    b_name = _resolve(args, manifest, "b", "const", str)
    shift = _resolve(args, manifest, "shift", 1, _integer)
    weighting = _resolve(args, manifest, "weighting",
                         averaging.LOGARITHMIC, str)
    a = resolve_preset(a_name, n)
    b = resolve_preset(b_name, n)
    lhs = corr.two_point_lhs(a, b, n, shift, weighting)
    profile = profiles.two_point_profile(n, 0)
    mean_a = complex(a.table() @ profile.hist) / n
    mean_b = complex(b.table() @ profile.hist) / n
    prediction = mean_a * mean_b
    resolved = {"command": "correlate", "n": n, "a": a_name, "b": b_name,
                "shift": shift, "weighting": weighting,
                "derived": _derived_block(n)}
    results = {"lhs": _jsonify(complex(lhs)),
               "prediction": _jsonify(complex(prediction)),
               "error": abs(complex(lhs) - prediction)}
    return resolved, results


def _cmd_theorem_c(args, manifest):
    n_list = _resolve(args, manifest, "n", cast=_parse_n_list)
    if not n_list:
        raise ContractError("theorem-c needs --n (single value or comma list)")
    a_name = _resolve(args, manifest, "a", "parity", str)
    values = {}
    for n in n_list:
        a = resolve_preset(a_name, n)
        values[str(n)] = corr.theorem_c_sum(a, n)
    resolved = {"command": "theorem-c", "n": n_list, "a": a_name,
                "derived": _derived_block(max(n_list))}
    return resolved, {"values": values}


def _cmd_distance(args, manifest):
    n = _resolve(args, manifest, "n", cast=_parse_n)
    if n is None:
        raise ContractError("distance needs --n")
    xi = _resolve(args, manifest, "xi", 0.0, float)
    t = _resolve(args, manifest, "t", 0.0, float)
    residual = pretentious.dist_formula_residual(xi, n, t)
    family = pretentious.frequency_family(n)
    resolved = {"command": "distance", "n": n, "xi": xi, "t": t,
                "folded_xi": family.fold(xi), "derived": _derived_block(n)}
    return resolved, {"residual": residual}


def _cmd_halasz(args, manifest):
    n = _resolve(args, manifest, "n", cast=_parse_n)
    if n is None:
        raise ContractError("halasz needs --n")
    preset = _resolve(args, manifest, "preset", "parity", str)
    points = _resolve(args, manifest, "points", 2001, _integer)
    name, _, arg = preset.partition(":")
    if name == "parity" and not arg:
        spec = pretentious.liouville_spec()
    elif name == "fourier-mode" and arg:
        family = pretentious.frequency_family(n)
        spec = pretentious.mode_spec(family, float(arg))
    else:
        raise UnknownPresetError(
            f"halasz preset must be parity or fourier-mode:xi, got {preset!r}")
    grid = pretentious.log_t_grid(math.log(n), points=points)
    report = pretentious.halasz_audit(spec, n, grid)
    resolved = {"command": "halasz", "n": n, "preset": preset,
                "points": points, "derived": _derived_block(n)}
    return resolved, _jsonify(report)


def _window_from(args, manifest, n):
    lower = _resolve(args, manifest, "window-lower", cast=float)
    upper = _resolve(args, manifest, "window-upper", cast=float)
    overrides = None
    if lower is not None or upper is not None:
        overrides = {}
        if lower is not None:
            overrides["lower"] = lower
        if upper is not None:
            overrides["upper"] = upper
    return reduction.prime_window(n, overrides)


def _cmd_reduce(args, manifest):
    n = _resolve(args, manifest, "n", cast=_parse_n)
    if n is None:
        raise ContractError("reduce needs --n")
    window = _window_from(args, manifest, n)
    family = pretentious.frequency_family(n)
    xi_text = _resolve(args, manifest, "xi", cast=str)
    xi_set = (family.members if xi_text is None
              else [_integer(x) for x in xi_text.split(",") if x != ""])
    out = _resolve(args, manifest, "out", cast=str)
    terms = reduction.reduced_sum_terms(n, window, xi_set)
    total = float(sum(terms.values()))
    resolved = {"command": "reduce", "n": n, "xi": list(xi_set), "out": out,
                "window": {"lower": window.lower, "upper": window.upper,
                           "formula_lower": window.formula_lower,
                           "formula_upper": window.formula_upper,
                           "primes": int(window.primes.size),
                           "mass": window.mass},
                "derived": _derived_block(n)}
    if out is not None:
        _atomic_csv(out, resolved, lambda p: reduction.write_xi_sweep_csv(p, terms))
    results = {"terms": {str(k): v for k, v in sorted(terms.items())},
               "total": total, "sqrt_total": math.sqrt(total)}
    return resolved, results


def _cmd_circle(args, manifest):
    n = _resolve(args, manifest, "n", cast=_parse_n)
    window = _window_from(args, manifest, n)
    epsilon = _resolve(args, manifest, "epsilon", 0.5, float)
    resolution = _resolve(args, manifest, "resolution",
                          10 * window.max_prime, _integer)
    out = _resolve(args, manifest, "out", cast=str)
    measure = reduction.major_arc_measure(window, epsilon, resolution)
    resolved = {"command": "circle", "n": n, "epsilon": epsilon,
                "resolution": resolution, "out": out,
                "window": {"lower": window.lower, "upper": window.upper,
                           "formula_lower": window.formula_lower,
                           "formula_upper": window.formula_upper,
                           "primes": int(window.primes.size),
                           "mass": window.mass},
                "derived": _derived_block(n)}
    if out is not None:
        alphas = np.arange(resolution, dtype=np.float64) / resolution
        _atomic_csv(out, resolved,
                    lambda p: reduction.write_alpha_sweep_csv(p, window, alphas))
    results = {"measure": measure, "spacing": 1.0 / resolution,
               "audit_product": measure * epsilon ** 4 * window.max_prime}
    return resolved, results


def _cmd_explore_k(args, manifest):
    n = _resolve(args, manifest, "n", cast=_parse_n)
    if n is None:
        raise ContractError("explore-k needs --n")
    names = _resolve(args, manifest, "functions", "parity,parity", str)
    weighting = _resolve(args, manifest, "weighting", averaging.CESARO, str)
    funcs = [resolve_preset(part, n) for part in names.split(",") if part]
    report = corr.k_point_explore(funcs, n, weighting)
    resolved = {"command": "explore-k", "n": n, "functions": names,
                "weighting": weighting, "derived": _derived_block(n)}
    return resolved, _jsonify(report)


_COMMANDS = {
    "sieve": _cmd_sieve,
    "densities": _cmd_densities,
    "erdos-kac": _cmd_erdos_kac,
    "correlate": _cmd_correlate,
    "theorem-c": _cmd_theorem_c,
    "distance": _cmd_distance,
    "halasz": _cmd_halasz,
    "reduce": _cmd_reduce,
    "circle": _cmd_circle,
    "explore-k": _cmd_explore_k,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegalab",
        description="Experiments on prime-factor counting statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *flags):
        p = sub.add_parser(name)
        p.add_argument("--manifest", help="JSON manifest file; flags override")
        for flag in flags:
            p.add_argument(f"--{flag}")
        return p

    add("sieve", "n", "lo", "hi", "mode", "cutoff", "out", "format", "workers")
    add("densities", "n", "out", "workers")
    add("erdos-kac", "n", "workers")
    add("correlate", "n", "a", "b", "shift", "weighting", "workers")
    add("theorem-c", "n", "a", "workers")
    add("distance", "n", "xi", "t")
    add("halasz", "n", "preset", "points")
    add("reduce", "n", "window-lower", "window-upper", "xi", "out", "workers")
    add("circle", "n", "window-lower", "window-upper", "epsilon",
        "resolution", "out")
    add("explore-k", "n", "functions", "weighting", "workers")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = {}
    if getattr(args, "manifest", None):
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    resolved, results = _COMMANDS[args.command](args, manifest)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report = {"manifest": _jsonify(resolved), "results": _jsonify(results),
              "timestamp": stamp}
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(argv)
    except UnknownPresetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRESET
    except DegenerateWindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
