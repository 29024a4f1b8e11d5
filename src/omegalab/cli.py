"""Command-line entry point.

One experiment per invocation, declared once in COMMANDS: flags (cast,
default, required) and handler.  The parser, the manifest check and the
flag resolution all read that table.  Every run prints a JSON report whose
"manifest" block echoes the resolved flags, the handler's extra fields
(window, frequency list, ...) and the quantities derived at that N.  CSV
outputs carry the same manifest in comment lines; numeric payloads are
deterministic given manifest and seed, and files are written atomically
so a failed run never leaves partial results behind.  A report's echoed
manifest fed back through --manifest reproduces the run: its command and
derived N are checked against the run, its other echoes are recomputed.

Exit codes: 0 success, 1 I/O failure after the pre-checks (a disk that
fills while an --out file is written), 2 contract violation or bad
usage, 3 unknown function preset, 4 degenerate prime window, 5 capacity
overflow, window work past reduction.WINDOW_BYTE_LIMIT (refused before any
prime is sieved) or memory the machine cannot allocate.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from operator import itemgetter
from typing import Callable

import numpy as np

from .errors import (CapacityError, ContractError, DegenerateWindowError,
                     UnknownPresetError)
from . import correlation as corr
from . import pretentious
from . import profiles
from . import reduction
from . import sieve
from . import stats

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONTRACT = 2
EXIT_PRESET = 3
EXIT_WINDOW = 4
EXIT_CAPACITY = 5

# most specific first: all but OSError and MemoryError are ContractErrors
_EXIT_CODES = ((UnknownPresetError, EXIT_PRESET), (DegenerateWindowError, EXIT_WINDOW),
               (CapacityError, EXIT_CAPACITY), (MemoryError, EXIT_CAPACITY),
               (ContractError, EXIT_CONTRACT), (OSError, EXIT_IO))

WORKERS_ENV = "OMEGALAB_WORKERS"


# ---------------------------------------------------------------------------
# Casts and presets


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


def _real(value) -> float:
    """Finite float from a flag or manifest value.

    Number text parses to the nearest float; nan, inf, values past the
    float range and garbage are contract violations.
    """
    try:
        number = float(value)
    except (OverflowError, TypeError, ValueError):
        raise ContractError(f"expected a finite number, got {value!r}") from None
    if not math.isfinite(number):
        raise ContractError(f"expected a finite number, got {value!r}")
    return number


def _parse_n(value) -> int:
    n = _integer(value)
    if n < 1:
        raise ContractError(f"n must be positive, got {value!r}")
    return n


def _comma_list(cast):
    """A comma list from a flag, or a JSON list from a manifest."""
    def parse(value) -> list:
        parts = value if isinstance(value, list) else str(value).split(",")
        items = [cast(part) for part in parts if part != ""]
        if not items:
            raise ContractError(f"expected a comma list, got {value!r}")
        return items
    return parse


def _choice(*names):
    def parse(value) -> str:
        if value not in names:
            raise ContractError(f"expected one of {', '.join(names)}, got {value!r}")
        return value
    return parse


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
            return corr.constant_function(_real(arg) if arg else 1.0)
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


def _halasz_spec(preset: str, n_limit: int) -> pretentious.MultFunSpec:
    name, _, arg = preset.partition(":")
    if name == "parity" and not arg:
        return pretentious.liouville_spec()
    if name == "fourier-mode" and arg:
        family = pretentious.frequency_family(n_limit)
        try:
            xi = _real(arg)
        except ContractError as exc:
            raise UnknownPresetError(f"preset {preset!r}: {exc}") from exc
        return pretentious.mode_spec(family, xi)
    raise UnknownPresetError(
        f"halasz preset must be parity or fourier-mode:xi, got {preset!r}")


# ---------------------------------------------------------------------------
# Report and file helpers


def _jsonify(value):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


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


def _check_writable(path: str) -> None:
    """Refuse an --out path that cannot take the file, before any work."""
    if os.path.isdir(path) or not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
        raise ContractError(f"cannot write --out {path}: not a file in a writable directory")


def _atomic_write(path: str, write) -> None:
    """write(tmp) to a temp file beside path, then rename it over path."""
    tmp = path + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):   # the write failed
            os.remove(tmp)


def _atomic_csv(path: str, manifest: dict, write_body) -> None:
    """Write a CSV atomically: comment lines, then write_body(handle) on the same file."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    header = (f"# timestamp {stamp}\n# manifest "
              + json.dumps(_jsonify(manifest), sort_keys=True) + "\n")

    def write(tmp):
        with open(tmp, "w", newline="") as handle:
            handle.write(header)
            write_body(handle)
    _atomic_write(path, write)


def _csv(write_body):
    """save(path, manifest) for an output that is a CSV body."""
    return partial(_atomic_csv, write_body=write_body)


# ---------------------------------------------------------------------------
# Handlers: run(params) -> (extra manifest fields, results[, save]).  A
# handler that streams its output writes --out itself (sieve).


def _truncated(cutoff):
    if cutoff is None:
        raise ContractError("truncated mode needs --cutoff")
    return sieve.TruncatedOmega(cutoff)


_COUNT_MODES = {"big": lambda cutoff: sieve.BigOmega,
                "small": lambda cutoff: sieve.SmallOmega,
                "truncated": _truncated}


def _run_sieve(p):
    n, hi = p["n"], p["hi"]
    if hi is None:
        if n is None:
            raise ContractError("sieve needs --n or --hi")
        hi = n + 1
    elif n is not None and hi != n + 1:
        raise ContractError(f"--n {n} and --hi {hi} disagree: give one of them")
    workers = p["workers"]
    if workers is None:
        workers = _integer(os.environ.get(WORKERS_ENV, 1))
    mode = _COUNT_MODES[p["mode"]](p["cutoff"])
    lo = p["lo"]
    # Each piece of `workers` segments is hashed, binned and written before
    # the next is sieved, so memory is a piece, not the range (994 MB for
    # --n 1e9 held whole).
    pieces = sieve.factor_count_pieces(lo, hi, mode, sieve.SieveConfig(worker_count=workers))
    extras = {"hi": hi, "workers": workers}
    digest, histogram = hashlib.sha256(), np.zeros(256, dtype=np.int64)

    def stream(write):
        for block in pieces:
            digest.update(block.counts)
            part = stats.count_histogram(block.counts)
            histogram[: part.size] += part
            write(block, append=block.lo > lo)

    out = p["out"]
    if out is None:
        stream(lambda block, append: None)
    elif p["format"] == "bin":
        _atomic_write(out, lambda tmp: stream(
            lambda block, append: sieve.write_block(block, tmp, append=append)))
    else:
        # the manifest is whole before any count: the CSV's comment lines go first
        _atomic_csv(out, _manifest("sieve", p, extras), lambda handle: stream(
            lambda block, append: sieve.write_block_csv(block, handle, append=append)))
    results = {"count": hi - lo, "digest": digest.hexdigest(),
               "histogram": np.trim_zeros(histogram, "b")}
    return extras, results


def _run_densities(p):
    table = stats.density_table(p["n"])
    top = int(np.max(np.nonzero(table.counts)[0]))
    results = {"max_level": top,
               "mass_check": float(table.pi_bar.sum()),
               "pi_bar": table.pi_bar[: top + 1]}
    return {}, results, _csv(partial(stats.write_density_csv, table))


def _run_erdos_kac(p):
    return {}, stats.erdos_kac_ks(p["n"])


def _run_correlate(p):
    n = p["n"]
    a, b = resolve_preset(p["a"], n), resolve_preset(p["b"], n)
    lhs = complex(corr.two_point_lhs(a, b, n, p["shift"], p["weighting"]))
    # the (N, shift) profile just filled: its hist is the marginal of count(n)
    profile = profiles.two_point_profile(n, p["shift"])
    prediction = (profile.mean(a.table(), profiles.CESARO)
                  * profile.mean(b.table(), profiles.CESARO))
    return {}, {"lhs": lhs, "prediction": prediction, "error": abs(lhs - prediction)}


def _run_theorem_c(p):
    # several N share one sieved block for their (N, 1) passes; one N streams its pass
    if len(p["n"]) > 1:
        profiles.adopt_block(sieve.factor_counts(1, max(p["n"]) + 2, sieve.BigOmega))
    values = {str(n): corr.theorem_c_sum(resolve_preset(p["a"], n), n) for n in p["n"]}
    return {}, {"values": values}


def _run_distance(p):
    residual = pretentious.dist_formula_residual(p["xi"], p["n"], p["t"])
    family = pretentious.frequency_family(p["n"])
    return {"folded_xi": family.fold(p["xi"])}, {"residual": residual}


def _run_halasz(p):
    spec = _halasz_spec(p["preset"], p["n"])
    grid = pretentious.log_t_grid(math.log(p["n"]), points=p["points"])
    return {}, pretentious.halasz_audit(spec, p["n"], grid)


def _window_overrides(p):
    overrides = {edge: p["window_" + edge] for edge in ("lower", "upper")
                 if p["window_" + edge] is not None}
    return overrides or None


def _window(p):
    """The prime window at --n with any edge overrides, and its manifest block."""
    window = reduction.prime_window(p["n"], _window_overrides(p))
    return window, {"lower": window.lower, "upper": window.upper,
                    "formula_lower": window.formula_lower,
                    "formula_upper": window.formula_upper,
                    "primes": int(window.primes.size), "mass": window.mass}


def _run_reduce(p):
    n = p["n"]
    members = pretentious.frequency_family(n).members
    # the sieve and the covariance block are costed before any prime is sieved
    upper = reduction.window_edges(n, _window_overrides(p))[1]
    reduction.require_window_bytes(upper, size=len(members))
    window, block = _window(p)
    xi_set = list(members if p["xi"] is None else p["xi"])
    terms = reduction.reduced_sum_terms(n, window, xi_set)
    total = float(sum(terms.values()))
    results = {"terms": {str(k): v for k, v in sorted(terms.items())},
               "total": total, "sqrt_total": math.sqrt(total)}
    return ({"xi": xi_set, "window": block}, results,
            _csv(lambda fh: reduction.write_xi_sweep_csv(fh, terms)))


def _run_circle(p):
    resolution = p["resolution"]
    lower, upper = reduction.window_edges(p["n"], _window_overrides(p))[:2]
    # every window prime lies in [lower, upper]: the grid is checked and
    # costed before any prime is sieved
    if resolution is not None:
        reduction.require_grid_resolution(resolution, lower)
    reduction.require_window_bytes(
        upper, resolution=10 * math.floor(upper) if resolution is None else resolution)
    window, block = _window(p)
    if resolution is None:
        resolution = 10 * int(window.max_prime)
    measure = reduction.major_arc_measure(window, p["epsilon"], resolution)
    results = {"measure": measure, "spacing": 1.0 / resolution,
               "audit_product": measure * p["epsilon"] ** 4 * window.max_prime}

    return ({"resolution": resolution, "window": block}, results,
            _csv(lambda fh: reduction.write_alpha_sweep_csv(fh, window, resolution)))


def _run_explore_k(p):
    funcs = [resolve_preset(part, p["n"]) for part in p["functions"].split(",") if part]
    return {}, corr.k_point_explore(funcs, p["n"], p["weighting"])


# ---------------------------------------------------------------------------
# The command table


@dataclass(frozen=True)
class Flag:
    """--name on the command line; name, or name with underscores, in a manifest."""
    name: str
    cast: Callable
    default: object = None
    required: bool = False

    @property
    def key(self) -> str:
        return self.name.replace("-", "_")


@dataclass(frozen=True)
class Command:
    """A command's flags and handler; limit(manifest) is the N of its derived block."""
    flags: tuple
    run: Callable
    limit: Callable = itemgetter("n")


_N = Flag("n", _parse_n, required=True)
_OUT = Flag("out", str)
_WINDOW = (Flag("window-lower", _real), Flag("window-upper", _real))
_WEIGHTING = _choice(profiles.CESARO, profiles.LOGARITHMIC)

COMMANDS = {
    "sieve": Command((Flag("n", _parse_n), Flag("lo", _integer, 1), Flag("hi", _integer),
                      Flag("mode", _choice(*_COUNT_MODES), "big"), Flag("cutoff", _real),
                      _OUT, Flag("format", _choice("bin", "csv"), "bin"),
                      Flag("workers", _integer)),
                     _run_sieve, limit=lambda m: m["n"] if m["hi"] is None else m["hi"] - 1),
    "densities": Command((_N, _OUT), _run_densities),
    "erdos-kac": Command((_N,), _run_erdos_kac),
    "correlate": Command((_N, Flag("a", str, "const"), Flag("b", str, "const"),
                          Flag("shift", _integer, 1),
                          Flag("weighting", _WEIGHTING, profiles.LOGARITHMIC)),
                         _run_correlate),
    "theorem-c": Command((Flag("n", _comma_list(_parse_n), required=True),
                          Flag("a", str, "parity")),
                         _run_theorem_c, limit=lambda m: max(m["n"])),
    "distance": Command((_N, Flag("xi", _real, 0.0), Flag("t", _real, 0.0)), _run_distance),
    "halasz": Command((_N, Flag("preset", str, "parity"), Flag("points", _integer, 2001)),
                      _run_halasz),
    "reduce": Command((_N, *_WINDOW, Flag("xi", _comma_list(_integer)), _OUT), _run_reduce),
    "circle": Command((Flag("n", _parse_n), *_WINDOW, Flag("epsilon", _real, 0.5),
                       Flag("resolution", _integer), _OUT), _run_circle),
    "explore-k": Command((_N, Flag("functions", str, "parity,parity"),
                          Flag("weighting", _WEIGHTING, profiles.CESARO)),
                         _run_explore_k),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegalab",
        description="Experiments on prime-factor counting statistics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--manifest", help="JSON manifest file; flags override")
        for flag in command.flags:
            p.add_argument(f"--{flag.name}")
    return parser


def _read_manifest(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ContractError(f"cannot read manifest {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ContractError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ContractError(f"manifest {path} must hold a JSON object, "
                            f"not a {type(data).__name__}")
    return data


# Keys a report's manifest echoes besides the flags.  command and derived
# are checked against the run; window and folded_xi are results, recomputed.
_ECHOES = ("command", "derived", "window", "folded_xi")


def _check_echoes(name: str, path: str, echoes: dict, params: dict) -> None:
    """Refuse an echoed command or derived N that this run would not reproduce."""
    if echoes.get("command", name) != name:
        raise ContractError(f"manifest {path}: made by {echoes['command']!r}, not {name}")
    if "derived" in echoes:
        derived, n_limit = echoes["derived"], COMMANDS[name].limit(params)
        if not isinstance(derived, dict) or derived.get("n") != n_limit:
            raise ContractError(f"manifest {path}: derived n does not match "
                                f"the run's n = {n_limit}")


def _manifest(name: str, params: dict, extras: dict) -> dict:
    """The manifest a run of command name echoes: its flags, extras and derived block."""
    manifest = {"command": name, **params, **extras}
    manifest["derived"] = _derived_block(COMMANDS[name].limit(manifest))
    return manifest


def _params(name: str, args) -> dict:
    """Each flag cast from its first given source: flag, manifest, default."""
    flags = {flag.key: flag for flag in COMMANDS[name].flags}
    manifest, echoes = {}, {}
    for key, value in (_read_manifest(args.manifest) if args.manifest else {}).items():
        if key in _ECHOES:
            echoes[key] = value
            continue
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ContractError(f"manifest {args.manifest}: {key!r} is not a flag of {name}")
        manifest[flag.key] = value
    params = {}
    for key, flag in flags.items():
        value = next((v for v in (getattr(args, key), manifest.get(key), flag.default)
                      if v is not None), None)
        if value is None and flag.required:
            raise ContractError(f"{name} needs --{flag.name}")
        try:
            params[key] = None if value is None else flag.cast(value)
        except ContractError as exc:
            raise type(exc)(f"--{flag.name}: {exc}") from None
    _check_echoes(name, args.manifest, echoes, params)
    return params


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed the usage or the help
        return exc.code
    command = COMMANDS[args.command]
    params = _params(args.command, args)
    if params.get("out") is not None:
        _check_writable(params["out"])
    extras, results, *save = command.run(params)
    manifest = _manifest(args.command, params, extras)
    if save and params["out"] is not None:
        save[0](params["out"], manifest)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report = {"manifest": _jsonify(manifest), "results": _jsonify(results),
              "timestamp": stamp}
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ContractError, OSError, MemoryError) as exc:
        # a MemoryError raised by Python itself carries no message
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
