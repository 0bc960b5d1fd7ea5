"""Command-line front end, and the one module that reads or writes files.

Subcommands: solve, spectrum, morse, sweep, oracle.  A single JSON config
document may supply any RunConfig field; command-line flags override file
fields, and defaults fill the rest (precedence: flags > file > defaults).
Numerical defaults and bounds are SpectralConfig's, spectral.N_CAP and the
oracle's; the other solver settings are module constants, not config
fields.
Every subcommand builds its results through a Pipeline, which solves the
profile at most once per run.  Spectra are cached under <out>/cache, one
entry per kind and number of values held, keyed by a content hash of
exactly the fields that feed a spectrum, so spectra survive report-level
changes, and of the package version and CACHE_REVISION, so entries written
by older solver code are not served.  Cache files are moved into place
whole; an entry that cannot be read is recomputed.  Profiles are not
cached: each solve run solves its profile again, in a few ms.

Result files and cache entries are JSON documents (_write_json) or CSV
tables (_write_csv, every float as %.17g, which reads back bitwise), so
reruns write byte-identical files.  The numerical modules import neither
csv nor json.

The argument parser is built once per process, on the first main call, and
reused by every later call.  Non-finite float values (inf, nan), in a flag,
a config file or a sweep --range, are config errors, and so are a p at or
above the critical exponent (M+2)/(M-2) and a cyclic --symmetry with N != 2,
in every command and every swept configuration.

Exit codes: 0 success, 2 config error, 3 solver failure (including a morse
run whose standard and singular negative counts differ, and a morse or
sweep run whose singular negative count differs from m, or whose singular
spectrum holds fewer negative pairs than it counts or a near-threshold
one), 4 oracle mismatch: an eigenvalue beyond
tolerance, differing negative counts, or a certified solver eigenvalue the
oracle did not find.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dimension import critical_exponent, generalized_dimension
from .morse import (MorseReport, degeneracy_scan, morse_index,
                    symmetric_morse_index)
from .oracle import (DENSE_N, DENSE_N_GUARD, EPSILON_CUT_MAX,
                     dense_oracle_spectrum)
from .radial import (IntegrationError, RadialProfile, linearized_potential,
                     solve_nodal_power, validate_profile)
from .spectral import (N_CAP, EigenPair, SpectralConfig, SpectralError,
                       Spectrum, WeightedSLProblem, solve_singular_spectrum,
                       solve_standard_spectrum, zero_potential)


class ConfigError(ValueError):
    pass


def _directory_or_new(path: str) -> bool:
    """Whether path, or else its nearest existing ancestor, is a directory."""
    path = os.path.abspath(path)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path)


def _cyclic_order(label: str) -> int:
    """q of a --symmetry label 'cyclic:<q>'; 0 for any other label."""
    head, _, q = label.partition(":")
    return int(q) if head == "cyclic" and q.isdecimal() else 0


# Raise whenever the solver's published numbers or the cache layout change.
# 2: singular eigenvalues finished by Rayleigh quotients.
# 3: profile JSON records the row count of its CSV table.
# 4: standard kind on the Liouville grid.
# 5: fine singular grid by inverse iteration from its coarsening.
# 6: singular spectra carry no fitted decay exponent (theta_fit).
CACHE_REVISION = 6


@dataclass(frozen=True)
class RunConfig:
    N: int = 3
    alpha: float = 0.0
    p: float = 3.0
    m: int = 2
    k: int = 6
    grid: int = SpectralConfig.n
    xmax: float | None = None
    tol: float = SpectralConfig.tol
    oracle_n: int = DENSE_N
    oracle_tol: float = 1e-3
    epsilon_cut: float | None = None
    a_zero: bool = False
    out: str = "."
    workers: int = 1
    symmetry: str | None = None

    _DOMAINS = {
        "N": ("int", lambda v: v >= 2, "N must be an integer >= 2"),
        "alpha": ("float", lambda v: v >= 0, "alpha must be >= 0"),
        "p": ("float", lambda v: v > 1, "p must be > 1"),
        "m": ("int", lambda v: v >= 1, "m must be an integer >= 1"),
        "k": ("int", lambda v: v >= 1, "k must be an integer >= 1"),
        "grid": ("int", lambda v: 128 <= v <= N_CAP,
                 f"grid must be an integer in [128, {N_CAP}]"),
        "xmax": ("float?", lambda v: v is None or v > 0,
                 "xmax must be positive"),
        "tol": ("float", lambda v: v > 0, "tol must be positive"),
        "oracle_n": ("int", lambda v: 16 <= v <= DENSE_N_GUARD,
                     f"oracle_n must be an integer in [16, {DENSE_N_GUARD}]"),
        "oracle_tol": ("float", lambda v: v > 0, "oracle_tol must be "
                       "positive"),
        "epsilon_cut": ("float?",
                        lambda v: v is None or 0 < v < EPSILON_CUT_MAX,
                        f"epsilon_cut must be in (0, {EPSILON_CUT_MAX})"),
        "a_zero": ("bool", lambda v: True, ""),
        "out": ("str", _directory_or_new,
                "out must name a directory or a new path below one"),
        "workers": ("int", lambda v: v >= 1, "workers must be >= 1"),
        "symmetry": ("str?",
                     lambda v: v in (None, "full") or _cyclic_order(v) >= 1,
                     "symmetry must be 'full' or 'cyclic:<q>' with an "
                     "integer q >= 1"),
    }

    @classmethod
    def from_sources(cls, file_fields: dict, cli_fields: dict) -> "RunConfig":
        merged = {}
        for name in file_fields:
            if name not in cls._DOMAINS:
                raise ConfigError(f"unknown config field '{name}'")
        for src in (file_fields, cli_fields):
            for name, value in src.items():
                if value is not None:
                    merged[name] = value
        return cls(**{name: cls.checked(name, value)
                      for name, value in merged.items()})

    @classmethod
    def checked(cls, name: str, value):
        """`value` parsed into field `name`'s type; ConfigError naming the
        field when it does not parse or lies outside the field's domain."""
        kind, check, msg = cls._DOMAINS[name]
        try:
            # JSON true/false fill the bool fields, and nothing else
            if isinstance(value, bool) != (kind == "bool"):
                raise ValueError
            if kind == "int":
                if isinstance(value, float) and value != int(value):
                    raise ValueError
                value = int(value)
            elif kind == "float":
                value = float(value)
            elif kind == "float?":
                value = None if value is None else float(value)
            elif kind in ("str", "str?"):
                value = None if value is None else str(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"field '{name}': cannot parse "
                              f"{value!r}") from None
        # inf passes the lower-bound checks and nan fails them under a
        # misleading message
        if kind in ("float", "float?") and value is not None \
                and not math.isfinite(value):
            raise ConfigError(f"field '{name}': must be finite, got {value}")
        if not check(value):
            raise ConfigError(f"field '{name}': {msg}")
        return value

    def spectral_config(self) -> SpectralConfig:
        return SpectralConfig(n=self.grid, x_max=self.xmax, tol=self.tol)

    _SPECTRUM_FIELDS = ("N", "alpha", "p", "m", "k", "grid", "xmax", "tol",
                        "a_zero")

    def spectrum_fields(self) -> dict:
        """The fields feeding a spectrum, in hash-canonical form."""
        return {k: getattr(self, k) for k in self._SPECTRUM_FIELDS}


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

class Pipeline:
    """The profile -> potential -> spectra chain of one configuration.

    The rules that join fields are checked here, before any solve: every
    command makes its Pipeline first, sweep one per swept configuration.
    The profile is solved at most once per Pipeline, on first use, and
    must pass validate_profile: a failed check is an IntegrationError.  A
    spectrum entry under <out>/cache is keyed by its kind and by k, the
    number of values it holds: the standard kind has a count-only entry
    (k = 0, what morse reads) and a values entry (what spectrum publishes),
    and neither serves the other.  An entry is read from there when
    readable, and otherwise solved and written there.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.dmap = generalized_dimension(cfg.N, cfg.alpha)
        self.cache = os.path.join(cfg.out, "cache")
        p_s = critical_exponent(self.dmap.M)
        if cfg.p >= p_s:
            raise ConfigError(f"field 'p': p must be below (M+2)/(M-2) = "
                              f"{p_s:g} (M = {self.dmap.M:g})")
        if cfg.symmetry not in (None, "full") and cfg.N != 2:
            raise ConfigError("field 'symmetry': cyclic tables are planar "
                              "(N=2) only")

    @functools.cached_property
    def profile(self) -> RadialProfile:
        prof = solve_nodal_power(self.dmap.M, self.cfg.p, self.cfg.m)
        failures = validate_profile(prof)
        if failures:
            raise IntegrationError("profile fails its qualitative checks: "
                                   + "; ".join(failures))
        return prof

    def potential(self):
        if self.cfg.a_zero:
            return zero_potential
        return linearized_potential(self.profile)

    def entry(self, kind: str, k: int) -> str:
        doc = {"fields": dict(self.cfg.spectrum_fields(), k=k),
               "version": __version__, "revision": CACHE_REVISION}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return os.path.join(self.cache, f"{kind}-{key}.json")

    def cached(self, kind: str, k: int) -> Spectrum | None:
        """The cached spectrum of this kind and k, or None when its entry is
        missing or unreadable."""
        try:
            return _read_spectrum(self.entry(kind, k))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def spectrum(self, kind: str, k: int) -> Spectrum:
        spec = self.cached(kind, k)
        if spec is None:
            spec = self._solve(kind, k)
            _write_cache(_spectrum_doc(spec), self.entry(kind, k))
        return spec

    def _solve(self, kind: str, k: int) -> Spectrum:
        prob = WeightedSLProblem(M=self.dmap.M, a=self.potential(), kind=kind)
        solve = (solve_singular_spectrum if kind == "singular"
                 else solve_standard_spectrum)
        return solve(prob, k, self.cfg.spectral_config())


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def _write_json(doc: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{x:.17g}" if isinstance(x, float) else x for x in row]
                    for row in rows)


def _write_cache(doc: dict, path) -> None:
    """_write_json to a temporary file, then moved onto path: a reader sees
    the whole entry or none."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        _write_json(doc, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _profile_doc(prof: RadialProfile) -> dict:
    """profile.json; `rows` is the number of data rows of profile.csv."""
    return {
        "variable": prof.variable,
        "M": prof.M,
        "nonlinearity": f"power(p={prof.p:.17g})",
        "coupling": 1.0,
        "nodal_zones": prof.nodal_zones,
        "rows": len(prof.grid),
        "zeros": [float(z) for z in prof.zeros],
        "critical_points": [float(s) for s in prof.critical_points],
        "extremal_values": [float(v) for v in prof.extremal_values],
        "solver": prof.meta,
    }


def _spectrum_doc(spec: Spectrum) -> dict:
    """A cache entry, and what spectrum_<kind>.json publishes."""
    return {
        "kind": spec.kind,
        "M": spec.M,
        "threshold": None if math.isinf(spec.threshold) else spec.threshold,
        "exhausted_below": None if math.isinf(spec.exhausted_below)
        else spec.exhausted_below,
        "negative_count": spec.negative_count,
        "eigenvalues": [
            {
                "value": p.value,
                "error_bar": p.error_bar,
                "nodes": p.interior_nodes,
                "theta_analytic": p.theta_analytic,
                "uncertain": p.uncertain,
            }
            for p in spec.eigenpairs
        ],
        "meta": spec.meta,
    }


def _read_spectrum(path) -> Spectrum:
    """The spectrum _spectrum_doc wrote to path: eigenvalues and flags, no
    eigenfunction samples."""
    with open(path) as fh:
        doc = json.load(fh)
    pairs = tuple(
        EigenPair(value=e["value"], error_bar=e["error_bar"],
                  grid=np.empty(0), samples=np.empty(0),
                  interior_nodes=e["nodes"],
                  boundary_slope=math.nan,
                  theta_analytic=e["theta_analytic"],
                  uncertain=e["uncertain"])
        for e in doc["eigenvalues"])
    thr = doc["threshold"]
    exh = doc["exhausted_below"]
    return Spectrum(kind=doc["kind"], M=doc["M"],
                    threshold=math.inf if thr is None else thr,
                    eigenpairs=pairs,
                    exhausted_below=-math.inf if exh is None else exh,
                    negative_count=doc["negative_count"], meta=doc["meta"])


def _morse_doc(report: MorseReport) -> dict:
    """morse.json, less the symmetric index; the per-eigenvalue entries and
    the degeneracy report keep their field names (tuples become lists)."""
    return {
        "N": report.dmap.N,
        "alpha": report.dmap.alpha,
        "M": report.dmap.M,
        "radial_morse": report.radial_morse,
        "total": report.total,
        "nodal_zones": report.nodal_zones,
        "bounds": report.bounds,
        "prediction": report.prediction,
        "per_eigenvalue": [dataclasses.asdict(e)
                           for e in report.per_eigenvalue],
        "degeneracy": None if report.degeneracy is None
        else dataclasses.asdict(report.degeneracy),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    prof = Pipeline(cfg).profile
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv(os.path.join(cfg.out, "profile.csv"), ["t", "v", "v_prime"],
               zip(prof.grid, prof.values, prof.derivative))
    _write_json(_profile_doc(prof), os.path.join(cfg.out, "profile.json"))
    print(f"profile written to {cfg.out}/profile.csv|json")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    pipe = Pipeline(cfg)
    ks = {"singular": cfg.k, "standard": max(cfg.k, cfg.m + 2)}
    sing, std = (pipe.spectrum(kind, k) for kind, k in ks.items())
    if len(sing.eigenpairs) and not sing.eigenpairs[0].grid.size:
        # a spectrum read back from the cache carries no eigenfunction
        # samples: solve again for them, and refuse a cache that disagrees
        cached = [p.value for p in sing.eigenpairs]
        sing = pipe._solve("singular", cfg.k)
        solved = [p.value for p in sing.eigenpairs]
        if solved != cached:
            raise SpectralError(f"singular eigenvalues {solved} differ from "
                                f"the cached {cached}")
    for kind, spec in (("singular", sing), ("standard", std)):
        _write_json(_spectrum_doc(spec),
                    os.path.join(cfg.out, f"spectrum_{kind}.json"))
    if len(sing.eigenpairs):
        first = sing.eigenpairs[0]
        _write_csv(os.path.join(cfg.out, "eigenfunction_1.csv"),
                   ["r", "psi"], zip(first.grid, first.samples))
    print(f"spectra written to {cfg.out} "
          f"(singular: {len(sing.eigenpairs)} below threshold, "
          f"{sing.negative_count} negative; standard negatives: "
          f"{std.negative_count})")
    return 0


def _radial_spectrum(pipe: Pipeline) -> Spectrum:
    """The singular spectrum of a morse or sweep run, which must count m
    negative eigenvalues: the radial Morse index of an m-nodal solution."""
    sing = pipe.spectrum("singular", pipe.cfg.k)
    if sing.negative_count != pipe.cfg.m:
        raise SpectralError(f"singular negative count {sing.negative_count} "
                            f"differs from m={pipe.cfg.m}")
    return sing


def cmd_morse(cfg: RunConfig) -> int:
    pipe = Pipeline(cfg)
    sing = _radial_spectrum(pipe)
    # the report reads only the standard kind's counts: solve no values
    std = pipe.spectrum("standard", 0)
    if std.negative_count != sing.negative_count:
        # by Sylvester's law of inertia the two closures of one form agree
        raise SpectralError(
            f"standard negative count {std.negative_count} differs from "
            f"singular negative count {sing.negative_count}")
    degen = degeneracy_scan(sing, std, pipe.dmap)
    report = morse_index(sing, pipe.dmap, m=cfg.m, degeneracy=degen)
    doc = _morse_doc(report)
    if cfg.symmetry:
        q = _cyclic_order(cfg.symmetry) or None
        doc["symmetric_index"] = {
            "label": f"cyclic-{q}" if q else "full-rotation",
            "value": symmetric_morse_index(report, q)}
    _write_json(doc, os.path.join(cfg.out, "morse.json"))
    _write_csv(os.path.join(cfg.out, "morse.csv"),
               ["i", "nu_hat", "lambda_hat", "J", "contribution"],
               [(i + 1, e.nu_hat, e.lambda_hat_rad, e.J, e.contribution)
                for i, e in enumerate(report.per_eigenvalue)])
    print(f"morse report: total={report.total} radial={report.radial_morse} "
          f"bounds={report.bounds} prediction={report.prediction}")
    return 0


def _sweep_row(pipe: Pipeline, axis: str) -> list:
    """One sweep.csv row: the axis value, the m negative singular
    eigenvalues, the Morse total and the bounds."""
    cfg = pipe.cfg
    sing = _radial_spectrum(pipe)
    # morse_index refuses a spectrum with fewer negative pairs than m
    report = morse_index(sing, pipe.dmap, m=cfg.m)
    nus = [p.value for p in sing.eigenpairs if p.value < 0][:cfg.m]
    return ([getattr(cfg, axis)] + nus
            + [report.total, report.bounds["general"],
               report.bounds["with_f3"]])


def _cache_singular(pipe: Pipeline) -> None:
    """Solve and cache one sweep point; top-level so that process pools can
    pickle it."""
    pipe.spectrum("singular", pipe.cfg.k)


def cmd_sweep(cfg: RunConfig, axis: str, lo: float, hi: float,
              steps: int) -> int:
    params = list(np.linspace(lo, hi, steps)) if steps > 0 else []
    # every swept value and configuration is checked before any solve
    values = [RunConfig.checked(axis, float(v)) for v in params]
    pipes = [Pipeline(dataclasses.replace(cfg, **{axis: v})) for v in values]
    os.makedirs(cfg.out, exist_ok=True)
    if cfg.workers > 1:
        # the pool solves the points missing from the cache; the rows are
        # then read back from it
        missed = [pipe for pipe in pipes
                  if pipe.cached("singular", cfg.k) is None]
        if len(missed) > 1:
            import concurrent.futures  # 12 ms at import: only when pooling
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=cfg.workers) as pool:
                list(pool.map(_cache_singular, missed))
    rows = [_sweep_row(pipe, axis) for pipe in pipes]
    path = os.path.join(cfg.out, "sweep.csv")
    _write_csv(path, [axis] + [f"nu_hat_{i + 1}" for i in range(cfg.m)]
               + ["total", "bound_general", "bound_f3"], rows)
    print(f"sweep written to {path} ({len(rows)} rows)")
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    pipe = Pipeline(cfg)
    sing = pipe.spectrum("singular", cfg.k)
    orc = dense_oracle_spectrum(
        WeightedSLProblem(M=pipe.dmap.M, a=pipe.potential(), kind="singular"),
        n=cfg.oracle_n, epsilon_cut=cfg.epsilon_cut)
    comparisons = []
    unmatched = []      # certified solver pairs the oracle did not find
    worst = 0.0
    for i, pair in enumerate(sing.eigenpairs):
        if pair.uncertain:
            continue
        if i >= len(orc.eigenpairs):
            unmatched.append(i + 1)
            continue
        ov = orc.eigenpairs[i].value
        rel = abs(pair.value - ov) / max(abs(ov), 1e-300)
        worst = max(worst, rel)
        comparisons.append({"index": i + 1, "solver": pair.value,
                            "oracle": ov, "rel_diff": rel})
    counts = {"solver": sing.negative_count, "oracle": orc.negative_count}
    path = os.path.join(cfg.out, "oracle.json")
    _write_json({
        "comparisons": comparisons,
        "worst_rel_diff": worst,
        "tolerance": cfg.oracle_tol,
        "negative_count": counts,
        "unmatched": unmatched,
    }, path)
    print(f"oracle comparison written to {path}; worst rel diff "
          f"{worst:.3e}; negative count solver {counts['solver']}, oracle "
          f"{counts['oracle']}; unmatched solver indices {unmatched}")
    mismatch = (worst > cfg.oracle_tol or unmatched
                or counts["solver"] != counts["oracle"])
    return 4 if mismatch else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call of a process
    and reused by later ones.  The shared options are declared once, on a
    parent parser that every subcommand inherits."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (flags override its fields)")
    common.add_argument("--N", type=int, dest="N")
    common.add_argument("--alpha", type=float)
    common.add_argument("--p", type=float, dest="p")
    common.add_argument("--m", type=int, dest="m")
    common.add_argument("--k", type=int, dest="k")
    common.add_argument("--grid", type=int)
    common.add_argument("--xmax", type=float)
    common.add_argument("--tol", type=float)
    common.add_argument("--out", metavar="DIR")
    common.add_argument("--workers", type=int)
    common.add_argument("--symmetry", metavar="LABEL",
                        help="'full' or 'cyclic:<q>' (N=2)")
    common.add_argument("--a-zero", action="store_const", const=True,
                        dest="a_zero", help="replace the potential by 0")
    common.add_argument("--oracle-n", type=int, dest="oracle_n")
    common.add_argument("--oracle-tol", type=float, dest="oracle_tol")
    common.add_argument("--epsilon-cut", type=float, dest="epsilon_cut")

    ap = argparse.ArgumentParser(
        prog="henonmorse",
        description="Nodal radial solutions, singular weighted "
                    "Sturm-Liouville spectra and Morse-index reports for "
                    "Henon-type problems on the unit ball.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "spectrum", "morse", "oracle"):
        sub.add_parser(name, parents=[common])
    sw = sub.add_parser("sweep", parents=[common])
    sw.add_argument("--axis", choices=("p", "alpha"), required=True)
    sw.add_argument("--range", required=True, metavar="LO:HI")
    sw.add_argument("--steps", type=int, required=True)
    return ap


def _config_from_args(args) -> RunConfig:
    file_fields = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_fields = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"field 'config': cannot read "
                              f"{args.config}: {exc}") from None
        if not isinstance(file_fields, dict):
            raise ConfigError("field 'config': document must be a JSON "
                              "object")
    cli_fields = {name: getattr(args, name, None)
                  for name in RunConfig._DOMAINS}
    return RunConfig.from_sources(file_fields, cli_fields)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "sweep":
            try:
                lo, hi = (float(x) for x in args.range.split(":"))
            except ValueError:
                raise ConfigError("field 'range': expected LO:HI") from None
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"field 'range': endpoints must be "
                                  f"finite, got {args.range}")
            if args.steps < 0:
                raise ConfigError("field 'steps': must be >= 0")
            return cmd_sweep(cfg, args.axis, lo, hi, args.steps)
        return {"solve": cmd_solve, "spectrum": cmd_spectrum,
                "morse": cmd_morse, "oracle": cmd_oracle}[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, SpectralError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
