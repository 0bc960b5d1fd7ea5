"""Command-line front end.

Subcommands: solve, spectrum, morse, sweep, oracle.  A single JSON config
document may supply any field; command-line flags override file fields, and
built-in defaults fill the rest (precedence: flags > config file > defaults).
Results are cached under <out>/cache keyed by a content hash of exactly the
fields that feed each stage, so spectra survive report-level changes, and
of the package version and CACHE_REVISION, so entries written by older
solver code are not served.  Cache files are moved into place whole; an
entry that cannot be read is recomputed.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 oracle mismatch
beyond tolerance.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dimension import generalized_dimension
from .morse import (SymmetryMultiplicity, degeneracy_scan, morse_index,
                    morse_report_rows, morse_report_to_json,
                    symmetric_morse_index)
from .oracle import dense_oracle_spectrum
from .radial import (BracketError, IntegrationError, RadialProfile,
                     Nonlinearity, linearized_potential, profile_to_csv,
                     profile_to_json, solve_nodal_power)
from .spectral import (ResolutionError, SpectralConfig, SpectralError,
                       Spectrum, EigenPair, WeightedSLProblem,
                       eigenfunction_to_csv, solve_singular_spectrum,
                       solve_standard_spectrum, spectrum_to_json,
                       zero_potential)


class ConfigError(ValueError):
    pass


# Raise whenever the solver's published numbers or the cache layout change.
# 2: singular eigenvalues finished by Rayleigh quotients.
CACHE_REVISION = 2


@dataclass(frozen=True)
class RunConfig:
    N: int = 3
    alpha: float = 0.0
    p: float = 3.0
    m: int = 2
    k: int = 6
    grid: int = 4096
    xmax: float | None = None
    tol: float = 5e-4
    margin: float = 1e-6
    ode_rtol: float = 1e-10
    ode_atol: float = 1e-12
    oracle_n: int = 2000
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
        "grid": ("int", lambda v: v >= 128, "grid must be an integer >= 128"),
        "xmax": ("float?", lambda v: v is None or v > 0,
                 "xmax must be positive"),
        "tol": ("float", lambda v: v > 0, "tol must be positive"),
        "margin": ("float", lambda v: v > 0, "margin must be positive"),
        "ode_rtol": ("float", lambda v: 0 < v < 1e-2,
                     "ode_rtol must be in (0, 1e-2)"),
        "ode_atol": ("float", lambda v: 0 < v < 1e-2,
                     "ode_atol must be in (0, 1e-2)"),
        "oracle_n": ("int", lambda v: 16 <= v <= 4000,
                     "oracle_n must be an integer in [16, 4000]"),
        "oracle_tol": ("float", lambda v: v > 0, "oracle_tol must be "
                       "positive"),
        "epsilon_cut": ("float?", lambda v: v is None or 0 < v < 0.1,
                        "epsilon_cut must be in (0, 0.1)"),
        "a_zero": ("bool", lambda v: True, ""),
        "out": ("str", lambda v: True, ""),
        "workers": ("int", lambda v: v >= 1, "workers must be >= 1"),
        "symmetry": ("str?", lambda v: True, ""),
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
        out = {}
        for name, value in merged.items():
            kind, check, msg = cls._DOMAINS[name]
            try:
                if kind == "int":
                    if isinstance(value, float) and value != int(value):
                        raise ValueError
                    value = int(value)
                elif kind == "float":
                    value = float(value)
                elif kind == "float?":
                    value = None if value is None else float(value)
                elif kind == "bool":
                    value = bool(value)
                elif kind in ("str", "str?"):
                    value = None if value is None else str(value)
            except (TypeError, ValueError):
                raise ConfigError(f"field '{name}': cannot parse "
                                  f"{value!r}") from None
            if not check(value):
                raise ConfigError(f"field '{name}': {msg}")
            out[name] = value
        return cls(**out)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def spectral_config(self) -> SpectralConfig:
        return SpectralConfig(n=self.grid, x_max=self.xmax, tol=self.tol,
                              margin=self.margin)

    def subsection(self, stage: str) -> dict:
        """Fields feeding a stage, in hash-canonical form."""
        d = self.to_dict()
        profile_keys = ("N", "alpha", "p", "m", "ode_rtol", "ode_atol")
        spectrum_keys = profile_keys + ("k", "grid", "xmax", "tol", "margin",
                                        "a_zero")
        keys = {"profile": profile_keys, "spectrum": spectrum_keys}[stage]
        return {k: d[k] for k in keys}


def _stage_key(sub: dict) -> str:
    doc = {"fields": sub, "version": __version__, "revision": CACHE_REVISION}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_cache(write, obj, path) -> None:
    """write(obj, tmp), then move tmp onto path: a reader sees the whole
    file or none."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write(obj, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cache_dir(cfg: RunConfig) -> str:
    path = os.path.join(cfg.out, "cache")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _get_profile(cfg: RunConfig) -> RadialProfile:
    dmap = generalized_dimension(cfg.N, cfg.alpha)
    return solve_nodal_power(dmap.M, cfg.p, cfg.m, rtol=cfg.ode_rtol,
                             atol=cfg.ode_atol)


def _get_spectra(cfg: RunConfig):
    """(singular, standard) spectra of the linearized potential, cached."""
    cache = _cache_dir(cfg)
    key = _stage_key(cfg.subsection("spectrum"))
    sing_path = os.path.join(cache, f"singular-{key}.json")
    std_path = os.path.join(cache, f"standard-{key}.json")
    try:
        return (_spectrum_from_json(sing_path), _spectrum_from_json(std_path),
                True)
    except (OSError, ValueError, KeyError, TypeError):
        pass  # missing or unreadable: recompute
    dmap = generalized_dimension(cfg.N, cfg.alpha)
    if cfg.a_zero:
        a = zero_potential
    else:
        prof = _get_profile(cfg)
        a = linearized_potential(prof)
    scfg = cfg.spectral_config()
    sing = solve_singular_spectrum(
        WeightedSLProblem(M=dmap.M, a=a, kind="singular"), cfg.k, scfg)
    std_prob = WeightedSLProblem(M=dmap.M, a=a, kind="standard")
    try:
        std = solve_standard_spectrum(std_prob, max(cfg.k, cfg.m + 2), scfg)
    except ResolutionError:
        # extreme potentials exceed the grid cap of the untransformed
        # problem; counts remain robust, so fall back to a count-only solve
        std = solve_standard_spectrum(std_prob, 0, scfg)
        std.meta["values_uncertified"] = True
    _write_cache(spectrum_to_json, sing, sing_path)
    _write_cache(spectrum_to_json, std, std_path)
    return sing, std, False


def _spectrum_from_json(path) -> Spectrum:
    """Lightweight reload: eigenvalues and flags, no eigenfunction samples."""
    with open(path) as fh:
        doc = json.load(fh)
    pairs = tuple(
        EigenPair(value=e["value"], error_bar=e["error_bar"],
                  grid=np.empty(0), samples=np.empty(0),
                  derivative=np.empty(0), interior_nodes=e["nodes"],
                  boundary_slope=math.nan, decay_exponent=e["theta_fit"],
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


def cmd_solve(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    cache = _cache_dir(cfg)
    key = _stage_key(cfg.subsection("profile"))
    csv_cache = os.path.join(cache, f"profile-{key}.csv")
    json_cache = os.path.join(cache, f"profile-{key}.json")
    if not (os.path.exists(csv_cache) and os.path.exists(json_cache)):
        prof = _get_profile(cfg)
        _write_cache(profile_to_csv, prof, csv_cache)
        _write_cache(profile_to_json, prof, json_cache)
    shutil.copyfile(csv_cache, os.path.join(cfg.out, "profile.csv"))
    shutil.copyfile(json_cache, os.path.join(cfg.out, "profile.json"))
    print(f"profile written to {cfg.out}/profile.csv|json")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    sing, std, cached = _get_spectra(cfg)
    for spec, name in ((sing, "spectrum_singular.json"),
                       (std, "spectrum_standard.json")):
        cache = _cache_dir(cfg)
        key = _stage_key(cfg.subsection("spectrum"))
        tag = "singular" if spec.kind == "singular" else "standard"
        shutil.copyfile(os.path.join(cache, f"{tag}-{key}.json"),
                        os.path.join(cfg.out, name))
    if not cached and len(sing.eigenpairs) and sing.eigenpairs[0].grid.size:
        eigenfunction_to_csv(sing.eigenpairs[0],
                             os.path.join(cfg.out, "eigenfunction_1.csv"))
    print(f"spectra written to {cfg.out} "
          f"(singular: {len(sing.eigenpairs)} below threshold, "
          f"{sing.negative_count} negative; standard negatives: "
          f"{std.negative_count})")
    return 0


def cmd_morse(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    sing, std, _ = _get_spectra(cfg)
    dmap = generalized_dimension(cfg.N, cfg.alpha)
    degen = degeneracy_scan(sing, std, dmap)
    report = morse_index(sing, dmap, m=cfg.m, degeneracy=degen)
    path = os.path.join(cfg.out, "morse.json")
    morse_report_to_json(report, path)
    if cfg.symmetry:
        sym = _symmetry_table(cfg.symmetry, cfg.N, report)
        with open(path) as fh:
            doc = json.load(fh)
        doc["symmetric_index"] = {
            "label": sym.label,
            "value": symmetric_morse_index(report, sym),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(cfg.out, "morse.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "nu_hat", "lambda_hat", "J", "contribution"])
        for row in morse_report_rows(report):
            w.writerow([row[0]] + [f"{x:.17g}" for x in row[1:4]]
                       + [row[4]])
    print(f"morse report: total={report.total} radial={report.radial_morse} "
          f"bounds={report.bounds} prediction={report.prediction}")
    return 0


def _symmetry_table(label: str, N: int, report) -> SymmetryMultiplicity:
    max_j = max((e.contributing_j[-1] for e in report.per_eigenvalue
                 if e.contributing_j), default=0)
    if label == "full":
        return SymmetryMultiplicity.full_rotation(max_j)
    if label.startswith("cyclic:"):
        if N != 2:
            raise ConfigError("field 'symmetry': cyclic tables are planar "
                              "(N=2) only")
        try:
            q = int(label.split(":", 1)[1])
        except ValueError:
            raise ConfigError("field 'symmetry': expected cyclic:<q>") \
                from None
        return SymmetryMultiplicity.planar_cyclic(q, max_j)
    raise ConfigError(f"field 'symmetry': unknown label {label!r}")


def _sweep_value(args):
    """One sweep step; must stay top-level picklable for process pools."""
    cfg_dict, axis, value = args
    fields = dict(cfg_dict)
    fields[axis] = value
    cfg = RunConfig(**fields)
    dmap = generalized_dimension(cfg.N, cfg.alpha)
    prof = solve_nodal_power(dmap.M, cfg.p, cfg.m, rtol=cfg.ode_rtol,
                             atol=cfg.ode_atol)
    a = linearized_potential(prof)
    sing = solve_singular_spectrum(
        WeightedSLProblem(M=dmap.M, a=a, kind="singular"), cfg.k,
        cfg.spectral_config())
    report = morse_index(sing, dmap, m=cfg.m)
    values = [p.value for p in sing.eigenpairs if p.value < 0]
    return (value, values, report.total, report.bounds["general"],
            report.bounds["with_f3"])


def cmd_sweep(cfg: RunConfig, axis: str, lo: float, hi: float,
              steps: int) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    if axis not in ("p", "alpha"):
        raise ConfigError("field 'axis': must be 'p' or 'alpha'")
    params = list(np.linspace(lo, hi, steps)) if steps > 0 else []
    jobs = [(cfg.to_dict(), axis, float(v)) for v in params]
    if cfg.workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=cfg.workers) as pool:
            rows = list(pool.map(_sweep_value, jobs))
    else:
        rows = [_sweep_value(j) for j in jobs]
    path = os.path.join(cfg.out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = [axis] + [f"nu_hat_{i + 1}" for i in range(cfg.m)] \
            + ["total", "bound_general", "bound_f3"]
        w.writerow(header)
        for value, nus, total, bg, bf in rows:
            padded = list(nus[:cfg.m]) + [math.nan] * (cfg.m - len(nus))
            w.writerow([f"{value:.17g}"] + [f"{v:.17g}" for v in padded]
                       + [total, bg, bf])
    print(f"sweep written to {path} ({len(rows)} rows)")
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    dmap = generalized_dimension(cfg.N, cfg.alpha)
    if cfg.a_zero:
        a = zero_potential
    else:
        prof = _get_profile(cfg)
        a = linearized_potential(prof)
    prob = WeightedSLProblem(M=dmap.M, a=a, kind="singular")
    sing = solve_singular_spectrum(prob, cfg.k, cfg.spectral_config())
    orc = dense_oracle_spectrum(prob, n=cfg.oracle_n,
                                epsilon_cut=cfg.epsilon_cut,
                                margin=cfg.margin)
    rows = []
    worst = 0.0
    for i, pair in enumerate(sing.eigenpairs):
        if pair.uncertain or i >= len(orc.eigenpairs):
            continue
        ov = orc.eigenpairs[i].value
        rel = abs(pair.value - ov) / max(abs(ov), 1e-300)
        worst = max(worst, rel)
        rows.append((i + 1, pair.value, ov, rel))
    path = os.path.join(cfg.out, "oracle.json")
    with open(path, "w") as fh:
        json.dump({
            "comparisons": [
                {"index": i, "solver": sv, "oracle": ov, "rel_diff": rel}
                for i, sv, ov, rel in rows],
            "worst_rel_diff": worst,
            "tolerance": cfg.oracle_tol,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"oracle comparison written to {path}; worst rel diff "
          f"{worst:.3e}")
    return 4 if worst > cfg.oracle_tol else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="henonmorse",
        description="Nodal radial solutions, singular weighted "
                    "Sturm-Liouville spectra and Morse-index reports for "
                    "Henon-type problems on the unit ball.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (flags override its fields)")
        p.add_argument("--N", type=int, dest="N")
        p.add_argument("--alpha", type=float)
        p.add_argument("--p", type=float, dest="p")
        p.add_argument("--m", type=int, dest="m")
        p.add_argument("--k", type=int, dest="k")
        p.add_argument("--grid", type=int)
        p.add_argument("--xmax", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--out", metavar="DIR")
        p.add_argument("--workers", type=int)
        p.add_argument("--symmetry", metavar="LABEL",
                       help="'full' or 'cyclic:<q>' (N=2)")
        p.add_argument("--a-zero", action="store_const", const=True,
                       dest="a_zero", help="replace the potential by 0")
        p.add_argument("--oracle-n", type=int, dest="oracle_n")
        p.add_argument("--oracle-tol", type=float, dest="oracle_tol")
        p.add_argument("--epsilon-cut", type=float, dest="epsilon_cut")

    for name in ("solve", "spectrum", "morse", "oracle"):
        common(sub.add_parser(name))
    sw = sub.add_parser("sweep")
    common(sw)
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
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "morse":
            return cmd_morse(cfg)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        if args.command == "sweep":
            try:
                lo, hi = (float(x) for x in args.range.split(":"))
            except ValueError:
                raise ConfigError("field 'range': expected LO:HI") from None
            if args.steps < 0:
                raise ConfigError("field 'steps': must be >= 0")
            return cmd_sweep(cfg, args.axis, lo, hi, args.steps)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, BracketError, SpectralError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
