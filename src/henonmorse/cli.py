"""Command-line front end.

Subcommands: solve, spectrum, morse, sweep, oracle.  A single JSON config
document may supply any RunConfig field; command-line flags override file
fields, and defaults fill the rest (precedence: flags > file > defaults).
Numerical defaults and bounds are SpectralConfig's and the oracle's; the
other solver settings are module constants, not config fields.
Every subcommand builds its results through a Pipeline, which solves the
profile at most once per configuration.  Results are cached under
<out>/cache, one entry per stage, spectrum kind and number of values held,
keyed by a content hash of exactly the fields that feed the stage, so
spectra survive report-level changes, and of the package version and
CACHE_REVISION, so entries written by older solver code are not served.
Cache files are moved into place whole; an entry that cannot be read is
recomputed.

The argument parser is built once per process, on the first main call, and
reused by every later call.  Non-finite float values (inf, nan), in a flag,
a config file or a sweep --range, are config errors.

Exit codes: 0 success, 2 config error, 3 solver failure (including a morse
run whose standard and singular negative counts differ), 4 oracle mismatch:
an eigenvalue beyond tolerance, differing negative counts, or a certified
solver eigenvalue the oracle did not find.
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
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dimension import generalized_dimension
from .morse import (SymmetryMultiplicity, degeneracy_scan, morse_index,
                    morse_report_doc, morse_report_rows,
                    symmetric_morse_index)
from .oracle import (DENSE_N, DENSE_N_GUARD, EPSILON_CUT_MAX,
                     dense_oracle_spectrum)
from .radial import (BracketError, IntegrationError, RadialProfile,
                     Nonlinearity, linearized_potential, profile_to_csv,
                     profile_to_json, solve_nodal_power)
from .spectral import (SpectralConfig, SpectralError, Spectrum,
                       WeightedSLProblem, eigenfunction_to_csv,
                       solve_singular_spectrum, solve_standard_spectrum,
                       spectrum_from_json, spectrum_to_json, zero_potential)


class ConfigError(ValueError):
    pass


# Raise whenever the solver's published numbers or the cache layout change.
# 2: singular eigenvalues finished by Rayleigh quotients.
# 3: profile JSON records the row count of its CSV table.
# 4: standard kind on the Liouville grid.
# 5: fine singular grid by inverse iteration from its coarsening.
CACHE_REVISION = 5


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
        "grid": ("int", lambda v: v >= 128, "grid must be an integer >= 128"),
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

    _STAGE_FIELDS = {"profile": ("N", "alpha", "p", "m"),
                     "spectrum": ("N", "alpha", "p", "m", "k", "grid",
                                  "xmax", "tol", "a_zero")}

    def subsection(self, stage: str) -> dict:
        """Fields feeding a stage, in hash-canonical form."""
        return {k: getattr(self, k) for k in self._STAGE_FIELDS[stage]}


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

class Pipeline:
    """The profile -> potential -> spectra chain of one configuration.

    The profile is solved at most once per Pipeline, on first use.  A
    spectrum entry under <out>/cache is keyed by its kind and by k, the
    number of values it holds: the standard kind has a count-only entry
    (k = 0, what morse reads) and a values entry (what spectrum publishes),
    and neither serves the other.  An entry is read from there when
    readable, and otherwise solved and written there.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.dmap = generalized_dimension(cfg.N, cfg.alpha)
        self.cache = _cache_dir(cfg)

    @functools.cached_property
    def profile(self) -> RadialProfile:
        return solve_nodal_power(self.dmap.M, self.cfg.p, self.cfg.m)

    def potential(self):
        if self.cfg.a_zero:
            return zero_potential
        return linearized_potential(self.profile)

    def entry(self, kind: str, k: int) -> str:
        key = _stage_key(dict(self.cfg.subsection("spectrum"), k=k))
        return os.path.join(self.cache, f"{kind}-{key}.json")

    def cached(self, kind: str, k: int) -> Spectrum | None:
        """The cached spectrum of this kind and k, or None when its entry is
        missing or unreadable."""
        try:
            return spectrum_from_json(self.entry(kind, k))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def spectrum(self, kind: str, k: int) -> Spectrum:
        spec = self.cached(kind, k)
        if spec is None:
            spec = self._solve(kind, k)
            _write_cache(spectrum_to_json, spec, self.entry(kind, k))
        return spec

    def _solve(self, kind: str, k: int) -> Spectrum:
        prob = WeightedSLProblem(M=self.dmap.M, a=self.potential(), kind=kind)
        solve = (solve_singular_spectrum if kind == "singular"
                 else solve_standard_spectrum)
        return solve(prob, k, self.cfg.spectral_config())


def _check_profile_entry(csv_path, json_path) -> None:
    """Raise OSError or ValueError unless both profile files parse and the
    table has the row count the JSON records (a cut table can still
    parse)."""
    with open(json_path) as fh:
        doc = json.load(fh)
    with open(csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    if header != ["t", "v", "v_prime"] or any(len(r) != 3 for r in rows):
        raise ValueError(f"{csv_path}: not a profile table")
    if not isinstance(doc, dict) or doc.get("rows") != len(rows):
        raise ValueError(f"{csv_path}: row count differs from {json_path}")
    np.array(rows, dtype=float)


def _write_json(doc: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_solve(cfg: RunConfig) -> int:
    pipe = Pipeline(cfg)
    key = _stage_key(cfg.subsection("profile"))
    csv_cache = os.path.join(pipe.cache, f"profile-{key}.csv")
    json_cache = os.path.join(pipe.cache, f"profile-{key}.json")
    try:
        _check_profile_entry(csv_cache, json_cache)
    except (OSError, ValueError):  # missing or unreadable: recompute
        _write_cache(profile_to_csv, pipe.profile, csv_cache)
        _write_cache(profile_to_json, pipe.profile, json_cache)
    shutil.copyfile(csv_cache, os.path.join(cfg.out, "profile.csv"))
    shutil.copyfile(json_cache, os.path.join(cfg.out, "profile.json"))
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
    for kind, k in ks.items():
        shutil.copyfile(pipe.entry(kind, k),
                        os.path.join(cfg.out, f"spectrum_{kind}.json"))
    if len(sing.eigenpairs):
        eigenfunction_to_csv(sing.eigenpairs[0],
                             os.path.join(cfg.out, "eigenfunction_1.csv"))
    print(f"spectra written to {cfg.out} "
          f"(singular: {len(sing.eigenpairs)} below threshold, "
          f"{sing.negative_count} negative; standard negatives: "
          f"{std.negative_count})")
    return 0


def cmd_morse(cfg: RunConfig) -> int:
    pipe = Pipeline(cfg)
    sing = pipe.spectrum("singular", cfg.k)
    # the report reads only the standard kind's counts: solve no values
    std = pipe.spectrum("standard", 0)
    if std.negative_count != sing.negative_count:
        # by Sylvester's law of inertia the two closures of one form agree
        raise SpectralError(
            f"standard negative count {std.negative_count} differs from "
            f"singular negative count {sing.negative_count}")
    degen = degeneracy_scan(sing, std, pipe.dmap)
    report = morse_index(sing, pipe.dmap, m=cfg.m, degeneracy=degen)
    doc = morse_report_doc(report)
    if cfg.symmetry:
        sym = _symmetry_table(cfg.symmetry, cfg.N, report)
        doc["symmetric_index"] = {
            "label": sym.label,
            "value": symmetric_morse_index(report, sym),
        }
    _write_json(doc, os.path.join(cfg.out, "morse.json"))
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


def _sweep_row(pipe: Pipeline, axis: str) -> list:
    """One sweep.csv row: the axis value, the m lowest negative singular
    eigenvalues (nan when missing), the Morse total and the bounds."""
    cfg = pipe.cfg
    sing = pipe.spectrum("singular", cfg.k)
    report = morse_index(sing, pipe.dmap, m=cfg.m)
    nus = [p.value for p in sing.eigenpairs if p.value < 0][:cfg.m]
    nus += [math.nan] * (cfg.m - len(nus))
    return ([f"{getattr(cfg, axis):.17g}"] + [f"{v:.17g}" for v in nus]
            + [report.total, report.bounds["general"],
               report.bounds["with_f3"]])


def _cache_singular(pipe: Pipeline) -> None:
    """Solve and cache one sweep point; top-level so that process pools can
    pickle it."""
    pipe.spectrum("singular", pipe.cfg.k)


def cmd_sweep(cfg: RunConfig, axis: str, lo: float, hi: float,
              steps: int) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    if axis not in ("p", "alpha"):
        raise ConfigError("field 'axis': must be 'p' or 'alpha'")
    params = list(np.linspace(lo, hi, steps)) if steps > 0 else []
    # every swept value passes its field's domain check before any solve
    values = [RunConfig.checked(axis, float(v)) for v in params]
    pipes = [Pipeline(dataclasses.replace(cfg, **{axis: v})) for v in values]
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([axis] + [f"nu_hat_{i + 1}" for i in range(cfg.m)]
                   + ["total", "bound_general", "bound_f3"])
        w.writerows(rows)
    print(f"sweep written to {path} ({len(rows)} rows)")
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    pipe = Pipeline(cfg)
    sing = pipe.spectrum("singular", cfg.k)
    orc = dense_oracle_spectrum(
        WeightedSLProblem(M=pipe.dmap.M, a=pipe.potential(), kind="singular"),
        n=cfg.oracle_n, epsilon_cut=cfg.epsilon_cut)
    rows = []
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
        rows.append((i + 1, pair.value, ov, rel))
    counts = {"solver": sing.negative_count, "oracle": orc.negative_count}
    path = os.path.join(cfg.out, "oracle.json")
    _write_json({
        "comparisons": [
            {"index": i, "solver": sv, "oracle": ov, "rel_diff": rel}
            for i, sv, ov, rel in rows],
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
    except (IntegrationError, BracketError, SpectralError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
