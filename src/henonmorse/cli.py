"""Command-line front end, and the one module that reads or writes files.

Subcommands: solve, spectrum, morse, sweep, oracle.  A single JSON config
document may supply any RunConfig field; command-line flags override file
fields, and defaults fill the rest (precedence: flags > file > defaults).
Flag text and file values go through one parser (RunConfig.checked), so
--N 3.0 and {"N": 3.0} are the same config.  A sweep ignores the base value
of the field it sweeps, in the flags and in the file alike.
Numerical defaults and bounds are SpectralConfig's, spectral.N_CAP and the
oracle's; the other solver settings are module constants, not config
fields.
Every subcommand builds its results through a Pipeline, which solves the
profile at most once per run and hands every solve of the run one potential
object, so the second spectrum finds the Liouville grid the first one built
still kept by the spectral module (keyed by that object).  Spectra
are cached under <out>/cache, one entry per kind and number of values held,
keyed by a hash of exactly the fields that feed a spectrum, so spectra
survive report-level changes, and of the code that solves them
(_code_digest: the package's modules and the numpy and scipy versions), so
entries written by other code are not served.  Cache files are moved into
place whole, and each carries a digest of its file name and content: an
entry that cannot be read or fails its digest is recomputed.
Profiles are not cached: each solve run solves its profile again, in a few ms.

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
run whose standard and singular negative counts differ, and a morse run or
sweep point whose singular negative count differs from m, or whose singular
spectrum holds fewer negative pairs than it counts), 4 oracle mismatch: an
eigenvalue beyond tolerance, differing negative counts, or a solver
eigenvalue the oracle did not find, among the pairs whose decay the
oracle's cut resolves (oracle.resolves).  A sweep writes a row for
every point, a failed one with NaN numbers and its failure in the status
column, and exits 3 if any point failed.
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
import pathlib
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .dimension import critical_exponent, generalized_dimension
from .morse import (MorseReport, degeneracy_scan, morse_index,
                    symmetric_morse_index)
from .oracle import (DENSE_N, DENSE_N_GUARD, EPSILON_CUT_MAX,
                     dense_oracle_spectrum, resolves)
from .radial import (IntegrationError, RadialProfile, linearized_potential,
                     solve_nodal_power, validate_profile)
from .spectral import (N_CAP, EigenPair, SpectralConfig, SpectralError,
                       Spectrum, WeightedSLProblem, solve_singular_spectrum,
                       solve_standard_spectrum, theta_analytic,
                       zero_potential)


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


def _digest(salt: str, doc) -> str:
    """sha256 of salt and the canonical JSON of doc."""
    blob = salt + json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.cache
def _code_digest() -> str:
    """sha256 of the numpy and scipy versions and of every module of this
    package: any change to the code that solves a spectrum changes it."""
    h = hashlib.sha256(f"{np.__version__} {scipy.__version__}".encode())
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


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

    # one flag per field, in this order, with the message as its help
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
        "out": ("str", _directory_or_new,
                "out must name a directory or a new path below one"),
        "workers": ("int", lambda v: v >= 1, "workers must be >= 1"),
        "symmetry": ("str?",
                     lambda v: v in (None, "full") or _cyclic_order(v) >= 1,
                     "symmetry must be 'full' or 'cyclic:<q>' with an "
                     "integer q >= 1"),
        "a_zero": ("bool", lambda v: True, "replace the potential by 0"),
        "oracle_n": ("int", lambda v: 16 <= v <= DENSE_N_GUARD,
                     f"oracle_n must be an integer in [16, {DENSE_N_GUARD}]"),
        "oracle_tol": ("float", lambda v: v > 0, "oracle_tol must be "
                       "positive"),
        "epsilon_cut": ("float?",
                        lambda v: v is None or 0 < v < EPSILON_CUT_MAX,
                        f"epsilon_cut must be in (0, {EPSILON_CUT_MAX})"),
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
    def checked(cls, name: str, value, domain=None):
        """`value`, from a config file or a flag's text, parsed into field
        `name`'s type; ConfigError naming the field when it does not parse
        or lies outside the field's domain.  A (kind, check, message)
        `domain` stands in for the _DOMAINS entry of a name that is not a
        field."""
        kind, check, msg = domain or cls._DOMAINS[name]
        try:
            # JSON true/false fill the bool fields, and nothing else
            if isinstance(value, bool) != (kind == "bool"):
                raise ValueError
            if kind == "int":
                # any integral number: 3, 3.0, "3" or "3.0"
                number = value if isinstance(value, int) else float(value)
                if number != int(number):
                    raise ValueError
                value = int(number)
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
    and neither serves the other.  spectrum reads an entry that passes its
    digest, and otherwise solves it; solve always solves, and writes the
    entry.
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

    @functools.cached_property
    def potential(self):
        """The one potential callable of this configuration: every solve of
        the run passes this object, so the spectral module serves the
        second kind the Liouville grid the first one built."""
        if self.cfg.a_zero:
            return zero_potential
        return linearized_potential(self.profile)

    def entry(self, kind: str, k: int) -> str:
        fields = dict(self.cfg.spectrum_fields(), k=k)
        key = _digest(_code_digest(), fields)[:16]
        return os.path.join(self.cache, f"{kind}-{key}.json")

    def spectrum(self, kind: str, k: int) -> Spectrum:
        """The spectrum of this kind and k, read from its cache entry (no
        eigenfunction samples), or solved when the entry is missing,
        unreadable or fails its digest."""
        try:
            return _read_spectrum(self.entry(kind, k))
        except (OSError, ValueError):
            pass
        return self.solve(kind, k)

    def solve(self, kind: str, k: int) -> Spectrum:
        """The spectrum of this kind and k, solved, and cached."""
        prob = WeightedSLProblem(M=self.dmap.M, a=self.potential, kind=kind)
        solve = (solve_singular_spectrum if kind == "singular"
                 else solve_standard_spectrum)
        spec = solve(prob, k, self.cfg.spectral_config())
        _write_cache(_spectrum_doc(spec), self.entry(kind, k))
        return spec


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
    """_write_json of doc and its digest to a temporary file, then moved
    onto path: a reader sees the whole entry or none.  The digest covers
    the file name, so an entry moved to another key fails it."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        _write_json(dict(doc, digest=_digest(os.path.basename(path), doc)),
                    tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _profile_doc(prof: RadialProfile) -> dict:
    """profile.json; `rows` is the number of data rows of profile.csv."""
    return {
        "variable": "emden",
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
    """A cache entry, and what spectrum_<kind>.json publishes: with each
    negative singular value, the vanishing rate theta_analytic its
    eigenfunction has at the origin."""
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
                "theta_analytic": theta_analytic(p.value, spec.M)
                if spec.kind == "singular" and p.value < 0 else None,
            }
            for p in spec.eigenpairs
        ],
        "meta": spec.meta,
    }


def _read_spectrum(path) -> Spectrum:
    """The spectrum _write_cache wrote to path: eigenvalues, bars and node
    counts, no eigenfunction samples.  ValueError when the entry fails its
    digest."""
    with open(path) as fh:
        doc = json.load(fh)
    digest = doc.pop("digest", None) if isinstance(doc, dict) else None
    if digest != _digest(os.path.basename(path), doc):
        raise ValueError(f"cache entry {path} fails its digest")
    pairs = tuple(
        EigenPair(value=e["value"], error_bar=e["error_bar"],
                  grid=np.empty(0), samples=np.empty(0),
                  interior_nodes=e["nodes"],
                  boundary_slope=math.nan)
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
    # a cache entry holds no eigenfunction samples: solve the singular kind
    sing = pipe.solve("singular", cfg.k)
    std = pipe.spectrum("standard", max(cfg.k, cfg.m + 2))
    for kind, spec in (("singular", sing), ("standard", std)):
        _write_json(_spectrum_doc(spec),
                    os.path.join(cfg.out, f"spectrum_{kind}.json"))
    # without a pair, the header alone: no earlier run's file stays
    first = sing.eigenpairs[:1]
    _write_csv(os.path.join(cfg.out, "eigenfunction_1.csv"), ["r", "psi"],
               zip(first[0].grid, first[0].samples) if first else ())
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
    eigenvalues, the Morse total, the bounds and the status, "ok" or the
    solver failure, which leaves the numbers NaN.  Top-level so that
    process pools can pickle it."""
    cfg = pipe.cfg
    try:
        sing = _radial_spectrum(pipe)
        # morse_index refuses a spectrum with fewer negative pairs than m
        report = morse_index(sing, pipe.dmap, m=cfg.m)
    except (IntegrationError, SpectralError) as exc:
        return ([getattr(cfg, axis)] + [math.nan] * (cfg.m + 3)
                + [f"solver failure: {exc}"])
    nus = [p.value for p in sing.eigenpairs if p.value < 0][:cfg.m]
    return ([getattr(cfg, axis)] + nus
            + [report.total, report.bounds["general"],
               report.bounds["with_f3"], "ok"])


def cmd_sweep(cfg: RunConfig, axis: str, lo: float, hi: float,
              steps: int) -> int:
    params = list(np.linspace(lo, hi, steps)) if steps > 0 else []
    # every swept value and configuration is checked before any solve
    values = [RunConfig.checked(axis, float(v)) for v in params]
    pipes = [Pipeline(dataclasses.replace(cfg, **{axis: v})) for v in values]
    os.makedirs(cfg.out, exist_ok=True)
    pooled = {}
    if cfg.workers > 1:
        # the pool makes the rows of the points missing from the cache, and
        # caches their spectra; the others read theirs here
        missed = [i for i, pipe in enumerate(pipes)
                  if not os.path.exists(pipe.entry("singular", cfg.k))]
        if len(missed) > 1:
            import concurrent.futures  # 12 ms at import: only when pooling
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=cfg.workers) as pool:
                pooled = dict(zip(missed, pool.map(
                    functools.partial(_sweep_row, axis=axis),
                    [pipes[i] for i in missed])))
    rows = [pooled[i] if i in pooled else _sweep_row(pipe, axis)
            for i, pipe in enumerate(pipes)]
    path = os.path.join(cfg.out, "sweep.csv")
    _write_csv(path, [axis] + [f"nu_hat_{i + 1}" for i in range(cfg.m)]
               + ["total", "bound_general", "bound_f3", "status"], rows)
    print(f"sweep written to {path} ({len(rows)} rows)")
    failed = [row for row in rows if row[-1] != "ok"]
    for row in failed:
        print(f"{axis}={row[0]!r}: {row[-1]}", file=sys.stderr)
    return 3 if failed else 0


def cmd_oracle(cfg: RunConfig) -> int:
    pipe = Pipeline(cfg)
    sing = pipe.spectrum("singular", cfg.k)
    orc = dense_oracle_spectrum(
        WeightedSLProblem(M=pipe.dmap.M, a=pipe.potential, kind="singular"),
        n=cfg.oracle_n, epsilon_cut=cfg.epsilon_cut)
    comparisons = []
    unmatched = []      # compared solver pairs the oracle did not find
    worst = 0.0
    for i, pair in enumerate(sing.eigenpairs):
        if not resolves(sing.threshold, pair.value):
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

# sweep's --steps is not a config field, but parses as the int fields do
_STEPS_DOMAIN = ("int", lambda v: v >= 0, "steps must be an integer >= 0")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call of a process
    and reused by later ones.  The shared options are declared once, on a
    parent parser that every subcommand inherits."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (flags override its fields)")
    # flags keep their text, for RunConfig.checked to parse
    for name, (kind, _, msg) in RunConfig._DOMAINS.items():
        store = {"action": "store_const", "const": True} if kind == "bool" \
            else {}
        common.add_argument("--" + name.replace("_", "-"), help=msg, **store)

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
    sw.add_argument("--steps", required=True, help=_STEPS_DOMAIN[2])
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
    # every configuration a sweep solves replaces the base's axis field
    swept = getattr(args, "axis", None)
    file_fields = {k: v for k, v in file_fields.items() if k != swept}
    cli_fields = {name: getattr(args, name) for name in RunConfig._DOMAINS
                  if name != swept}
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
            steps = RunConfig.checked("steps", args.steps, _STEPS_DOMAIN)
            return cmd_sweep(cfg, args.axis, lo, hi, steps)
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
