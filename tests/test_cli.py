"""End-to-end command-line interface checks."""

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from henonmorse import cli, oracle
from henonmorse.cli import RunConfig, main
from henonmorse.spectral import SpectralError


def run(args):
    return main([str(a) for a in args])


def test_solve_writes_profile(tmp_path):
    out = tmp_path / "run"
    assert run(["solve", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--out", out]) == 0
    doc = json.loads((out / "profile.json").read_text())
    assert len(doc["zeros"]) == 2
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header == "t,v,v_prime"
    # the profile is solved on each run and never cached
    assert not list(out.glob("cache/*"))


def test_solve_three_zones(tmp_path):
    out = tmp_path / "run"
    assert run(["solve", "--N", 2, "--alpha", 4, "--p", 5, "--m", 3,
                "--out", out]) == 0
    doc = json.loads((out / "profile.json").read_text())
    assert len(doc["zeros"]) == 3


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"m": "two"}))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 2
    # the threshold margin and the profile tolerances are module constants
    for name in ("nonsense_field", "margin", "ode_rtol", "ode_atol"):
        cfg.write_text(json.dumps({name: 1e-6}))
        assert run(["solve", "--config", cfg, "--out", tmp_path]) == 2
        assert f"unknown config field '{name}'" in capsys.readouterr().err


def test_config_error_names_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": 0.5}))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 2
    assert "field 'p'" in capsys.readouterr().err
    # numbers beyond float range overflow the int conversion, and no grid
    # beyond spectral.N_CAP = 2^19 cells is solved
    for name, text in (("k", '{"k": 1e400}'), ("grid", '{"grid": Infinity}'),
                       ("grid", '{"grid": 1048576}')):
        cfg.write_text(text)
        assert run(["solve", "--config", cfg, "--out", tmp_path]) == 2
        assert f"field '{name}'" in capsys.readouterr().err


def test_sweep_value_outside_the_domain_exits_2(tmp_path, capsys,
                                                monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the domain check")

    monkeypatch.setattr(cli, "solve_nodal_power", no_solve)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    for axis, rng, field, out in (("p", "0.5:2", "p", tmp_path / "p"),
                                  ("alpha", "-1:1", "alpha", tmp_path / "a"),
                                  ("p", "2:3", "out", blocker),
                                  ("p", "2:3", "out", blocker / "sub")):
        assert run(["sweep", "--N", 3, "--m", 1, "--axis", axis,
                    f"--range={rng}", "--steps", 3, "--out", out]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
    # an --out naming a file, or a path below one, is refused before any
    # solve by every command
    for command in ("solve", "spectrum", "morse", "oracle"):
        for out in (blocker, blocker / "sub"):
            assert run([command, "--out", out]) == 2
            assert "field 'out'" in capsys.readouterr().err
    assert blocker.is_file()


FLOAT_FIELDS = [name for name, (kind, _, _) in RunConfig._DOMAINS.items()
                if kind in ("float", "float?")]


def test_non_finite_values_exit_2(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved with a non-finite config value")

    monkeypatch.setattr(cli, "solve_nodal_power", no_solve)
    assert FLOAT_FIELDS == ["alpha", "p", "xmax", "tol", "oracle_tol",
                            "epsilon_cut"]
    cfg = tmp_path / "cfg.json"
    for name in FLOAT_FIELDS:
        flag = "--" + name.replace("_", "-")
        for text in ("inf", "-inf", "nan"):
            assert run(["morse", f"{flag}={text}", "--out", tmp_path]) == 2
            err = capsys.readouterr().err
            assert f"field '{name}': must be finite" in err, (flag, text)
        # JSON's 1e999 parses to inf
        cfg.write_text(f'{{"{name}": 1e999}}')
        assert run(["oracle", "--config", cfg, "--out", tmp_path]) == 2
        assert f"field '{name}': must be finite" in capsys.readouterr().err
    assert not (tmp_path / "morse.json").exists()
    assert not (tmp_path / "oracle.json").exists()


def test_sweep_non_finite_range_exits_2(tmp_path, capsys):
    out = tmp_path / "sw"
    for rng in ("2:inf", "-inf:3", "nan:3", "2:nan"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sweep", "--N", 3, "--m", 1, "--axis", "p",
                        f"--range={rng}", "--steps", 2, "--out", out]) == 2
        assert "field 'range': endpoints must be finite" in \
            capsys.readouterr().err
    assert not out.exists()


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 3, "alpha": 0.0, "p": 3.0, "m": 1}))
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--m", 2, "--out", out]) == 0
    doc = json.loads((out / "profile.json").read_text())
    assert doc["nodal_zones"] == 2


def test_config_string_for_a_bool_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"a_zero": "false"}))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 2
    assert "field 'a_zero'" in capsys.readouterr().err


def test_config_bool_for_an_int_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"m": True}))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 2
    assert "field 'm'" in capsys.readouterr().err


def test_config_round_trip():
    cfg = RunConfig.from_sources({"N": 5, "alpha": 2.7, "p": 2.2, "m": 3,
                                  "k": 4, "grid": 2048}, {})
    again = RunConfig.from_sources(
        json.loads(json.dumps(dataclasses.asdict(cfg))), {})
    assert again == cfg


def test_spectral_config_carries_only_what_a_run_sets():
    # every SpectralConfig field comes from RunConfig: a field no run sets
    # keeps its default here and belongs in a module constant instead
    cfg = RunConfig(grid=2048, xmax=35.0, tol=1e-3)
    got = dataclasses.asdict(cfg.spectral_config())
    default = dataclasses.asdict(type(cfg.spectral_config())())
    assert [k for k in got if got[k] == default[k]] == []


def test_stage_subsections_keep_their_cache_keys():
    # the fields and the order the spectrum cache keys were built from with
    # dataclasses.asdict; a change here moves every cache entry
    keys = ("N", "alpha", "p", "m", "k", "grid", "xmax", "tol", "a_zero")
    for cfg in (RunConfig(),
                RunConfig(N=5, alpha=2.7, p=2.2, m=3, k=4, grid=2048,
                          xmax=35.0, tol=1e-3, a_zero=True)):
        d = dataclasses.asdict(cfg)
        sub = cfg.spectrum_fields()
        assert sub == {k: d[k] for k in keys}
        assert list(sub) == list(keys)
        assert [type(v) for v in sub.values()] == [type(d[k]) for k in keys]


def test_spectrum_command_and_cache_determinism(tmp_path):
    out = tmp_path / "s"
    args = ["spectrum", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
            "--k", 3, "--out", out]
    assert run(args) == 0
    first = (out / "spectrum_singular.json").read_bytes()
    first_std = (out / "spectrum_standard.json").read_bytes()
    assert run(args) == 0
    assert (out / "spectrum_singular.json").read_bytes() == first
    assert (out / "spectrum_standard.json").read_bytes() == first_std
    doc = json.loads(first)
    assert doc["negative_count"] == 2
    assert sum(1 for e in doc["eigenvalues"] if e["value"] < 0) == 2


def test_spectrum_a_zero_override(tmp_path):
    out = tmp_path / "z"
    assert run(["spectrum", "--N", 5, "--alpha", 1, "--p", 2.2, "--m", 1,
                "--a-zero", "--out", out]) == 0
    doc = json.loads((out / "spectrum_singular.json").read_text())
    assert doc["eigenvalues"] == []
    assert doc["negative_count"] == 0


def test_morse_command(tmp_path):
    out = tmp_path / "m"
    assert run(["morse", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--k", 3, "--out", out]) == 0
    doc = json.loads((out / "morse.json").read_text())
    assert doc["radial_morse"] == 2
    assert doc["total"] == sum(e["contribution"]
                               for e in doc["per_eigenvalue"])
    assert doc["bounds"]["with_f3"] == 5
    assert doc["degeneracy"]["radially_degenerate"] is False
    assert doc["prediction"] == 5
    rows = (out / "morse.csv").read_text().splitlines()
    assert rows[0] == "i,nu_hat,lambda_hat,J,contribution"
    assert len(rows) == 3


def test_morse_symmetric_index(tmp_path):
    # (N, alpha, p, m, --symmetry) -> the published object, and the Morse
    # total it is part of
    for (N, alpha, p, m, label), sym, total in (
            ((3, 0, 3, 2, "full"), {"label": "full-rotation", "value": 2},
             10),
            ((2, 3, 3, 2, "cyclic:4"), {"label": "cyclic-4", "value": 6}, 24),
            # every harmonic is invariant under the trivial group
            ((2, 1, 3, 2, "cyclic:1"), {"label": "cyclic-1", "value": 14},
             14)):
        out = tmp_path / f"{N}-{label}"
        assert run(["morse", "--N", N, "--alpha", alpha, "--p", p, "--m", m,
                    "--symmetry", label, "--out", out]) == 0
        doc = json.loads((out / "morse.json").read_text())
        assert doc["symmetric_index"] == sym
        assert doc["total"] == total
        if label == "full":
            # the full rotation group keeps the radial part alone
            assert sym["value"] == doc["radial_morse"]


def test_sweep_deterministic_and_parallel(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = ["sweep", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2, "--k", 3,
            "--axis", "p", "--range", "2.2:3.0", "--steps", 3]
    assert run(base + ["--out", out1]) == 0
    assert run(base + ["--out", out2, "--workers", 2]) == 0
    assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()
    rows = (out1 / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("p,nu_hat_1,nu_hat_2,total")
    assert len(rows) == 4


def test_sweep_empty_range(tmp_path):
    out = tmp_path / "e"
    assert run(["sweep", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--axis", "p", "--range", "2:3", "--steps", 0,
                "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1


def test_morse_desk_scale_example(tmp_path):
    # p close to the critical exponent: the second angular threshold pins
    # to 1 (collision flag) and the total realizes the limit value 5
    out = tmp_path / "desk"
    assert run(["morse", "--N", 3, "--alpha", 0, "--p", 4.9, "--m", 2,
                "--k", 2, "--out", out]) == 0
    doc = json.loads((out / "morse.json").read_text())
    assert doc["total"] == 5
    assert doc["prediction"] == 5
    e1, e2 = doc["per_eigenvalue"]
    assert 1.0 < e1["J"] < 2.0
    assert abs(e2["J"] - 1.0) < 1e-5 and e2["integer_collision"]
    # the standard kind's origin well is narrow in r but shallow on the
    # Liouville grid: its values are certified there, and by Sylvester's
    # law of inertia its negative count is the singular one
    spec_out = tmp_path / "desk_spec"
    assert run(["spectrum", "--N", 3, "--alpha", 0, "--p", 4.9, "--m", 2,
                "--k", 2, "--out", spec_out]) == 0
    std = json.loads((spec_out / "spectrum_standard.json").read_text())
    assert std["negative_count"] == 2
    assert std["meta"]["resolution_capped"] is False
    assert len(std["eigenvalues"]) == 4          # max(k, m + 2)
    assert "values_uncertified" not in std["meta"]
    sing = json.loads((spec_out / "spectrum_singular.json").read_text())
    assert sing["negative_count"] == 2
    assert sing["meta"]["resolution_capped"] is False


def _failing_standard_solve(k_min):
    """The standard solve, failing in LAPACK whenever k >= k_min."""
    real = cli.solve_standard_spectrum

    def failing(prob, k, cfg):
        if k >= k_min:
            raise SpectralError("LAPACK dstein failed with info=1")
        return real(prob, k, cfg)

    return failing


def test_morse_standard_solver_failure_exits_3(tmp_path, monkeypatch):
    # a failed LAPACK call in the standard solve is a solver failure, and
    # nothing is cached for it
    monkeypatch.setattr(cli, "solve_standard_spectrum",
                        _failing_standard_solve(0))
    out = tmp_path / "fail"
    assert run(["morse", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--out", out]) == 3
    assert not list(out.glob("cache/standard-*.json"))


def test_xmax_whose_grid_step_squares_to_zero_exits_3(tmp_path, capsys):
    # the Liouville grid refuses a step that squares to 0 instead of
    # dividing by it, with the potential and without
    for extra in ([], ["--a-zero"]):
        out = tmp_path / f"x{len(extra)}"
        assert run(["morse", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                    "--xmax", "1e-160", "--out", out] + extra) == 3
        assert "solver failure: x_max=1e-160" in capsys.readouterr().err
        assert not (out / "morse.json").exists()


def test_p_at_or_above_the_critical_exponent_exits_2(tmp_path, capsys,
                                                     monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the critical-exponent check")

    monkeypatch.setattr(cli, "solve_nodal_power", no_solve)
    # at N = 3, alpha = 0 the critical exponent (M+2)/(M-2) is 5
    for p in (5.0, 5.5):
        for command in ("solve", "spectrum", "morse", "oracle"):
            out = tmp_path / f"{command}-{p}"
            assert run([command, "--N", 3, "--alpha", 0, "--p", p,
                        "--m", 1, "--out", out]) == 2
            assert "field 'p'" in capsys.readouterr().err
            assert not out.exists()
    # alpha moves the bound: p = 5.5 lies below it at alpha = 1 (M = 8/3,
    # bound 7) and alpha = 0.5 (bound 6), and every swept configuration is
    # checked before the first is solved
    out = tmp_path / "sweep"
    assert run(["sweep", "--N", 3, "--p", 5.5, "--m", 1, "--axis", "alpha",
                "--range", "1:0", "--steps", 3, "--out", out]) == 2
    assert "field 'p'" in capsys.readouterr().err
    assert not out.exists()


def test_radial_index_other_than_m_exits_3(tmp_path, capsys):
    # an x_max short of the potential well leaves no negative singular
    # eigenvalue; the radial Morse index of an m-nodal solution is m, so
    # neither morse nor sweep publishes such a count
    for xmax in ("1e-8", "1e-20"):
        out = tmp_path / f"morse-{xmax}"
        assert run(["morse"] + REFERENCE + ["--xmax", xmax,
                                            "--out", out]) == 3
        assert ("singular negative count 0 differs from m=2"
                in capsys.readouterr().err)
        assert not (out / "morse.json").exists()
    out = tmp_path / "sweep"
    assert run(["sweep", "--N", 3, "--m", 2, "--xmax", "1e-8", "--axis", "p",
                "--range", "2:3", "--steps", 2, "--out", out]) == 3
    assert not (out / "sweep.csv").exists()


def test_spectrum_standard_solver_failure_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "solve_standard_spectrum",
                        _failing_standard_solve(1))
    out = tmp_path / "fail"
    assert run(["spectrum", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--out", out]) == 3
    assert not list(out.glob("cache/standard-*.json"))
    assert not (out / "spectrum_standard.json").exists()


REFERENCE = ["--N", 3, "--alpha", 0, "--p", 3, "--m", 2]
REPORT = ("morse.json", "morse.csv")


def test_unreadable_cache_entry_is_recomputed(tmp_path):
    out = tmp_path / "c"
    args = ["morse"] + REFERENCE + ["--out", out]
    assert run(args) == 0
    first = [(out / name).read_bytes() for name in REPORT]
    (entry,) = out.glob("cache/singular-*.json")
    entry.write_bytes(entry.read_bytes()[:100])
    assert run(args) == 0
    assert [(out / name).read_bytes() for name in REPORT] == first
    assert json.loads(entry.read_text())["negative_count"] == 2
    assert not list(out.glob("cache/*.tmp"))


def test_cache_entry_from_older_solver_code_is_recomputed(tmp_path):
    fresh = tmp_path / "fresh"
    assert run(["morse"] + REFERENCE + ["--out", fresh]) == 0
    # older code keyed an entry by the stage fields alone; plant entries
    # under that key whose values differ from today's solve
    out = tmp_path / "old"
    (out / "cache").mkdir(parents=True)
    sub = RunConfig(N=3, alpha=0.0, p=3.0, m=2).spectrum_fields()
    old_key = hashlib.sha256(json.dumps(
        sub, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]
    for kind in ("singular", "standard"):
        (entry,) = fresh.glob(f"cache/{kind}-*.json")
        doc = json.loads(entry.read_text())
        for e in doc["eigenvalues"]:
            e["value"] *= 1.01
        (out / "cache" / f"{kind}-{old_key}.json").write_text(json.dumps(doc))
    assert run(["morse"] + REFERENCE + ["--out", out]) == 0
    for name in REPORT:
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    assert len(list(out.glob("cache/singular-*.json"))) == 2


def test_sweep_gap_trend(tmp_path):
    out = tmp_path / "trend"
    assert run(["sweep", "--N", 3, "--alpha", 0, "--m", 2, "--k", 3,
                "--axis", "p", "--range", "2:4.5", "--steps", 4,
                "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    nu2 = [float(r.split(",")[2]) for r in rows]
    assert abs(nu2[-1] + 2.0) < abs(nu2[0] + 2.0)


def test_oracle_command(tmp_path):
    out = tmp_path / "o"
    assert run(["oracle", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--k", 2, "--out", out]) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["worst_rel_diff"] < 1e-4
    assert len(doc["comparisons"]) == 2
    assert doc["negative_count"] == {"solver": 2, "oracle": 2}
    assert doc["unmatched"] == []


def test_oracle_missing_a_certified_eigenvalue_exits_4(tmp_path):
    # cut at r = 0.09 the oracle's problem keeps only the first bound
    # state, so the solver's certified nu_2 has no partner
    out = tmp_path / "cut"
    assert run(["oracle", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--k", 4, "--epsilon-cut", 0.09, "--out", out]) == 4
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["negative_count"] == {"solver": 2, "oracle": 1}
    assert doc["unmatched"] == [2]
    assert [c["index"] for c in doc["comparisons"]] == [1]
    assert doc["worst_rel_diff"] < doc["tolerance"]


def test_oracle_lapack_failure_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_dstemr", lambda *args: (np.empty(0), 7))
    out = tmp_path / "fail"
    assert run(["oracle"] + REFERENCE + ["--out", out]) == 3
    err = capsys.readouterr().err
    assert "dstemr failed with info=7" in err
    assert "Traceback" not in err
    assert not (out / "oracle.json").exists()


def test_oracle_coarse_grid_still_exits_zero(tmp_path):
    out = tmp_path / "coarse"
    code = run(["oracle", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--k", 2, "--grid", 2048, "--out", out])
    assert code == 0
    fine = tmp_path / "fine"
    assert run(["oracle", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--k", 2, "--out", fine]) == 0
    coarse_doc = json.loads((out / "oracle.json").read_text())
    fine_doc = json.loads((fine / "oracle.json").read_text())
    assert coarse_doc["worst_rel_diff"] < coarse_doc["tolerance"]
    assert coarse_doc["worst_rel_diff"] > fine_doc["worst_rel_diff"]


def test_oracle_mismatch_exit_code(tmp_path):
    # an unreachable tolerance turns the honest ~1e-5 disagreement into the
    # dedicated mismatch exit code, report still written
    out = tmp_path / "strict"
    code = run(["oracle", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--k", 2, "--oracle-tol", 1e-9, "--out", out])
    assert code == 4
    assert (out / "oracle.json").exists()


def test_oracle_guard_refused(tmp_path):
    assert run(["oracle", "--N", 3, "--alpha", 0, "--p", 3, "--m", 1,
                "--oracle-n", 4001, "--out", tmp_path]) == 2


def test_unknown_symmetry_label(tmp_path, capsys):
    sweep = ["--axis", "p", "--range", "2:3", "--steps", 2]
    for N, m, label in ((3, 1, "dodecahedral"), (2, 2, "cyclic:0"),
                        (2, 2, "cyclic:-2"), (3, 2, "cyclic:2")):
        for command in ("solve", "spectrum", "morse", "oracle", "sweep"):
            out = tmp_path / f"{command}-{N}-{label}"
            assert run([command, "--N", N, "--alpha", 0, "--p", 3, "--m", m,
                        "--symmetry", label, "--out", out]
                       + (sweep if command == "sweep" else [])) == 2
            assert "field 'symmetry'" in capsys.readouterr().err
            # every command checks the label before it solves or writes
            assert not out.exists()


def test_damaged_profile_entry_is_recomputed(tmp_path):
    # solve re-solves the profile on each run: a damaged profile.json from
    # an earlier run is overwritten whole, byte-identical to the first
    out = tmp_path / "p"
    args = ["solve"] + REFERENCE + ["--out", out]
    assert run(args) == 0
    first = [(out / name).read_bytes() for name in ("profile.csv",
                                                     "profile.json")]
    (out / "profile.json").write_bytes(first[1][:100])
    assert run(args) == 0
    assert [(out / name).read_bytes() for name in ("profile.csv",
                                                   "profile.json")] == first
    assert not list(out.glob("cache/*"))


def test_truncated_profile_table_is_recomputed(tmp_path):
    out = tmp_path / "p"
    args = ["solve"] + REFERENCE + ["--out", out]
    assert run(args) == 0
    fresh = (out / "profile.csv").read_bytes()
    table = out / "profile.csv"
    table.write_bytes(b"".join(fresh.splitlines(True)[:50]))
    assert run(args) == 0
    assert table.read_bytes() == fresh


HEAVY_SCIPY = ("scipy.integrate", "scipy.special", "scipy.optimize",
               "scipy.sparse", "scipy.linalg", "scipy._lib._array_api",
               "numpy.f2py", "numpy.testing")


def test_morse_run_loads_no_heavy_scipy_package(tmp_path):
    """Importing the CLI and running a cold morse report, or a cold oracle
    check, loads none of HEAVY_SCIPY.  The scipy.linalg package __init__
    alone, through scipy._lib._array_api, would take a bare import of the
    CLI from 0.20 to 0.42 s and its max RSS from 38 to 57 MB.  Importing
    the CLI leaves concurrent.futures unloaded too: only a sweep that
    starts a process pool imports it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for command in ("morse", "oracle"):
        args = [str(a) for a in [command] + REFERENCE + [
            "--k", 3, "--out", tmp_path / command]]
        code = ("import sys\n"
                "from henonmorse import cli\n"
                "print('concurrent.futures' in sys.modules)\n"
                f"status = cli.main({args!r})\n"
                f"print(status, [m for m in {HEAVY_SCIPY!r} "
                "if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "False", command
        assert lines[-1] == "0 []", command


def _refuse(*args, **kwargs):
    raise AssertionError("called on a warm cache")


SWEEP = ["sweep", "--N", 3, "--alpha", 0, "--m", 2, "--k", 3, "--axis", "p",
         "--range", "2.2:3.0", "--steps", 3]


def test_sweep_rerun_reads_every_point_from_the_cache(tmp_path, monkeypatch):
    out = tmp_path / "sw"
    args = SWEEP + ["--workers", 2, "--out", out]
    assert run(args) == 0
    first = (out / "sweep.csv").read_bytes()
    assert len(list(out.glob("cache/singular-*.json"))) == 3
    monkeypatch.setattr(cli, "solve_singular_spectrum", _refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _refuse)
    assert run(args) == 0
    assert (out / "sweep.csv").read_bytes() == first


def test_sweep_truncated_entry_is_recomputed(tmp_path, capsys):
    out = tmp_path / "sw"
    args = SWEEP + ["--out", out]
    assert run(args) == 0
    first = (out / "sweep.csv").read_bytes()
    entry = sorted(out.glob("cache/singular-*.json"))[1]
    entry.write_bytes(entry.read_bytes()[:100])
    capsys.readouterr()
    assert run(args) == 0
    assert capsys.readouterr().err == ""
    assert (out / "sweep.csv").read_bytes() == first
    assert json.loads(entry.read_text())["kind"] == "singular"


def test_oracle_reads_the_singular_spectrum_morse_cached(tmp_path,
                                                        monkeypatch):
    cold = tmp_path / "cold"
    assert run(["oracle"] + REFERENCE + ["--out", cold]) == 0
    out = tmp_path / "o"
    assert run(["morse"] + REFERENCE + ["--out", out]) == 0
    monkeypatch.setattr(cli, "solve_singular_spectrum", _refuse)
    assert run(["oracle"] + REFERENCE + ["--out", out]) == 0
    assert (out / "oracle.json").read_bytes() == \
        (cold / "oracle.json").read_bytes()


def test_cold_morse_solves_the_profile_once_per_run(tmp_path, monkeypatch):
    calls = []
    real = cli.solve_nodal_power

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_nodal_power", counted)
    for name in ("a", "b"):
        assert run(["morse"] + REFERENCE + ["--out", tmp_path / name]) == 0
        assert len(calls) == 1
        calls.clear()


def test_a_spectrum_morse_cannot_count_exits_3(tmp_path, monkeypatch,
                                              capsys):
    # k = 1 holds one of the two negative pairs; no report is written
    out = tmp_path / "k1"
    assert run(["morse"] + REFERENCE + ["--k", 1, "--out", out]) == 3
    assert "request k >= negative_count" in capsys.readouterr().err
    assert not list(out.glob("morse.*"))
    assert run(["sweep", "--N", 3, "--alpha", 0, "--m", 2, "--k", 1,
                "--axis", "p", "--range", "2.2:3.0", "--steps", 2,
                "--out", out]) == 3
    assert "request k >= negative_count" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    # a near-threshold pair is refused the same way
    real = cli.solve_singular_spectrum

    def flagged(prob, k, cfg):
        spec = real(prob, k, cfg)
        pair = dataclasses.replace(spec.eigenpairs[0], uncertain=True)
        return dataclasses.replace(
            spec, eigenpairs=(pair,) + spec.eigenpairs[1:])

    monkeypatch.setattr(cli, "solve_singular_spectrum", flagged)
    out = tmp_path / "flagged"
    assert run(["morse"] + REFERENCE + ["--out", out]) == 3
    assert "near-threshold" in capsys.readouterr().err
    assert not list(out.glob("morse.*"))


def test_morse_refuses_differing_negative_counts(tmp_path, monkeypatch,
                                                 capsys):
    # criterion 04 at run time: the standard and singular counts are
    # inertias of one form, so a difference is a numerical defect
    real = cli.solve_standard_spectrum

    def off_by_one(prob, k, cfg):
        spec = real(prob, k, cfg)
        return dataclasses.replace(spec,
                                   negative_count=spec.negative_count + 1)

    monkeypatch.setattr(cli, "solve_standard_spectrum", off_by_one)
    out = tmp_path / "c04"
    assert run(["morse"] + REFERENCE + ["--out", out]) == 3
    err = capsys.readouterr().err
    assert "standard negative count 3" in err
    assert "singular negative count 2" in err
    assert not (out / "morse.json").exists()
    assert not (out / "morse.csv").exists()


def test_profile_failing_its_checks_publishes_nothing(tmp_path, monkeypatch,
                                                      capsys):
    # every solved profile passes validate_profile before any stage reads it
    real = cli.solve_nodal_power

    def one_sign_flipped(*args, **kwargs):
        prof = real(*args, **kwargs)
        values = prof.values.copy()
        i = np.searchsorted(prof.grid, 0.1)  # inside the positive zone
        values[i] = -values[i]
        return dataclasses.replace(prof, values=values)

    monkeypatch.setattr(cli, "solve_nodal_power", one_sign_flipped)
    for command in ("solve", "morse"):
        out = tmp_path / command
        assert run([command] + REFERENCE + ["--out", out]) == 3
        assert "sign error inside nodal zone 0" in capsys.readouterr().err
        assert not list(out.glob("profile.*"))
        assert not list(out.glob("morse.*"))
        assert not list(out.glob("cache/*"))


def _cache_files(out):
    return {p.name: p.stat().st_mtime_ns for p in out.glob("cache/*")}


def test_cold_morse_caches_the_standard_count_only(tmp_path, monkeypatch):
    calls = []
    real = cli.solve_standard_spectrum

    def recorded(prob, k, cfg):
        calls.append(k)
        return real(prob, k, cfg)

    monkeypatch.setattr(cli, "solve_standard_spectrum", recorded)
    out = tmp_path / "m"
    args = ["morse"] + REFERENCE + ["--out", out]
    assert run(args) == 0
    assert calls == [0]
    (entry,) = out.glob("cache/standard-*.json")
    doc = json.loads(entry.read_text())
    assert doc["eigenvalues"] == []
    assert doc["negative_count"] == 2
    assert doc["meta"]["zero_band_count"] == 0
    # a warm rerun reads both spectra and writes no cache file
    first = _cache_files(out)
    monkeypatch.setattr(cli, "solve_standard_spectrum", _refuse)
    monkeypatch.setattr(cli, "solve_singular_spectrum", _refuse)
    assert run(args) == 0
    assert _cache_files(out) == first


def test_spectrum_after_morse_publishes_the_standard_values(tmp_path):
    fresh = tmp_path / "fresh"
    assert run(["spectrum"] + REFERENCE + ["--out", fresh]) == 0
    out = tmp_path / "m"
    assert run(["morse"] + REFERENCE + ["--out", out]) == 0
    assert run(["spectrum"] + REFERENCE + ["--out", out]) == 0
    for kind in ("singular", "standard"):
        name = f"spectrum_{kind}.json"
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    doc = json.loads((out / "spectrum_standard.json").read_text())
    assert len(doc["eigenvalues"]) == 6            # max(k, m + 2)
    assert len(list(out.glob("cache/standard-*.json"))) == 2


def test_spectrum_after_morse_publishes_the_eigenfunction(tmp_path):
    fresh = tmp_path / "fresh"
    assert run(["spectrum"] + REFERENCE + ["--out", fresh]) == 0
    out = tmp_path / "m"
    assert run(["morse"] + REFERENCE + ["--out", out]) == 0
    assert run(["spectrum"] + REFERENCE + ["--out", out]) == 0
    name = "eigenfunction_1.csv"
    assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_spectrum_refuses_a_cached_entry_its_solve_disagrees_with(
        tmp_path, capsys):
    out = tmp_path / "s"
    args = ["spectrum"] + REFERENCE + ["--out", out]
    assert run(args) == 0
    (entry,) = out.glob("cache/singular-*.json")
    doc = json.loads(entry.read_text())
    doc["eigenvalues"][0]["value"] *= 1.5
    entry.write_text(json.dumps(doc))
    published = sorted(out.glob("*.*"))
    for path in published:
        path.unlink()
    assert run(args) == 3
    assert "differ from the cached" in capsys.readouterr().err
    assert not any(path.exists() for path in published)


def test_morse_after_spectrum_matches_a_fresh_morse(tmp_path):
    fresh = tmp_path / "fresh"
    assert run(["morse"] + REFERENCE + ["--out", fresh]) == 0
    out = tmp_path / "s"
    assert run(["spectrum"] + REFERENCE + ["--out", out]) == 0
    assert run(["morse"] + REFERENCE + ["--out", out]) == 0
    for name in REPORT:
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_in_process_reuse_leaves_no_state_behind(tmp_path, capsys):
    # one process, one parser: a refused call between two runs changes
    # nothing the second run writes
    first, last = tmp_path / "first", tmp_path / "last"
    assert run(["morse"] + REFERENCE + ["--k", 3, "--out", first]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["sweep"] + REFERENCE + ["--out", tmp_path / "sw"])
    assert exc.value.code == 2
    assert run(["morse"] + REFERENCE + ["--p", "inf", "--out",
                                        tmp_path / "inf"]) == 2
    assert run(["morse"] + REFERENCE + ["--k", 3, "--out", last]) == 0
    capsys.readouterr()
    for name in REPORT:
        assert (last / name).read_bytes() == (first / name).read_bytes()


SHARED_OPTIONS = ["--config", "--N", "--alpha", "--p", "--m", "--k", "--grid",
                  "--xmax", "--tol", "--out", "--workers", "--symmetry",
                  "--a-zero", "--oracle-n", "--oracle-tol", "--epsilon-cut"]


def test_help_lists_the_shared_options_in_order(capsys):
    for command in ("solve", "spectrum", "morse", "oracle", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)",
                            capsys.readouterr().out, re.M)
        extra = ["--axis", "--range", "--steps"] if command == "sweep" else []
        assert listed == ["--help"] + SHARED_OPTIONS + extra, command
