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
import scipy

from henonmorse import cli, oracle, spectral
from henonmorse.cli import RunConfig, main
from henonmorse.spectral import SpectralError, theta_analytic


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
    assert FLOAT_FIELDS == ["alpha", "p", "xmax", "tol", "oracle_tol"]
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


def test_flags_parse_as_config_values(tmp_path, capsys):
    # one parser for both sources: an integral float fills an int field,
    # and a flag that does not parse is a config error naming its field
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 3.0}))
    by_file, by_flag = tmp_path / "file", tmp_path / "flag"
    assert run(["solve", "--config", cfg, "--out", by_file]) == 0
    assert run(["solve", "--N", "3.0", "--out", by_flag]) == 0
    for name in ("profile.csv", "profile.json"):
        assert (by_flag / name).read_bytes() == (by_file / name).read_bytes()
    assert run(["morse", "--k", "x", "--out", tmp_path / "k"]) == 2
    assert "field 'k': cannot parse 'x'" in capsys.readouterr().err
    assert not (tmp_path / "k").exists()


def test_sweep_steps_parse_as_an_int_field(tmp_path, capsys):
    # --steps goes through the fields' parser: an integral float is that
    # int, and text that is not one exits 2 naming steps
    out = tmp_path / "integral"
    assert run(["sweep", "--N", 3, "--m", 1, "--axis", "p", "--range", "2:3",
                "--steps", "2.0", "--out", out]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 3
    for text in ("x", "2.5", "-1"):
        out = tmp_path / text
        assert run(["sweep", "--N", 3, "--m", 1, "--axis", "p",
                    "--range", "2:3", "--steps", text, "--out", out]) == 2
        assert "field 'steps'" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_ignores_the_base_value_of_its_axis(tmp_path):
    # every swept configuration replaces the axis field, so a base value
    # outside its domain, from a flag or from the file, is never solved
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5}))
    for i, (base, axis, rng) in enumerate((
            (["--p", 0.5], "p", "2:3"), (["--config", cfg], "p", "2:3"),
            (["--alpha", -1], "alpha", "0:1"))):
        out = tmp_path / str(i)
        assert run(["sweep", "--N", 3, "--m", 1] + base
                   + ["--axis", axis, "--range", rng, "--steps", 2,
                      "--out", out]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == [axis] + rng.split(":")


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


def test_spectrum_publishes_the_analytic_vanishing_rate(tmp_path):
    # theta_analytic(value, M) with each negative singular value, null with
    # every other value and throughout the standard spectrum, whether the
    # spectrum was solved or read from the cache
    out = tmp_path / "t"
    args = ["spectrum", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
            "--out", out]
    for _ in range(2):
        assert run(args) == 0
        sing = json.loads((out / "spectrum_singular.json").read_text())
        std = json.loads((out / "spectrum_standard.json").read_text())
        got = [e["theta_analytic"] for e in sing["eigenvalues"]]
        values = [e["value"] for e in sing["eigenvalues"]]
        assert got == [theta_analytic(v, sing["M"]) if v < 0 else None
                       for v in values]
        assert min(values) < 0 <= max(values)
        assert [e["theta_analytic"] for e in std["eigenvalues"]] \
            == [None] * len(std["eigenvalues"]) != []


def test_spectrum_a_zero_override(tmp_path):
    out = tmp_path / "z"
    assert run(["spectrum", "--N", 5, "--alpha", 1, "--p", 2.2, "--m", 1,
                "--a-zero", "--out", out]) == 0
    doc = json.loads((out / "spectrum_singular.json").read_text())
    assert doc["eigenvalues"] == []
    assert doc["negative_count"] == 0


def test_spectrum_without_pairs_leaves_no_earlier_eigenfunction(tmp_path):
    out = tmp_path / "s"
    assert run(["spectrum"] + REFERENCE + ["--out", out]) == 0
    assert run(["spectrum"] + REFERENCE + ["--a-zero", "--out", out]) == 0
    doc = json.loads((out / "spectrum_singular.json").read_text())
    assert doc["eigenvalues"] == []
    assert (out / "eigenfunction_1.csv").read_bytes() == b"r,psi\r\n"


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


@pytest.mark.parametrize("grid", [128, 256, 512])
def test_morse_on_a_coarse_grid_refines_the_singular_kind(tmp_path, grid):
    # a Richardson bar fails on these grids at the reference point: the
    # singular kind halves h, as the standard kind does, until the bars
    # pass at n = 1024, and publishes the values --grid 1024 gives
    def singular(out):
        entry, = (out / "cache").glob("singular-*.json")
        doc = json.loads(entry.read_text())
        return doc["meta"]["n"], [e["value"] for e in doc["eigenvalues"]]

    args = ["morse", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2, "--out"]
    assert run(args + [tmp_path / "1024", "--grid", 1024]) == 0
    assert run(args + [tmp_path / "coarse", "--grid", grid]) == 0
    n, values = singular(tmp_path / "coarse")
    n_ref, ref = singular(tmp_path / "1024")
    assert n == n_ref == 1024
    np.testing.assert_allclose(values, ref, rtol=1e-13)
    assert np.round(values, 7).tolist() == [-8.5543113, -1.9854539, 0.2467585]
    doc = json.loads((tmp_path / "coarse" / "morse.json").read_text())
    assert doc["radial_morse"] == 2 and doc["total"] == 10


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
            raise SpectralError("LAPACK dgttrf failed with info=1")
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


def test_a_singular_pair_that_does_not_settle_exits_3(tmp_path, monkeypatch,
                                                      capsys):
    # residuals that stay above BRACKET through two rounds: the singular
    # solve refuses the pair, and nothing is published or cached
    real = spectral.residual_norms

    def unsettled(d, e, vecs, values, corners=0.0):
        return real(d, e, vecs, values, corners) + 1.0

    monkeypatch.setattr(spectral, "residual_norms", unsettled)
    out = tmp_path / "fail"
    assert run(["morse", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--out", out]) == 3
    assert "not settled" in capsys.readouterr().err
    assert not (out / "morse.json").exists()
    assert not list(out.glob("cache/singular-*.json"))


def test_xmax_whose_grid_step_squares_to_zero_exits_3(tmp_path, capsys):
    # the Liouville grid refuses a step that squares to 0 instead of
    # dividing by it, with the potential and without
    for extra in ([], ["--a-zero"]):
        out = tmp_path / f"x{len(extra)}"
        assert run(["morse", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                    "--xmax", "1e-160", "--out", out] + extra) == 3
        assert "solver failure: x_max=1e-160" in capsys.readouterr().err
        assert not (out / "morse.json").exists()


def test_xmax_whose_standard_grid_overflows_exits_3(tmp_path, capsys):
    # the standard kind's scaled off-diagonal squares past the float range
    out = tmp_path / "x"
    assert run(["morse", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--xmax", 200, "--grid", 65536, "--out", out]) == 3
    assert ("solver failure: x_max=200 over n=65536 cells: the squared "
            "off-diagonal of the standard kind overflows"
            in capsys.readouterr().err)
    assert not (out / "morse.json").exists()


def test_near_linear_p_whose_rescaling_overflows_exits_3(tmp_path, capsys):
    # T_1^(2/(p-1)) leaves the float range below about p = 1.0032: one line
    # names the overflow, with no numpy warning before it
    for N, t_1 in ((3, "3.14336"), (2, "2.40574")):
        out = tmp_path / f"N{N}"
        assert run(["morse", "--N", N, "--alpha", 0, "--p", 1.002, "--m", 1,
                    "--out", out]) == 3
        assert capsys.readouterr().err == (
            "solver failure: rescaling by T_m^(2/(p-1)) overflows a float "
            f"(T_m={t_1}, p=1.002)\n")
        assert not (out / "morse.json").exists()
    assert run(["morse", "--N", 3, "--alpha", 0, "--p", 1.004, "--m", 1,
                "--out", tmp_path / "p1.004"]) == 0
    assert "total=1 " in capsys.readouterr().out


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
    assert _failed_rows(out) == 2 * [
        "nan,nan,nan,nan,nan,solver failure: singular negative count 0 "
        "differs from m=2"]


def _failed_rows(out):
    """sweep.csv's rows less their axis values."""
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    return [row.split(",", 1)[1] for row in rows]


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


def _files(out):
    return {path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def _set(*keys, value):
    """An edit of a cache entry: the field at the path keys set to value."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def test_unreadable_cache_entry_is_recomputed(tmp_path):
    # a cut-off entry, and entries with a field missing, extra or of
    # another JSON type than the one written (a bool is not a number), or
    # of another kind or M than the one asked for, fail their digest and
    # are recomputed and rewritten: every file as a fresh run writes it
    out = tmp_path / "c"
    args = ["morse"] + REFERENCE + ["--out", out]
    assert run(args) == 0
    fresh = _files(out)
    (standard,) = out.glob("cache/standard-*.json")
    standard = json.loads(standard.read_text())
    spoiled = [
        ("singular", lambda doc: (doc.clear(), doc.update(standard))),
        ("singular", _set("M", value=4.0)),
        ("singular", _set("eigenvalues", 0, "value", value="-8.55")),
        ("singular", _set("negative_count", value=None)),
        ("singular", _set("negative_count", value=True)),
        ("singular", _set("M", value=True)),
        ("singular", _set("exhausted_below", value=0)),
        ("singular", _set("eigenvalues", 1, "nodes", value=1.0)),
        ("singular", _set("eigenvalues", value={})),
        ("singular", _set("meta", "zero_band_count", value="0")),
        ("singular", _set("meta", "stale", value=0)),
        ("singular", lambda doc: doc["meta"].pop("n")),
        ("standard", _set("meta", "resolution_capped", value=0)),
        ("standard", _set("threshold", value="inf")),
    ]
    for kind, edit in [("singular", None)] + spoiled:
        (entry,) = out.glob(f"cache/{kind}-*.json")
        if edit is None:
            entry.write_bytes(entry.read_bytes()[:100])
        else:
            doc = json.loads(entry.read_text())
            edit(doc)
            entry.write_text(json.dumps(doc))
        assert run(args) == 0
        assert _files(out) == fresh


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


def test_oracle_compares_the_pairs_its_cut_resolves(tmp_path):
    # at the reference point nu_3 = 0.2468 decays at kappa = 0.057 in
    # x = -ln r, slower than the oracle's cut resolves: nu_1 and nu_2 are
    # compared, and agree
    out = tmp_path / "reference"
    assert run(["oracle"] + REFERENCE + ["--out", out]) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert [c["index"] for c in doc["comparisons"]] == [1, 2]
    assert doc["unmatched"] == []
    # at the desk point nu_3 = 0.0091 decays at kappa = 0.49: it is
    # compared, and the oracle's own grid error there exceeds the tolerance
    out = tmp_path / "desk"
    assert run(["oracle", "--N", 3, "--alpha", 0, "--p", 4.9, "--m", 2,
                "--out", out]) == 4
    doc = json.loads((out / "oracle.json").read_text())
    third = doc["comparisons"][2]
    assert third["index"] == 3
    assert third["rel_diff"] == pytest.approx(6.7e-3, rel=0.05)
    assert doc["worst_rel_diff"] == third["rel_diff"]


def test_oracle_missing_a_certified_eigenvalue_exits_4(tmp_path,
                                                       monkeypatch):
    # an oracle that keeps only the first bound state leaves the solver's
    # certified nu_2 without a partner
    def first_only(prob):
        spec = oracle.dense_oracle_spectrum(prob)
        return dataclasses.replace(spec, eigenpairs=spec.eigenpairs[:1],
                                   negative_count=1)

    monkeypatch.setattr(cli, "dense_oracle_spectrum", first_only)
    out = tmp_path / "cut"
    assert run(["oracle", "--N", 3, "--alpha", 0, "--p", 3, "--m", 2,
                "--k", 4, "--out", out]) == 4
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


def test_oracle_guard_refused(tmp_path, capsys):
    # the oracle's grid is fixed: no flag or config field sets it
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run(["oracle", "--N", 3, "--alpha", 0, "--p", 3, "--m", 1,
             "--oracle-n", 2000, "--out", out])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    for name, value in (("oracle_n", 2000), ("epsilon_cut", 1e-10)):
        cfg.write_text(json.dumps({name: value}))
        assert run(["oracle", "--config", cfg, "--out", out]) == 2
        assert f"unknown config field '{name}'" in capsys.readouterr().err
    assert not out.exists()


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
    # the scan for missing points reads no entry, and each row reads its
    # own
    reads = []
    real = cli._read_spectrum

    def counted(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(cli, "_read_spectrum", counted)
    assert run(args) == 0
    assert (out / "sweep.csv").read_bytes() == first
    assert len(reads) == len(set(reads)) == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_sweep_point_is_a_row(tmp_path, monkeypatch, capsys,
                                        workers):
    # p = 2.6 fails in its profile; the pool's workers are forked from this
    # process and inherit the patch
    clean = tmp_path / "clean"
    assert run(SWEEP + ["--out", clean]) == 0
    real = cli.solve_nodal_power

    def failing(M, p, m):
        if p == 2.6:
            raise cli.IntegrationError("injected failure")
        return real(M, p, m)

    monkeypatch.setattr(cli, "solve_nodal_power", failing)
    out = tmp_path / "sw"
    capsys.readouterr()
    assert run(SWEEP + ["--workers", workers, "--out", out]) == 3
    assert capsys.readouterr().err == \
        "p=2.6: solver failure: injected failure\n"
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    assert header == ("p,nu_hat_1,nu_hat_2,total,bound_general,bound_f3,"
                      "status")
    assert rows[1] == ("2.6000000000000001,nan,nan,nan,nan,nan,"
                       "solver failure: injected failure")
    ok = (clean / "sweep.csv").read_text().splitlines()
    assert [rows[0], rows[2]] == [ok[1], ok[3]]
    assert rows[0].endswith(",ok")
    # the failed point left no cache entry, and a rerun solves it again
    assert len(list(out.glob("cache/singular-*.json"))) == 2
    monkeypatch.setattr(cli, "solve_nodal_power", real)
    assert run(SWEEP + ["--workers", workers, "--out", out]) == 0
    assert (out / "sweep.csv").read_text() == (clean / "sweep.csv").read_text()


def test_the_planar_sweep_keeps_the_points_that_solve(tmp_path, capsys):
    # the profile's second zero lies past t_max = 1e10 from p = 60 on (7.3e11
    # at p = 60); the points below still publish their rows
    out = tmp_path / "planar"
    assert run(["sweep", "--N", 2, "--m", 2, "--axis", "p", "--range",
                "20:120", "--steps", 6, "--workers", 2, "--out", out]) == 3
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == ["20", "40", "60", "80", "100", "120"]
    assert [r[-1] for r in rows[:2]] == ["ok", "ok"]
    assert [r[3] for r in rows[:2]] == ["10", "12"]
    for r in rows[2:]:
        assert r[1:-1] == ["nan"] * 5
        assert r[-1] == "solver failure: zero #2 not found before t_max=1e+10"
    assert len(capsys.readouterr().err.splitlines()) == 4


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
    # and the spectral grid memo carries nothing from one run into the next
    for name in REPORT:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_a_spectrum_morse_cannot_count_exits_3(tmp_path, capsys):
    # k = 1 holds one of the two negative pairs; no report is written
    out = tmp_path / "k1"
    assert run(["morse"] + REFERENCE + ["--k", 1, "--out", out]) == 3
    assert "request k >= negative_count" in capsys.readouterr().err
    assert not list(out.glob("morse.*"))
    assert run(["sweep", "--N", 3, "--alpha", 0, "--m", 2, "--k", 1,
                "--axis", "p", "--range", "2.2:3.0", "--steps", 2,
                "--out", out]) == 3
    assert "request k >= negative_count" in capsys.readouterr().err
    for row in _failed_rows(out):
        assert row.startswith("nan,nan,nan,nan,nan,solver failure: ")
        assert "request k >= negative_count" in row


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


def test_eigenfunction_file_ignores_the_sign_of_the_solver_vectors(
        tmp_path, monkeypatch):
    # the sign is set before the zero end r = 1 is placed, so it prints 0,
    # never -0, whichever sign inverse iteration returns
    args = ["spectrum", "--N", 2, "--alpha", 1, "--p", 3, "--m", 2]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    real = spectral._eigenpairs

    def negated(prob, grid, values, bars, vecs, tail=None):
        return real(prob, grid, values, bars, -vecs, tail)

    monkeypatch.setattr(spectral, "_eigenpairs", negated)
    assert run(args + ["--out", tmp_path / "b"]) == 0
    name = "eigenfunction_1.csv"
    first = (tmp_path / "a" / name).read_bytes()
    assert first == (tmp_path / "b" / name).read_bytes()
    assert first.endswith(b"\r\n1,0\r\n")
    assert b"-0\r\n" not in first


def test_spectrum_recomputes_an_entry_of_the_previous_revision(
        tmp_path, monkeypatch):
    # entries the previous solver code wrote, whole and with their digests,
    # whose standard values differ from today's in the last digit, are
    # misses: the warm run solves and caches again, where serving the
    # standard entry would publish the stale values
    fresh = tmp_path / "fresh"
    assert run(["spectrum"] + REFERENCE + ["--out", fresh]) == 0
    real = cli.solve_standard_spectrum

    def previous(prob, k, cfg):
        spec = real(prob, k, cfg)
        first, *rest = spec.eigenpairs
        first = dataclasses.replace(
            first, value=float(np.nextafter(first.value, np.inf)))
        return dataclasses.replace(spec, eigenpairs=(first, *rest))

    out = tmp_path / "s"
    args = ["spectrum"] + REFERENCE + ["--out", out]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_code_digest", lambda: "previous code")
        patch.setattr(cli, "solve_standard_spectrum", previous)
        assert run(args) == 0
    assert (out / "spectrum_standard.json").read_bytes() != \
        (fresh / "spectrum_standard.json").read_bytes()
    assert run(args) == 0
    for kind in ("singular", "standard"):
        assert len(list(out.glob(f"cache/{kind}-*.json"))) == 2

    def published(d):
        return {k: v for k, v in _files(d).items() if k.parts[0] != "cache"}
    assert published(out) == published(fresh)


def test_entry_copied_over_another_key_is_recomputed(tmp_path):
    # p = 3 and p = 2.2 share M: the p = 3 singular entry copied over the
    # p = 2.2 one fails its digest, which covers the file name, so the run
    # publishes p = 2.2's values and puts its entry back
    args = ["morse", "--N", 3, "--alpha", 0, "--p", 2.2, "--m", 2]
    fresh = tmp_path / "fresh"
    assert run(args + ["--out", fresh]) == 0
    donor = tmp_path / "donor"
    assert run(["morse"] + REFERENCE + ["--out", donor]) == 0
    out = tmp_path / "m"
    assert run(args + ["--out", out]) == 0
    (entry,) = out.glob("cache/singular-*.json")
    (planted,) = donor.glob("cache/singular-*.json")
    entry.write_bytes(planted.read_bytes())
    assert run(args + ["--out", out]) == 0
    assert _files(out) == _files(fresh)


def test_an_entry_with_a_new_meta_field_is_served(tmp_path, monkeypatch):
    # the cache holds whatever the solver puts in meta: an entry whose meta
    # carries a key no earlier code wrote is read back as it was written
    real = cli.solve_singular_spectrum

    def extended(prob, k, cfg):
        spec = real(prob, k, cfg)
        return dataclasses.replace(spec, meta=dict(spec.meta, novel=[1.5]))

    out = tmp_path / "m"
    args = ["morse"] + REFERENCE + ["--out", out]
    monkeypatch.setattr(cli, "solve_singular_spectrum", extended)
    assert run(args) == 0
    first = _files(out)
    (entry,) = out.glob("cache/singular-*.json")
    assert json.loads(entry.read_text())["meta"]["novel"] == [1.5]
    monkeypatch.setattr(cli, "solve_singular_spectrum", _refuse)
    assert run(args) == 0
    assert _files(out) == first


@pytest.mark.parametrize("module", [np, scipy])
def test_a_numpy_or_scipy_upgrade_moves_every_cache_key(monkeypatch,
                                                        module):
    pipe = cli.Pipeline(RunConfig())
    before = pipe.entry("singular", 6)
    monkeypatch.setattr(module, "__version__", module.__version__ + "+1")
    cli._code_digest.cache_clear()
    try:
        assert pipe.entry("singular", 6) != before
    finally:
        cli._code_digest.cache_clear()


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
                  "--a-zero", "--oracle-tol"]


def test_help_lists_the_shared_options_in_order(capsys):
    for command in ("solve", "spectrum", "morse", "oracle", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)",
                            capsys.readouterr().out, re.M)
        extra = ["--axis", "--range", "--steps"] if command == "sweep" else []
        assert listed == ["--help"] + SHARED_OPTIONS + extra, command
