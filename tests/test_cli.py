"""Manifest loading and command-line integration."""

import csv
import io
import os
import shutil

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import delaytrack as dt
from delaytrack import cli
from delaytrack.cli import (
    EXIT_CONFIG,
    EXIT_NO_RESULT,
    EXIT_OK,
    main,
    write_trajectory_csv,
)
from delaytrack.errors import ManifestError
from delaytrack.manifest import InitSettings, load_manifest, write_model_bundle

from conftest import FIXTURES, HAYES_PRINCIPAL

HAYES = os.path.join(FIXTURES, "hayes", "manifest.ini")
QUADRATIC = os.path.join(FIXTURES, "quadratic", "manifest.ini")

WAMS_SPEC = dt.WamsSpec(tau0=0.05, p_dr=0.2, T=0.02, alpha=5e-3, b=2.0)
A0_SNAP0 = [[-1.0, 0.0], [0.0, -2.0]]
A0_SNAP2 = [[-3.0, 4.0], [0.0, -6.0]]


def write_matrices(directory, mats):
    """Write each named matrix to ``directory``/NAME.mtx."""
    os.makedirs(directory, exist_ok=True)
    for name, mat in mats.items():
        scipy.io.mmwrite(
            os.path.join(directory, f"{name}.mtx"),
            sp.coo_array(np.asarray(mat, dtype=float)),
            field="real", symmetry="general",
        )


def write_wams_bundle(directory):
    """The WAMS demo model as a manifest: delayed rate feedback whose gain
    drifts with p, its one delay shaped by ``WAMS_SPEC``."""
    A1 = np.array([[0.0, 0.0], [0.0, -0.8]])
    write_matrices(directory, {
        "E": np.eye(2), "A0": [[0.0, 1.0], [-4.0, -0.4]], "A1": A1,
        "A1_slope": 0.5 * A1,
    })
    path = os.path.join(directory, "manifest.ini")
    with open(path, "w") as fh:
        fh.write(
            "format_version = 2\n"
            "[model]\nr = 2\nkind = affine\nE = E.mtx\nA0 = A0.mtx\n"
            "delays = 0.05\nA1 = A1.mtx\nA1_slope = A1_slope.mtx\n"
            "p_min = 0.0\np_max = 1.0\n"
            "[wams]\ntau0 = 0.05\np_dr = 0.2\nT = 0.02\nalpha = 5e-3\n"
            "b = 2.0\n"
            "[track]\ndp = 0.002\n"
            "[init]\nN = 12\nshift = 2j\ncount = 4\n"
        )
    return path


def write_tabulated_bundle(directory, snapshots):
    """A delay-free tabulated family with one [snapshot.K] per (p, A0)."""
    write_matrices(directory, {"E": np.eye(2)})
    text = ("format_version = 2\n[model]\nr = 2\nkind = tabulated\n"
            "delays =\np_min = 0.0\np_max = 2.0\n")
    for k, (p, A0) in enumerate(snapshots):
        write_matrices(directory, {f"A0_{k}": A0})
        text += f"[snapshot.{k}]\np = {p}\nE = E.mtx\nA0 = A0_{k}.mtx\n"
    path = os.path.join(directory, "manifest.ini")
    with open(path, "w") as fh:
        fh.write(text)
    return path


class TestLoadManifest:
    def test_hayes_fixture_is_delay_parameter_family(self):
        man = load_manifest(HAYES)
        assert isinstance(man.family, dt.DelayParameterFamily)
        assert man.r == 1
        assert man.track.regime == "delay_param"
        assert man.family.split_form(1.0).dtaus == (1.0,)
        assert man.init.N == 16
        assert man.p_init == 1.0
        model = man.family.evaluate(1.0)
        assert model.taus == (1.0,)

    def test_quadratic_fixture_is_affine(self):
        man = load_manifest(QUADRATIC)
        assert isinstance(man.family, dt.AffineFamily)
        assert man.track.regime == "multi"
        d = man.family.derivative(0.5)
        assert d.dA0.toarray()[1, 1] == -1.0

    def test_dimension_mismatch_reported(self, tmp_path):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        text = (tmp_path / "m" / "manifest.ini").read_text()
        (tmp_path / "m" / "manifest.ini").write_text(
            text.replace("r = 1", "r = 3")
        )
        with pytest.raises(ManifestError) as info:
            load_manifest(tmp_path / "m" / "manifest.ini")
        assert info.value.code == "dimension-mismatch"
        assert info.value.line is not None

    def test_missing_matrix_file_reported(self, tmp_path):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        os.remove(tmp_path / "m" / "A1.mtx")
        with pytest.raises(ManifestError) as info:
            load_manifest(tmp_path / "m" / "manifest.ini")
        assert info.value.code == "missing-file"

    def test_malformed_matrix_reported(self, tmp_path):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        (tmp_path / "m" / "A1.mtx").write_text("not a matrix market file\n")
        with pytest.raises(ManifestError) as info:
            load_manifest(tmp_path / "m" / "manifest.ini")
        assert info.value.code == "malformed-matrix"

    @pytest.mark.parametrize("old, new, code", [
        ("corrector_every = 10", "corector_every = 3", "unknown-key"),
        ("p_max = 2.5", "p_max = 2.5\nfd_step = 1e-6", "unknown-key"),
        ("[init]", "[intt]", "unknown-section"),
    ], ids=["misspelt-key", "leftover-fd_step", "misspelt-section"])
    def test_unread_name_reported(self, tmp_path, old, new, code):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        path = tmp_path / "m" / "manifest.ini"
        text = path.read_text().replace(old, new)
        path.write_text(text)
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == code
        bad = new.splitlines()[-1]
        assert info.value.line == text.splitlines().index(bad) + 1

    def test_unknown_method_reported(self, tmp_path):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        path = tmp_path / "m" / "manifest.ini"
        text = path.read_text()
        path.write_text(text.replace("method = euler", "method = midpoint"))
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == "bad-track-options"
        method_line = 1 + text.splitlines().index("method = euler")
        assert info.value.line == method_line

    def test_bundle_keeps_its_delay_index(self, tmp_path):
        model = dt.DelayedLinearModel(
            np.eye(2), -np.eye(2), [(0.5, 0.1 * np.eye(2)), (1.0, np.eye(2))]
        )
        path = write_model_bundle(model, tmp_path, (0.5, 2.0), delay_index=1)
        man = load_manifest(path)
        assert man.family.split_form(1.0).dtaus == (0.0, 1.0)
        assert man.track.regime == "delay_param"

    def test_wams_section_sets_the_regime(self, tmp_path):
        path = write_wams_bundle(tmp_path)
        man = load_manifest(path)
        assert isinstance(man.family, dt.AffineFamily)
        assert man.track.regime == "wams"
        assert man.track.wams == WAMS_SPEC

    def test_wams_section_on_a_delay_family_rejected(self, tmp_path):
        # the Hayes family varies its only delay, which WAMS cannot shape
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        path = tmp_path / "m" / "manifest.ini"
        text = path.read_text().replace("[track]",
                                        "[wams]\ntau0 = 1.0\n\n[track]")
        path.write_text(text)
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == "bad-wams"
        assert info.value.line == text.splitlines().index("[wams]") + 1

    def test_format_version_1_rejected(self, tmp_path):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        path = tmp_path / "m" / "manifest.ini"
        path.write_text(path.read_text().replace("format_version = 2",
                                                 "format_version = 1"))
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == "bad-version"

    def test_tabulated_family_interpolates_snapshots(self, tmp_path):
        path = write_tabulated_bundle(tmp_path, [(0.0, A0_SNAP0),
                                                 (2.0, A0_SNAP2)])
        man = load_manifest(path)
        assert isinstance(man.family, dt.TabulatedFamily)
        assert man.track.regime == "multi"
        model = man.family.evaluate(0.5)
        # a quarter of the way from the p = 0 snapshot to the p = 2 one
        assert np.array_equal(model.A0.toarray(),
                              [[-1.5, 1.0], [0.0, -3.0]])
        assert np.array_equal(model.E.toarray(), np.eye(2))

    def test_tabulated_family_needs_two_snapshots(self, tmp_path):
        path = write_tabulated_bundle(tmp_path, [(0.0, A0_SNAP0)])
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == "missing-snapshots"

    def test_tabulated_range_past_the_snapshots_exit_code(self, tmp_path,
                                                           capsys):
        # the bundle's range is [0, 2]; P is only tabulated on [0, 1]
        path = write_tabulated_bundle(tmp_path, [(0.0, A0_SNAP0),
                                                 (1.0, A0_SNAP2)])
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        with open(path) as fh:
            line = fh.read().splitlines().index("p_max = 2.0") + 1
        assert info.value.code == "bad-range" and info.value.line == line
        assert main(["track", path]) == EXIT_CONFIG
        assert f"{path}:{line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["affine", "tabulated"])
    def test_mass_on_an_algebraic_state_exit_code(self, tmp_path, capsys,
                                                  kind):
        # r = 2 with E = I declares one algebraic state (n_dyn = 1) that
        # still carries mass: every model the loader builds is validated
        if kind == "tabulated":
            path = write_tabulated_bundle(tmp_path, [(0.0, A0_SNAP0),
                                                     (2.0, A0_SNAP2)])
        else:
            write_matrices(tmp_path, {"E": np.eye(2), "A0": A0_SNAP0})
            path = tmp_path / "manifest.ini"
            path.write_text(
                "format_version = 2\n[model]\nr = 2\nkind = affine\n"
                "E = E.mtx\nA0 = A0.mtx\ndelays =\np_min = 0.0\n"
                "p_max = 1.0\n")
        with open(path) as fh:
            text = fh.read().replace("r = 2\n", "r = 2\nn_dyn = 1\n")
        with open(path, "w") as fh:
            fh.write(text)
        line = text.splitlines().index("n_dyn = 1") + 1
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == "bad-model" and info.value.line == line
        assert "algebraic columns 1..1" in str(info.value)
        assert main(["spectrum", str(path)]) == EXIT_CONFIG
        assert f"{path}:{line}: " in capsys.readouterr().err

    def test_two_snapshots_at_one_p_exit_code(self, tmp_path, capsys):
        path = write_tabulated_bundle(tmp_path, [
            (0.0, A0_SNAP0), (1.0, A0_SNAP0), (1.0, A0_SNAP2),
            (2.0, A0_SNAP2),
        ])
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        repeated = [k + 1 for k, line in enumerate(lines) if line == "p = 1.0"]
        assert info.value.code == "duplicate-snapshot"
        assert info.value.line == repeated[1]
        assert main(["spectrum", path, "--p", "1.0"]) == EXIT_CONFIG
        assert f"{path}:{repeated[1]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, code, anchored", [
        ("n_dyn = 1", "n_dyn = 1\ngarbage", "parse", True),
        ("n_dyn = 1", "n_dyn = 1\nr = 1", "parse", True),
        ("r = 1\n", "", "missing-key", False),
        ("r = 1", "r = two", "bad-value", True),
        ("delays = 1.0", "delays = 0.1, x", "bad-value", True),
        ("kind = delay_param", "kind = quadratic", "unknown-kind", True),
        ("delay_index = 0", "delay_index = 3", "bad-delay-index", True),
        ("p_min = 0.5", "p_min = 3.0", "bad-range", True),
        ("corrector_every = 10", "corrector_every = ten", "bad-value", True),
        ("shift = 1.3j", "shift = 1+", "bad-value", True),
        ("dp = 0.001", "dp = 0", "bad-track-options", True),
        ("corrector_tol = 1e-10", "corrector_tol = 0", "bad-track-options",
         True),
        ("corrector_every = 10", "corrector_every = -1",
         "bad-track-options", True),
        ("N = 16", "N = 1", "bad-degree", True),
    ], ids=["no-equals", "duplicate-key", "no-r", "r-not-int",
            "delays-not-reals", "unknown-kind", "delay-index-range",
            "empty-p-range",
            "corrector_every-not-int", "shift-not-complex", "dp-zero",
            "corrector_tol-zero", "corrector_every-negative",
            "degree-below-delays"])
    def test_rejected_manifest(self, tmp_path, old, new, code, anchored):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        path = tmp_path / "m" / "manifest.ini"
        lines = path.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith(old))
        lines[at] = lines[at].replace(old, new)
        path.write_text("".join(lines))
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == code
        # the last line the edit wrote is the one the error names
        bad = at + 1 + new.count("\n")
        assert info.value.line == (bad if anchored else None)

    @pytest.mark.parametrize("command", ["spectrum", "track"])
    @pytest.mark.parametrize("delays", ["0.0", "-1.0"])
    def test_nonpositive_delay_exit_code(self, tmp_path, capsys, command,
                                         delays):
        # the Hayes equation as an affine family with its delay fixed
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        path = tmp_path / "m" / "manifest.ini"
        text = (path.read_text().replace("kind = delay_param", "kind = affine")
                .replace("delay_index = 0\n", "")
                .replace("delays = 1.0", f"delays = {delays}"))
        path.write_text(text)
        line = text.splitlines().index(f"delays = {delays}") + 1
        assert main([command, str(path)]) == EXIT_CONFIG
        assert f"{path}:{line}: " in capsys.readouterr().err
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == "bad-delays" and info.value.line == line

    @pytest.mark.parametrize("delays", ["0.0", "-1.0"])
    def test_tabulated_nonpositive_delay_rejected(self, tmp_path, delays):
        write_matrices(tmp_path, {"E": np.eye(2), "A0": A0_SNAP0,
                                  "A1": np.eye(2)})
        text = ("format_version = 2\n[model]\nr = 2\nkind = tabulated\n"
                f"delays = {delays}\np_min = 0.0\np_max = 1.0\n")
        for k in range(2):
            text += (f"[snapshot.{k}]\np = {k}.0\nE = E.mtx\nA0 = A0.mtx\n"
                     "A1 = A1.mtx\n")
        path = tmp_path / "manifest.ini"
        path.write_text(text)
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == "bad-delays" and info.value.line == 5

    def test_missing_manifest_reported(self, tmp_path):
        with pytest.raises(ManifestError) as info:
            load_manifest(tmp_path / "absent.ini")
        assert info.value.code == "missing-file"
        assert info.value.line is None

    def test_absent_keys_keep_the_option_defaults(self, tmp_path):
        # a manifest without [track] and [init] settings gets the defaults
        # of TrackOptions and InitSettings; p_init and p_fin span the range
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        path = tmp_path / "m" / "manifest.ini"
        text = path.read_text()
        path.write_text(text[:text.index("[track]")])
        man = load_manifest(path)
        assert man.track == dt.TrackOptions(regime="delay_param", p_fin=2.5)
        assert man.init == InitSettings()
        assert man.p_init == 0.5

    def test_parse_error_carries_line(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("format_version = 1\n[model\n")
        with pytest.raises(ManifestError) as info:
            load_manifest(bad)
        assert info.value.code == "parse"
        assert info.value.line == 2


class TestTrajectoryCsv:
    def test_round_trip_scalars_and_events(self, hayes_family):
        model = hayes_family.evaluate(1.0)
        ref = dt.refine_newton(dt.split_form(model), -0.3 + 1.3j,
                               np.array([1.0 + 0j]))
        initial = dt.TrackState.from_eigenpair(1.0, ref.s, ref.phi)
        opts = dt.TrackOptions(
            dp=5e-3, corrector_every=10, regime="delay_param",
            p_fin=2.0,
        )
        traj = dt.track_run(hayes_family, initial, opts)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        buf.seek(0)
        header, *rows = csv.reader(buf)
        assert tuple(header) == cli.TRAJECTORY_HEADER
        assert len(rows) == len(traj.samples)
        for a, row in zip(traj.samples, rows):
            assert (a.p, a.s_r, a.s_i, a.residual) == tuple(
                float(v) for v in row[:4])
        back = [(kind, i) for i, row in enumerate(rows)
                for kind in filter(None, row[4].split(";"))]
        assert back == [(e.kind, e.index) for e in traj.events]

    def test_rfc4180_line_endings(self, hayes_family):
        model = hayes_family.evaluate(1.0)
        ref = dt.refine_newton(dt.split_form(model), -0.3 + 1.3j,
                               np.array([1.0 + 0j]))
        traj = dt.Trajectory(
            samples=[dt.TrackState.from_eigenpair(1.0, ref.s, ref.phi, 0.0)]
        )
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert "\r\n" in buf.getvalue()


class TestCommands:
    def test_spectrum_csv(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", HAYES, "--p", "1.0", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s_r,s_i,residual"
        s_r, s_i, res = (float(v) for v in lines[1].split(","))
        assert complex(s_r, abs(s_i)) == pytest.approx(HAYES_PRINCIPAL,
                                                       abs=1e-8)
        assert res < 1e-9

    def test_track_final_row_matches_oracle(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["track", HAYES, "--out", str(out)])
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "p,s_r,s_i,residual,event"
        last = rows[-1].split(",")
        assert float(last[0]) == 2.0
        tracked = complex(float(last[1]), float(last[2]))
        truth = dt.hayes_roots(0.0, -1.0, 2.0, count=2)
        best = min(truth, key=lambda z: abs(z - tracked))
        assert abs(tracked - best) < 1e-6

    def test_track_deterministic_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["track", HAYES, "--dp", "0.01", "--out", str(a)]) == 0
        assert main(["track", HAYES, "--dp", "0.01", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_track_svg_outputs(self, tmp_path):
        base = tmp_path / "plot"
        code = main([
            "track", HAYES, "--dp", "0.01", "--out",
            str(tmp_path / "t.csv"), "--svg", str(base),
        ])
        assert code == EXIT_OK
        locus = (tmp_path / "plot.rootlocus.svg").read_text()
        damping = (tmp_path / "plot.damping.svg").read_text()
        assert locus.startswith("<svg") and "polyline" in locus
        assert damping.startswith("<svg") and "polyline" in damping

    def test_margin_prints_half_pi(self, tmp_path):
        out = tmp_path / "margin.csv"
        code = main(["margin", HAYES, "--out", str(out)])
        assert code == EXIT_OK
        p_star, s_i = (float(v) for v in
                       out.read_text().strip().split(","))
        assert p_star == pytest.approx(np.pi / 2, abs=1e-6)
        assert abs(abs(s_i) - 1.0) < 1e-6

    def test_margin_without_crossing_exits_one(self, tmp_path):
        code = main([
            "margin", HAYES, "--p-fin", "1.2",
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == EXIT_NO_RESULT

    def test_validate_quadratic_family(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "validate", QUADRATIC, "--checkpoints", "11",
            "--pass-tol", "1e-6", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 12  # header + 11 checkpoints
        dists = [float(r.split(",")[-1]) for r in rows[1:]]
        assert max(dists) < 1e-6

    def test_leftover_regime_section_exit_code(self, tmp_path):
        # a version-1 manifest, and one that keeps its [regime] section
        # under version 2, are both configuration errors
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        path = tmp_path / "m" / "manifest.ini"
        text = path.read_text().replace(
            "[track]", "[regime]\nkind = delay_param\ndelay_index = 0\n\n"
            "[track]")
        for version in ("1", "2"):
            path.write_text(text.replace("format_version = 2",
                                         f"format_version = {version}"))
            assert main(["spectrum", str(path)]) == EXIT_CONFIG

    def test_spectrum_of_a_wams_manifest(self, tmp_path):
        path = write_wams_bundle(tmp_path)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", str(path), "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        man = load_manifest(path)
        pairs = dt.spectrum_at(man.family, man.p_init, N=12, shift=2j,
                               count=4, wams=WAMS_SPEC)
        assert pairs
        assert [[float(v) for v in row.split(",")] for row in rows] == [
            [e.s.real, e.s.imag, e.residual] for e in pairs
        ]

    def test_gen_bundle_loads_and_solves(self, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        code = main([
            "gen", "--r", "12", "--density", "0.2", "--mu", "2",
            "--seed", "5", "--out-dir", str(out_dir),
        ])
        assert code == EXIT_OK
        man = load_manifest(out_dir / "manifest.ini")
        assert man.r == 12
        model = man.family.evaluate(man.p_init)
        assert dt.validate_model(model) == []
        code = main([
            "spectrum", str(out_dir / "manifest.ini"),
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "s.csv").read_bytes().count(b"\r\n") >= 2

    def test_gen_deterministic(self, tmp_path):
        for name in ("x", "y"):
            main([
                "gen", "--r", "8", "--density", "0.3", "--mu", "1",
                "--seed", "9", "--out-dir", str(tmp_path / name),
            ])
        for fname in ("manifest.ini", "E.mtx", "A0.mtx", "A1.mtx"):
            assert (tmp_path / "x" / fname).read_bytes() == \
                (tmp_path / "y" / fname).read_bytes()

    def test_p_fin_outside_the_range_exit_code(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["track", HAYES, "--p-fin", "99", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "outside family range" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_dp_flag_exit_code(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["track", HAYES, "--dp", "0", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "dp=0.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--r", "40", "--density", "0"],
        ["gen", "--r", "40", "--n-dyn", "50"],
        ["gen", "--r", "0"],
        ["gen", "--r", "40", "--mu", "-1"],
        ["gen", "--r", "40", "--N", "1"],
        ["validate", QUADRATIC, "--checkpoints", "0"],
        ["validate", QUADRATIC, "--checkpoints", "-3"],
    ], ids=["density-zero", "n_dyn-above-r", "r-zero", "mu-negative",
            "degree-below-delays", "checkpoints-zero",
            "checkpoints-negative"])
    def test_bad_argument_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "bundle"
        if argv[0] == "gen":
            argv = argv + ["--out-dir", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_gen_degree_error_is_the_discretize_error(self, tmp_path,
                                                      capsys):
        assert main(["gen", "--r", "40", "--N", "1",
                     "--out-dir", str(tmp_path / "b")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        form = dt.split_form(dt.rand_ddae(4, 3, 0.5, 1, 0))
        with pytest.raises(dt.ConfigurationError) as info:
            dt.discretize(form, 1)
        assert err == f"error: {info.value}\n"
        assert not (tmp_path / "b").exists()

    def test_validate_rejects_checkpoints_before_the_sweep(self, monkeypatch,
                                                           capsys):
        def sweep(*args, **kwargs):
            raise AssertionError("validate swept before checking its "
                                 "arguments")

        monkeypatch.setattr(cli, "track_run", sweep)
        assert main(["validate", QUADRATIC, "--checkpoints", "0"]) == \
            EXIT_CONFIG
        assert "--checkpoints 0" in capsys.readouterr().err

    def test_fold_truncation_exit_code(self, tmp_path):
        # coalescing companion family: complex pair turns defective at p = 1
        d = tmp_path / "fold"
        write_matrices(d, {"E": np.eye(2), "A0": [[0.0, 1.0], [-2.0, -2.0]],
                           "A0_slope": [[0.0, 0.0], [1.0, 0.0]]})
        (d / "manifest.ini").write_text(
            "format_version = 2\n"
            "[model]\nr = 2\nkind = affine\nE = E.mtx\nA0 = A0.mtx\n"
            "A0_slope = A0_slope.mtx\ndelays =\np_min = 0.2\np_max = 1.8\n"
            "[track]\np_init = 0.5\np_fin = 1.5\ndp = 0.001\n"
            "[init]\nN = 0\nshift = 0.7j\ncount = 2\n"
        )
        out = tmp_path / "t.csv"
        code = main(["track", str(d / "manifest.ini"), "--out", str(out)])
        assert code == 3
        rows = out.read_text().strip().splitlines()
        assert any("fold" in r for r in rows)
        assert float(rows[-1].split(",")[0]) < 1.5  # truncated before p_fin

    def test_numerical_failure_exit_code(self, tmp_path):
        # a seed far from any root cannot be refined
        code = main([
            "track", HAYES, "--init-from=5.0,0.0",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 4

    def test_init_from_seed(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main([
            "track", HAYES, "--dp", "0.01", "--init-from=-0.3,1.3",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        first = out.read_text().splitlines()[1].split(",")
        assert complex(float(first[1]), float(first[2])) == pytest.approx(
            HAYES_PRINCIPAL, abs=1e-9
        )


    @pytest.mark.parametrize("seed", ["x", "1.0", "1.0,2.0,3.0", "1.0,y"])
    def test_malformed_init_from_exit_code(self, tmp_path, capsys, seed):
        out = tmp_path / "t.csv"
        assert main(["track", HAYES, f"--init-from={seed}",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "--init-from expects RE,IM" in capsys.readouterr().err
        assert not out.exists()


class TestTrackFlags:
    """The override flags replace the manifest's sweep settings one field
    each; a flag left out keeps the manifest's value."""

    MANIFEST_TRACK = {"dp": 0.01, "method": "heun", "corrector_every": 7,
                      "corrector_tol": 1e-11, "p_fin": 1.5}

    @pytest.fixture
    def manifest(self, tmp_path):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        path = tmp_path / "m" / "manifest.ini"
        text = path.read_text()
        text = text[:text.index("[track]")] + "[track]\n" + "".join(
            f"{key} = {value}\n" for key, value in self.MANIFEST_TRACK.items()
        )
        path.write_text(text)
        return path

    @pytest.fixture
    def received(self, monkeypatch):
        """The TrackOptions that reach track_run, one per call."""
        seen = []

        def capture(family, initial, options):
            seen.append(options)
            return dt.Trajectory(samples=[initial])

        monkeypatch.setattr(cli, "track_run", capture)
        return seen

    @pytest.mark.parametrize("flags, field, value", [
        ([], None, None),
        (["--dp", "0.02"], "dp", 0.02),
        (["--method", "rk4"], "method", "rk4"),
        (["--corrector-every", "5"], "corrector_every", 5),
        (["--tol", "1e-9"], "corrector_tol", 1e-9),
        (["--p-fin", "2.0"], "p_fin", 2.0),
    ], ids=["none", "dp", "method", "corrector-every", "tol", "p-fin"])
    def test_flag_sets_its_field(self, manifest, received, tmp_path, flags,
                                 field, value):
        argv = ["track", str(manifest), "--out", str(tmp_path / "t.csv")]
        assert main(argv + flags) == EXIT_OK
        (options,) = received
        expected = dict(self.MANIFEST_TRACK)
        if field is not None:
            expected[field] = value
        assert {name: getattr(options, name) for name in expected} == expected
        assert options.regime == "delay_param"
