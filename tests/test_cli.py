"""Manifest loading and command-line integration."""

import io
import os
import shutil

import numpy as np
import pytest

import delaytrack as dt
from delaytrack.cli import (
    EXIT_CONFIG,
    EXIT_NO_RESULT,
    EXIT_OK,
    main,
    read_trajectory_csv,
    write_trajectory_csv,
)
from delaytrack.errors import ManifestError
from delaytrack.manifest import load_manifest, write_model_bundle

from conftest import FIXTURES, HAYES_PRINCIPAL

HAYES = os.path.join(FIXTURES, "hayes", "manifest.ini")
QUADRATIC = os.path.join(FIXTURES, "quadratic", "manifest.ini")


class TestLoadManifest:
    def test_hayes_fixture_is_delay_parameter_family(self):
        man = load_manifest(HAYES)
        assert isinstance(man.family, dt.DelayParameterFamily)
        assert man.r == 1
        assert man.track.regime == "delay_param"
        assert man.family.delay_index == 0
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

    def test_unknown_regime_reported(self, tmp_path):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        text = (tmp_path / "m" / "manifest.ini").read_text()
        (tmp_path / "m" / "manifest.ini").write_text(
            text.replace("kind = delay_param\ndelay_index = 0\n\n[track]",
                         "kind = mystery\ndelay_index = 0\n\n[track]")
        )
        with pytest.raises(ManifestError) as info:
            load_manifest(tmp_path / "m" / "manifest.ini")
        assert info.value.code == "unknown-regime"

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

    def test_regime_delay_index_must_match_the_family(self, tmp_path):
        model = dt.DelayedLinearModel(
            np.eye(2), -np.eye(2), [(0.5, 0.1 * np.eye(2)), (1.0, np.eye(2))]
        )
        path = write_model_bundle(model, tmp_path, (0.5, 2.0), delay_index=1)
        assert load_manifest(path).family.delay_index == 1
        text = open(path).read()
        old = "[regime]\nkind = delay_param\ndelay_index = 1"
        assert old in text
        with open(path, "w") as fh:
            fh.write(text.replace(old, old[:-1] + "0"))
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert info.value.code == "regime-mismatch"

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
        back = read_trajectory_csv(buf)
        assert len(back.samples) == len(traj.samples)
        for a, b in zip(traj.samples, back.samples):
            assert a.p == b.p
            assert a.s_r == b.s_r
            assert a.s_i == b.s_i
            assert a.residual == b.residual
        assert [(e.kind, e.index) for e in back.events] == [
            (e.kind, e.index) for e in traj.events
        ]

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

    def test_unknown_regime_exit_code(self, tmp_path):
        shutil.copytree(os.path.dirname(HAYES), tmp_path / "m")
        text = (tmp_path / "m" / "manifest.ini").read_text()
        (tmp_path / "m" / "manifest.ini").write_text(
            text.replace("kind = delay_param\ndelay_index = 0\n\n[track]",
                         "kind = mystery\ndelay_index = 0\n\n[track]")
        )
        code = main(["spectrum", str(tmp_path / "m" / "manifest.ini")])
        assert code == EXIT_CONFIG

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

    def test_fold_truncation_exit_code(self, tmp_path):
        # coalescing companion family: complex pair turns defective at p = 1
        import scipy.io
        import scipy.sparse as sp

        d = tmp_path / "fold"
        d.mkdir()
        for name, mat in (
            ("E.mtx", np.eye(2)),
            ("A0.mtx", [[0.0, 1.0], [-2.0, -2.0]]),
            ("A0_slope.mtx", [[0.0, 0.0], [1.0, 0.0]]),
        ):
            scipy.io.mmwrite(
                str(d / name), sp.coo_array(np.asarray(mat, dtype=float)),
                field="real", symmetry="general",
            )
        (d / "manifest.ini").write_text(
            "format_version = 1\n"
            "[model]\nr = 2\nkind = affine\nE = E.mtx\nA0 = A0.mtx\n"
            "A0_slope = A0_slope.mtx\ndelays =\np_min = 0.2\np_max = 1.8\n"
            "[regime]\nkind = multi\n"
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
