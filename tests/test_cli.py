import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phonon_lab import _lsq, cli, lindblad as lb, saw
from phonon_lab.errors import ConfigError
from phonon_lab.schema_io import document_text, load_schema, validate_document


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestValidation:
    def test_valid_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "admittance", "params": {"n_points": 101}})
        assert cli.main(["validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_empty_config_lists_missing_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {})
        assert cli.main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "kind" in err

    def test_unknown_kind(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "frobnicate"})
        assert cli.main(["validate", str(path)]) == 2
        assert "'chevron'" in capsys.readouterr().err

    def test_unknown_parameter_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "chevron", "params": {"bogus": 3}})
        assert cli.main(["validate", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_wrong_parameter_type(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "chevron", "params": {"n_delta": "many"}})
        assert cli.main(["validate", str(path)]) == 2
        assert "n_delta" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_oversized_integer_exits_2(self, tmp_path, capsys, command):
        # 5000 digits pass the JSON grammar but not Python's int conversion
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "chevron", "params": {"n_tau": ' + "9" * 5000 + "}}")
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli.main([command, str(path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("states", [[1], ["2"]], ids=["non-string", "unknown-state"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_wigner_state_rejected(self, tmp_path, capsys, command, states):
        path = write_config(tmp_path, {"kind": "wigner", "params": {"states": states}})
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli.main([command, str(path), *out]) == 2
        assert "$.params.states" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestColumnsCsv:
    def test_matches_csv_writer_of_formatted_fields(self):
        # the edge values of a float column, and the thermometry labels
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e-300, 0.5, -1234.56789])
        labels = ["qubit", "post_swap"] * 4 + ["qubit"]
        specs = [".6f", ".9e", ".8f", ".3f", ".6e", ".4e", ".4f"]
        header = ["sequence"] + [f"c{i}" for i in range(len(specs))]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(
            [[label] + [f"{v:{spec}}" for spec in specs] for label, v in zip(labels, values)]
        )
        got = cli._columns_csv(
            header, ["%s"] + ["%" + spec for spec in specs], labels, *[values] * len(specs)
        )
        assert got == buf.getvalue()


class TestRunScenarios:
    def test_admittance_artifacts(self, tmp_path):
        config = write_config(
            tmp_path, {"kind": "admittance", "params": {"n_points": 301}}
        )
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {
            "admittance.csv",
            "transducer.csv",
            "mirror.csv",
            "params.json",
            "summary.json",
            "run_record.json",
        } <= names
        for name in ("admittance.csv", "transducer.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "freq_hz,re_y_s,im_y_s"
            assert len(lines) == 1 + 301
        record = json.loads((out / "run_record.json").read_text())
        validate_document(record, load_schema("run_record"))
        assert record["scenario"]["kind"] == "admittance"
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["resonance_hz"] - 3.985e9) < 5e6

    def test_default_admittance_fits_the_reference_device(self, tmp_path):
        cli.execute_scenario(cli.parse_scenario({"kind": "admittance"}), tmp_path)
        got = json.loads((tmp_path / "summary.json").read_text())["bvd"]
        ref = saw.reference_bvd()
        assert (got["c_s_f"], got["l_s_h"], got["r_s_ohm"], got["c_t_f"], got["q"]) == (
            ref.c_s, ref.l_s, ref.r_s, ref.c_t, ref.q
        )

    def test_determinism_same_seed(self, tmp_path):
        config = write_config(tmp_path, {"kind": "thermometry", "seed": 11})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(config), "--out", str(out_a)]) == 0
        assert cli.main(["run", str(config), "--out", str(out_b)]) == 0
        csv_a = (out_a / "thermometry.csv").read_bytes()
        csv_b = (out_b / "thermometry.csv").read_bytes()
        assert csv_a == csv_b
        rec_a = json.loads((out_a / "run_record.json").read_text())
        rec_b = json.loads((out_b / "run_record.json").read_text())
        assert rec_a["content_hash"] == rec_b["content_hash"]

    def test_seed_changes_content(self, tmp_path):
        config = write_config(tmp_path, {"kind": "thermometry", "seed": 11})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(config), "--out", str(out_a)]) == 0
        assert cli.main(["run", str(config), "--out", str(out_b), "--seed", "12"]) == 0
        rec_a = json.loads((out_a / "run_record.json").read_text())
        rec_b = json.loads((out_b / "run_record.json").read_text())
        assert rec_a["content_hash"] != rec_b["content_hash"]

    def test_chevron_heatmap_and_determinism(self, tmp_path):
        doc = {
            "kind": "chevron",
            "params": {"n_delta": 5, "n_tau": 16, "tau_max_s": 60e-9},
        }
        config = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert cli.main(["run", str(config), "--out", str(out1)]) == 0
        assert cli.main(["run", str(config), "--out", str(out2)]) == 0
        assert (out1 / "chevron.svg").exists()
        assert (out1 / "chevron.csv").read_bytes() == (out2 / "chevron.csv").read_bytes()
        lines = (out1 / "chevron.csv").read_text().splitlines()
        assert lines[0] == "delta_hz,tau_s,p_e"
        assert len(lines) == 1 + 5 * 16
        # chevron is symmetric about zero detuning
        z = np.array([float(row.split(",")[2]) for row in lines[1:]]).reshape(5, 16)
        assert np.allclose(z[0], z[-1], atol=1e-6)
        assert np.allclose(z[1], z[-2], atol=1e-6)

    def test_fock2_artifacts(self, tmp_path):
        doc = {"kind": "fock2", "params": {"tau_lo_s": 20e-9, "tau_hi_s": 28e-9, "n_tau": 5}}
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
        lines = (out / "fock2.csv").read_text().splitlines()
        assert lines[0] == "tau_s,p_e,p0,p1,p2"
        summary = json.loads((out / "summary.json").read_text())
        assert 0 < summary["p2"] < 1


class TestScans:
    """fock2 and lifetimes sample one walk on their scan grid."""

    @staticmethod
    def rows(out, name):
        return np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)

    @pytest.mark.parametrize("doc", [
        {"kind": "fock2", "params": {"tau_lo_s": -10e-9}},
        {"kind": "lifetimes", "params": {"t_max_s": -10e-9, "n_points": 6}},
    ])
    def test_negative_scanned_duration_exits_3(self, tmp_path, capsys, doc):
        config = write_config(tmp_path, doc)
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
        assert "DomainError" in capsys.readouterr().err

    def test_fock2_decreasing_and_repeated_taus(self, tmp_path):
        kw = {"tau_lo_s": 14e-9, "tau_hi_s": 40e-9, "n_tau": 9}
        runs = {}
        for name, params in (
            ("up", kw),
            ("down", {**kw, "tau_lo_s": kw["tau_hi_s"], "tau_hi_s": kw["tau_lo_s"]}),
            ("same", {"tau_lo_s": 20e-9, "tau_hi_s": 20e-9, "n_tau": 3}),
        ):
            out = cli.execute_scenario(
                cli.parse_scenario({"kind": "fock2", "params": params}), tmp_path / name)
            summary = json.loads((out / "summary.json").read_text())
            runs[name] = (self.rows(out, "fock2.csv"), summary)
        assert np.array_equal(runs["down"][0], runs["up"][0][::-1])
        assert runs["down"][1] == runs["up"][1]
        same = runs["same"][0]
        assert np.array_equal(same, np.repeat(same[:1], 3, axis=0))
        assert runs["same"][1]["optimal_tau_s"] == 20e-9

    @pytest.mark.parametrize("t_max_s", [1e-9, 2e-9])
    def test_lifetimes_t_max_not_above_first_hold_exits_3(self, tmp_path, capsys, t_max_s):
        # the holds start at 2 ns, so a t_max_s at or below it leaves no
        # span to fit T1r and T2r on
        config = write_config(tmp_path, {"kind": "lifetimes", "params": {"t_max_s": t_max_s}})
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
        assert "first hold" in capsys.readouterr().err
        assert not (tmp_path / "out" / "t1r.csv").exists()

    def test_lifetimes_holds_match_full_sequences(self, tmp_path):
        out = cli.execute_scenario(cli.parse_scenario(
            {"kind": "lifetimes", "params": {"t_max_s": 200e-9, "n_points": 6}}), tmp_path / "out")
        t1r, t2r = self.rows(out, "t1r.csv"), self.rows(out, "t2r.csv")
        assert np.all(np.diff(t1r[:, 0]) > 0)
        p = lb.SystemParams(delta=2 * np.pi * 53e6)
        swap = lb.swap_segment(p)

        def full(angle, tail, w):
            seq = lb.PulseSequence([lb.Rotation("x", angle), swap, lb.Idle(w), swap, *tail,
                                    lb.Measure()])
            return lb.run_sequence(seq, p).p_e[0]

        x90, y90 = lb.TOMOGRAPHY_PULSES["x90"], lb.TOMOGRAPHY_PULSES["y90"]
        for w, p_t1r, p_x, p_y in zip(t1r[:, 0], t1r[:, 1], t2r[:, 1], t2r[:, 2]):
            assert abs(p_t1r - full(np.pi, [], w)) < 1e-6
            assert abs(p_x - full(np.pi / 2, [x90], w)) < 1e-6
            assert abs(p_y - full(np.pi / 2, [y90], w)) < 1e-6

    @pytest.mark.parametrize("kind,overrides,walks,calls", [
        pytest.param("fock2", {}, 1, 1, id="fock2-1"),
        pytest.param("lifetimes", {}, 4, 10, id="lifetimes-4"),
        pytest.param("lifetimes", {"n_points": 6}, 4, 10, id="lifetimes-4-at-6-points"),
    ])
    def test_each_scan_walks_its_prefix_once(self, monkeypatch, kind, overrides, walks, calls):
        # fock2 is one scan; lifetimes holds in four (T1r, T2r, the far
        # points and the fine window), and swaps each hold's states back in
        # stacked walks, one per readout (six), however many points it holds
        sampled, every = [], []
        run = lb.run_sequence

        def counting(seq, params, rho0=None, t_grid=()):
            every.append(seq)
            if np.size(t_grid):
                sampled.append(seq)
            return run(seq, params, rho0, t_grid)

        monkeypatch.setattr(lb, "run_sequence", counting)
        cli.KINDS[kind][0](cli.parse_scenario({"kind": kind, "params": overrides}))
        assert len(sampled) == walks
        assert len(every) == calls


class TestSummaryDomain:
    """A run whose summary has nothing to read exits 3 before writing."""

    @pytest.mark.parametrize("params", [
        {"f_lo_hz": 4.0e9, "f_hi_hz": 4.5e9},
        {"f_lo_hz": 3.5e9, "f_hi_hz": 3.9e9},
        {"n_points": 3},
    ], ids=["starts-above-band", "ends-below-3p95", "no-band-point"])
    def test_loss_spectrum_outside_band_exits_3(self, tmp_path, capsys, params):
        config = write_config(tmp_path, {"kind": "loss-spectrum", "params": params})
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
        assert "3.85-3.95 GHz" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_coupling_sweep_without_mutual_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, {"kind": "coupling-sweep",
                                         "params": {"m": 0.0, "sweep_points": 11}})
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
        assert "no nonzero coupling" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("doc,code", [
    ({"kind": "chevron", "params": {"n_tau": -1}}, 2),
    ({"kind": "coupling-sweep", "params": {"sweep_points": -5}}, 2),
    ({"kind": "thermometry", "seed": -1}, 2),
    ({"kind": "coupling-sweep", "params": {"m": float("nan")}}, 2),
    ({"kind": "fock2", "params": {"n_tau": 0}}, 3),
    ({"kind": "lifetimes", "params": {"n_points": 0}}, 3),
    ({"kind": "chevron", "params": {"n_delta": 0}}, 3),
    ({"kind": "chevron", "params": {"tau_max_s": 1e300}}, 3),
    ({"kind": "thermometry", "params": {"n_points": 0}}, 3),
    ({"kind": "thermometry", "params": {"n_points": 2}}, 3),
    ({"kind": "thermometry", "params": {"noise": 1e300}}, 3),
    ({"kind": "thermometry", "params": {"noise": 1e160}}, 3),
    ({"kind": "lifetimes", "params": {"t_max_s": 1e308}}, 3),
    ({"kind": "fock2", "params": {"tau_hi_s": 1e308}}, 3),
    ({"kind": "large-alpha", "params": {"tau_max_s": 1e308}}, 3),
    ({"kind": "admittance", "params": {"v_t": -1.0}}, 3),
    ({"kind": "lifetimes", "params": {"t_max_s": 7.999999999999999e-09, "n_points": 5}}, 3),
    ({"kind": "lifetimes", "params": {"t_max_s": 20e-9, "n_points": 5}}, 3),
    ({"kind": "lifetimes", "params": {"n_points": 2}}, 3),
    ({"kind": "lifetimes", "params": {"t_max_s": 41e-9, "n_points": 5}}, 3),
    ({"kind": "lifetimes", "params": {"t_max_s": 130e-9, "n_points": 4}}, 3),
    ({"kind": "wigner", "params": {"noise": -0.01, "states": ["1"]}}, 3),
    ({"kind": "thermometry", "params": {"noise": -0.001}}, 3),
    ({"kind": "chevron", "params": {"delta_span_hz": 1e300}}, 3),
    ({"kind": "large-alpha", "params": {"tau_max_s": 1e300}}, 3),
    ({"kind": "lifetimes", "params": {"t_max_s": 1e300}}, 3),
    ({"kind": "chevron", "params": {"delta_span_hz": 1e308}}, 3),
    ({"kind": "large-alpha", "params": {"alpha_max": 1e300}}, 3),
    ({"kind": "wigner", "params": {"alpha_radius": 1e300}}, 3),
    ({"kind": "wigner", "params": {"noise": 1e300}}, 3),
    ({"kind": "admittance", "params": {"f_hi_hz": 1e300}}, 3),
    ({"kind": "thermometry", "params": {"resonator_population": -1.0}}, 3),
    ({"kind": "thermometry", "params": {"qubit_population": 2.0}}, 3),
    ({"kind": "wigner", "params": {"states": []}}, 3),
], ids=["chevron-n_tau-negative", "sweep_points-negative", "seed-negative", "m-nan",
        "fock2-n_tau-0", "lifetimes-n_points-0", "chevron-n_delta-0", "chevron-tau-overflow",
        "thermometry-n_points-0", "thermometry-n_points-2", "thermometry-noise-overflow",
        "thermometry-variance-overflow", "lifetimes-span-overflow", "fock2-span-overflow",
        "large-alpha-span-overflow",
        "admittance-v_t-negative", "lifetimes-8ns-singular-step", "lifetimes-20ns-unresolved",
        "lifetimes-n_points-2", "lifetimes-41ns-short-window", "lifetimes-130ns-short-window",
        "wigner-noise-negative", "thermometry-noise-negative",
        "chevron-detuning-overflow", "large-alpha-ns-overflow", "lifetimes-phase-overflow",
        "chevron-span-overflow", "large-alpha-alpha-overflow", "wigner-radius-overflow",
        "wigner-noise-overflow", "admittance-f_hi-overflow", "thermometry-population-negative",
        "thermometry-population-above-1", "wigner-no-states"])
@pytest.mark.filterwarnings("error")
def test_unusable_config_exits_2_or_3_without_traceback(tmp_path, capsys, doc, code):
    # a negative count or seed and a non-finite number are configuration
    # errors; a count too small to run on, a value outside the model's
    # domain, or a floating-point overflow on the way, is a numerical
    # failure; none of them may warn, and none writes a summary
    config = write_config(tmp_path, doc)
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_failed_run_restores_the_floating_point_error_state(tmp_path):
    before = np.geterr()
    scn = cli.parse_scenario({"kind": "chevron", "params": {"tau_max_s": 1e300}})
    with pytest.raises(FloatingPointError):
        cli.execute_scenario(scn, tmp_path)
    assert np.geterr() == before


class TestReproduce:
    def test_fig4a_thermometry(self, tmp_path, capsys):
        out = tmp_path / "fig4a"
        assert cli.main(["reproduce", "fig4a", "--out", str(out)]) == 0
        doc = json.loads((out / "reproduce_summary.json").read_text())
        assert doc["figure"] == "fig4a"
        ref = doc["reference"]["qubit_excited_population"]
        assert ref["value"] == pytest.approx(0.0169)
        assert "source" in ref
        got = doc["computed"]["qubit"]["population"]
        assert abs(got - 0.0169) < 0.001

    def test_fig4d_reconstructions_report_min_eigenvalue(self, tmp_path, capsys):
        out = tmp_path / "fig4d"
        assert cli.main(["reproduce", "fig4d", "--out", str(out)]) == 0
        for tag in ("0", "1", "0plus1"):
            doc = json.loads((out / f"reconstruction_{tag}.json").read_text())
            validate_document(doc, load_schema("reconstruction"))
            rho = np.array(doc["rho_re"]) + 1j * np.array(doc["rho_im"])
            assert doc["min_eigenvalue"] == pytest.approx(
                np.linalg.eigvalsh(rho[:4, :4])[0], abs=1e-15)
            # the linear estimate is reported as it is, without a projection
            assert tag == "0" or doc["min_eigenvalue"] < 0

    def test_unknown_figure_lists_supported(self, capsys):
        assert cli.main(["reproduce", "nope"]) == 2
        err = capsys.readouterr().err
        assert "fig2" in err and "figS6" in err


class TestEmittedSchemas:
    def test_wigner_documents_validate(self, tmp_path):
        doc = {
            "kind": "wigner",
            "params": {"states": ["0"], "alpha_radius": 1.0},
        }
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
        dataset = json.loads((out / "dataset_0.json").read_text())
        validate_document(dataset, load_schema("dataset"))
        recon = json.loads((out / "reconstruction_0.json").read_text())
        validate_document(recon, load_schema("reconstruction"))
        wigner_lines = (out / "wigner_0.csv").read_text().splitlines()
        assert wigner_lines[0] == "alpha_re,alpha_im,w"
        assert len(wigner_lines) == 1 + 25
        assert (out / "wigner_0.svg").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["0"]["fidelity"] > 0.95

    def test_wigner_json_artifacts_end_in_one_newline(self, tmp_path):
        doc = {"kind": "wigner", "params": {"states": ["0"], "alpha_radius": 1.0}}
        out = tmp_path / "out"
        assert cli.main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        written = sorted(out.glob("*.json"))
        assert "dataset_0.json" in [p.name for p in written]
        for path in written:
            text = path.read_text()
            assert text.endswith("\n") and not text.endswith("\n\n"), path.name

    def test_scenario_schema_rejects_bad_seed(self):
        with pytest.raises(ConfigError):
            validate_document({"kind": "chevron", "seed": "zero"}, load_schema("scenario"))

    def test_document_text_is_the_artifact_format(self):
        doc = {"b": [1, 2.5], "a": {"z": None, "y": "x"}}
        assert document_text(doc) == (
            '{\n  "a": {\n    "y": "x",\n    "z": null\n  },\n'
            '  "b": [\n    1,\n    2.5\n  ]\n}\n'
        )

    def test_document_text_names_the_field_its_schema_rejects(self):
        doc = {"kind": "chevron", "params": [], "seed": 0}
        with pytest.raises(ConfigError, match=r"\$\.params: expected object"):
            document_text(doc, "scenario")


class TestRunRecord:
    """The record lists exactly the files its run wrote, hashed as written."""

    def test_second_run_into_one_directory_gives_the_same_hash(self, tmp_path):
        first = cli.reproduce("fig4a", tmp_path)
        record = json.loads((tmp_path / "run_record.json").read_text())
        assert cli.reproduce("fig4a", tmp_path) == first
        again = json.loads((tmp_path / "run_record.json").read_text())
        assert again["artifacts"] == record["artifacts"]
        assert again["content_hash"] == record["content_hash"]
        assert set(record["artifacts"]) == {"summary.json", "thermometry.csv"}

    def test_stray_file_is_not_listed_and_left_untouched(self, tmp_path):
        (tmp_path / "stray.csv").write_bytes(b"left,over\r\n")
        cli.execute_scenario(cli.parse_scenario({"kind": "thermometry"}), tmp_path)
        record = json.loads((tmp_path / "run_record.json").read_text())
        assert set(record["artifacts"]) == {"summary.json", "thermometry.csv"}
        assert (tmp_path / "stray.csv").read_bytes() == b"left,over\r\n"

    def test_digests_match_the_files_on_disk(self, tmp_path):
        # a run of another figure into the same directory first
        cli.reproduce("fig4a", tmp_path)
        cli.reproduce("fig2", tmp_path)
        record = json.loads((tmp_path / "run_record.json").read_text())
        assert set(record["artifacts"]) == {
            "admittance.csv", "mirror.csv", "params.json", "summary.json", "transducer.csv",
        }
        for name, digest in record["artifacts"].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestScenarioParsing:
    def test_every_kind_has_keys_and_a_runner(self):
        # KINDS alone declares the kinds; the schema checks only the type
        assert load_schema("scenario")["properties"]["kind"] == {"type": "string"}
        for run, defaults in cli.KINDS.values():
            assert callable(run) and defaults
        for kind, overrides, _ in cli.FIGURES.values():
            assert kind in cli.KINDS
            cli.parse_scenario({"kind": kind, "params": overrides})

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"bogus": 3}, "bogus"),
            ({"n_delta": True}, "n_delta"),
            ({"tau_max_s": "long"}, "tau_max_s"),
            ({"delta_span_hz": [40e6]}, "delta_span_hz"),
        ],
        ids=["unknown-key", "bool-for-int", "str-for-float", "list-for-float"],
    )
    def test_bad_parameter_rejected(self, params, key):
        with pytest.raises(ConfigError, match=f"params.{key}") as err:
            cli.parse_scenario({"kind": "chevron", "params": params})
        if key == "bogus":
            assert all(allowed in str(err.value) for allowed in cli.KINDS["chevron"][1])

    def test_int_for_float_is_coerced(self):
        scn = cli.parse_scenario({"kind": "chevron", "params": {"tau_max_s": 1}})
        assert scn.params["tau_max_s"] == 1.0
        assert type(scn.params["tau_max_s"]) is float

    def test_run_record_echoes_every_parameter(self, tmp_path):
        doc = {"kind": "thermometry", "params": {"noise": 0.002}}
        cli.execute_scenario(cli.parse_scenario(doc), tmp_path)
        record = json.loads((tmp_path / "run_record.json").read_text())
        assert record["scenario"]["params"] == {**cli.KINDS["thermometry"][1], "noise": 0.002}

    def test_parse_scenario_seed_override(self):
        scn = cli.parse_scenario({"kind": "thermometry", "seed": 5}, seed=9)
        assert scn.seed == 9

    def test_default_out_dir_naming(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, {"kind": "thermometry"}, name="mytherm.json")
        assert cli.main(["run", str(config)]) == 0
        assert Path(tmp_path / "mytherm-out" / "run_record.json").exists()


def _exponential(t, amp, tau, offset):
    return amp * np.exp(-t / tau) + offset


def _damped_cosine(t, amp, freq, phase, tau, offset):
    return amp * np.cos(2 * np.pi * freq * t + phase) * np.exp(-t / tau) + offset


class TestLifetimeFits:
    """The three decay fits of the lifetimes scenario."""

    def test_default_scan_matches_curve_fit(self, monkeypatch):
        from scipy.optimize import curve_fit

        calls = []
        fit_decay = cli._fit_decay

        def recording(model, t, y, start):
            calls.append((model, t, y, np.asarray(start, dtype=float), fit_decay(model, t, y, start)))
            return calls[-1][-1]

        monkeypatch.setattr(cli, "_fit_decay", recording)
        _, summary = cli.run_lifetimes(cli.parse_scenario({"kind": "lifetimes"}))
        oracles = {cli._exponential_decay: _exponential, cli._damped_cosine_decay: _damped_cosine}
        assert [oracles[c[0]] for c in calls] == [_exponential, _exponential, _damped_cosine]
        for model, t, y, start, got in calls:
            want, _ = curve_fit(oracles[model], t, y, p0=start, maxfev=40000,
                                ftol=1e-14, xtol=1e-14, gtol=1e-14)
            # an offset or a phase that starts at 0 is compared in absolute terms
            scale = np.where(start != 0.0, np.abs(start), 1.0)
            assert np.all(np.abs(got - want) <= 1e-6 * scale)
        assert summary["t1r_s"] == calls[0][-1][1]
        assert summary["t2r_s"] == abs(calls[1][-1][1])
        assert summary["idle_oscillation_hz"] == abs(calls[2][-1][1])

    @pytest.mark.parametrize("model, p", [
        (cli._exponential_decay, [0.9, 150e-9, 0.02]),
        (cli._damped_cosine_decay, [0.45, 53e6, 0.3, 400e-9, 0.5]),
    ])
    def test_jacobian_matches_central_differences(self, model, p):
        t = np.linspace(2e-9, 450e-9, 31)
        p = np.array(p)
        _, jac = model(t, p)
        for k in range(p.size):
            h = np.zeros(p.size)
            h[k] = 1e-6 * p[k]
            fd = (model(t, p + h)[0] - model(t, p - h)[0]) / (2 * h[k])
            assert np.allclose(jac[:, k], fd, rtol=1e-6, atol=1e-9 * np.abs(fd).max())

    def test_evaluation_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_lsq, "MAX_NFEV", 2)
        path = write_config(tmp_path, {"kind": "lifetimes", "params": {"n_points": 6}})
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "ConvergenceError" in capsys.readouterr().err


# in a fresh process: import the CLI, run the lifetimes scenario and a
# circuit fit, build a displacement, and score one state with its linear
# sigma after building the default dynamics parameters (which fit the
# reference device); every matrix exponential of the library runs
_FITTING_PROCESS = """
import sys
import numpy as np
from phonon_lab import circuit, cli, lindblad, tomography
cli.run_lifetimes(cli.parse_scenario({"kind": "lifetimes"}))
phi = np.linspace(0.02, 0.98, 40)
circuit.fit_circuit(np.column_stack([phi, circuit.qubit_frequency(phi, circuit.CircuitParams())]))
lindblad.SystemParams()
lindblad.displacement_operator(10, 0.5)
rho = np.zeros((10, 10))
rho[0, 0] = 1.0
tomography.fidelity(rho, np.eye(4)[0], 1e-4 * np.eye(15))
print(any(name == "scipy" or name.startswith("scipy.") for name in sys.modules))
"""


def test_fitting_process_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FITTING_PROCESS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False"]
