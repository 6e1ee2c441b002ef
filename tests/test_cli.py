"""End-to-end command-line tests via subprocess, including exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bilop import (
    SchmidtRepresentation,
    SchmidtStatus,
    SchmidtTerm,
    Tensor3,
    cli,
    gallery,
    spectra,
    verify_representation,
)

S2 = np.sqrt(2.0)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bilop", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Tensor and triples JSON files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    from bilop import tensor_to_json_dict

    paths = {}
    for stem, T in [
        ("diag_pair", gallery.diagonal_pair()),
        ("overlap", gallery.overlapping_slices()),
        ("signed_diag", gallery.signed_diagonal((3.0, -2.0, 1.0))),
        ("triad", gallery.orthonormal_triad()),
    ]:
        p = root / f"{stem}.json"
        p.write_text(json.dumps(tensor_to_json_dict(T)))
        paths[stem] = str(p)

    skew = np.zeros((2, 2, 2))
    skew[0, 0, 1] = 1.0
    p = root / "skew.json"
    p.write_text(json.dumps(tensor_to_json_dict(Tensor3.from_array(skew))))
    paths["skew"] = str(p)

    triples = {
        "triples": [
            {
                "tau": float(S2),
                "x": [float(S2 / 2), 0.0, float(S2 / 2)],
                "y": [0.0, 1.0],
                "z": [0.0, 0.0, 0.0, 1.0],
            },
            {
                "tau": float(S2),
                "x": [1.0, 0.0, 0.0],
                "y": [0.0, 1.0],
                "z": [0.0, 0.0, 0.0, 1.0],
            },
        ]
    }
    p = root / "overlap_triples.json"
    p.write_text(json.dumps(triples))
    paths["overlap_triples"] = str(p)

    p = root / "bad_dims_triples.json"
    p.write_text(
        json.dumps(
            {"triples": [{"tau": 1.0, "x": [1.0, 0.0], "y": [0.0, 1.0], "z": [1.0]}]}
        )
    )
    paths["bad_dims_triples"] = str(p)

    p = root / "non_unit_triples.json"
    p.write_text(
        json.dumps(
            {
                "triples": [
                    {
                        "tau": 1.0,
                        "x": [1.0, 0.0, 1.0],
                        "y": [0.0, 1.0],
                        "z": [0.0, 0.0, 0.0, 1.0],
                    }
                ]
            }
        )
    )
    paths["non_unit_triples"] = str(p)

    # Finite entries, but a Hilbert-Schmidt norm beyond the float range.
    p = root / "huge.json"
    p.write_text(json.dumps({"dims": [2, 2, 2], "values": [1e300] * 8}))
    paths["huge"] = str(p)

    p = root / "not_json.json"
    p.write_text("{this is not json")
    paths["not_json"] = str(p)
    paths["missing"] = str(root / "no_such_file.json")
    return paths


class TestNorm:
    def test_human_output(self, files):
        proc = run_cli("norm", files["diag_pair"], "--starts", "32")
        assert proc.returncode == 0
        assert "bilinear_norm: 3.000000000000" in proc.stdout
        assert "hs_norm: 3.605551275464" in proc.stdout

    def test_json_report(self, files):
        proc = run_cli("norm", files["diag_pair"], "--starts", "32", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "norm"
        assert report["status"] == "Ok"
        assert report["input"]["dims"] == [3, 2, 4]
        assert report["config"]["starts"] == 32
        assert report["result"]["bilinear_norm"] == pytest.approx(3.0, abs=1e-9)
        assert report["result"]["attained"]["tau"] == pytest.approx(3.0, abs=1e-9)

    def test_no_verified_triple_exits_two(self, files):
        proc = run_cli("norm", files["diag_pair"], "--max-iter", "1", "--json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "max_iter=1" in proc.stderr


class TestSpectrum:
    def test_reports_ordered_flags(self, files):
        proc = run_cli("spectrum", files["diag_pair"], "--starts", "64", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        triples = report["result"]["triples"]
        assert report["result"]["count"] == len(triples) == 6
        assert report["result"]["complete"] is False
        assert triples[0]["tau"] == pytest.approx(3.0, abs=1e-9)
        assert triples[0]["ordered"] is True
        assert triples[1]["ordered"] is True
        assert all(t["ordered"] is False for t in triples[2:])


class TestSchmidt:
    def test_complete_decomposition_exits_zero(self, files):
        proc = run_cli("schmidt", files["diag_pair"], "--starts", "32", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["status"] == "Ok"
        assert report["result"]["status"] == "Complete"
        assert report["result"]["sum_tau_sq"] == pytest.approx(13.0, abs=1e-9)
        assert report["result"]["verification"]["reconstruction_ok"] is True

    @pytest.mark.parametrize("stem", ["diag_pair", "triad"])
    def test_a_complete_result_is_verified_once(self, files, stem, monkeypatch, capsys):
        # diag_pair takes the SVD path, whose last gate is the check the report
        # shows; triad the greedy path, which the CLI verifies itself.
        from bilop import schmidt

        seen = []
        real = schmidt.verify_representation

        def counting(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(schmidt, "verify_representation", counting)
        monkeypatch.setattr(cli, "verify_representation", counting)
        assert cli.main(["schmidt", files[stem], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(seen) == 1
        assert report["result"]["verification"] == dataclasses.asdict(real(*seen[0]))

    def test_failed_decomposition_exits_three(self, files):
        proc = run_cli("schmidt", files["overlap"], "--starts", "32", "--json")
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert report["status"] == "Failed"
        assert report["result"]["terms"] == []
        failure = report["result"]["deflation"]["failure"]
        assert failure["step"] == 1
        assert failure["reason"] == "NotOrdered"

    def test_no_verified_triple_exits_three(self, files):
        proc = run_cli("schmidt", files["overlap"], "--max-iter", "1", "--json")
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert report["result"]["deflation"]["steps"] == []
        failure = report["result"]["deflation"]["failure"]
        assert (failure["step"], failure["reason"]) == (1, "NoTripleFound")

    def test_failure_is_explained_in_human_mode(self, files):
        proc = run_cli("schmidt", files["overlap"], "--starts", "32")
        assert proc.returncode == 3
        assert "NotOrdered" in proc.stdout

    def test_report_round_trips_into_a_verified_representation(self, files):
        proc = run_cli("schmidt", files["signed_diag"], "--starts", "32", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        terms = tuple(
            SchmidtTerm(
                tau=t["tau"],
                x=np.array(t["x"]),
                y=np.array(t["y"]),
                z=np.array(t["z"]),
            )
            for t in report["result"]["terms"]
        )
        rebuilt = SchmidtRepresentation(
            dims=tuple(report["input"]["dims"]),
            terms=terms,
            reconstruction_residual=report["result"]["reconstruction_residual"],
            status=SchmidtStatus.COMPLETE,
        )
        T = gallery.signed_diagonal((3.0, -2.0, 1.0))
        assert verify_representation(T, rebuilt, 1e-9).all_ok


class TestSchur:
    def test_signed_weights_in_report(self, files):
        proc = run_cli("schur", files["signed_diag"], "--starts", "32", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        lams = [t["lambda"] for t in report["result"]["terms"]]
        assert lams == pytest.approx([3.0, -2.0, 1.0], abs=1e-10)
        assert report["result"]["verification"]["reconstruction_ok"] is True

    def test_rectangular_input_exits_four(self, files):
        proc = run_cli("schur", files["diag_pair"])
        assert proc.returncode == 4
        assert "equal dims" in proc.stderr

    def test_non_self_adjoint_input_exits_four(self, files):
        proc = run_cli("schur", files["skew"])
        assert proc.returncode == 4
        assert "self-adjoint" in proc.stderr


class TestVerify:
    def test_reports_verified_and_impostor_triples(self, files):
        proc = run_cli(
            "verify", files["overlap"], files["overlap_triples"], "--json"
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        good, bad = report["result"]["triples"]
        assert good["verified"] is True
        assert good["ordered"] is False
        assert good["stationarity"] <= 1e-6
        assert bad["verified"] is False
        assert bad["ordered"] is None
        assert max(bad["residuals"]) > 0.1

    def test_dimension_mismatch_exits_two(self, files):
        proc = run_cli("verify", files["overlap"], files["bad_dims_triples"])
        assert proc.returncode == 2
        assert "do not match tensor dims" in proc.stderr

    def test_non_unit_vectors_exit_two(self, files):
        proc = run_cli("verify", files["overlap"], files["non_unit_triples"])
        assert proc.returncode == 2

    @staticmethod
    def triples_file(path, triples) -> str:
        items = [{"tau": t.tau, "x": list(t.x), "y": list(t.y), "z": list(t.z)} for t in triples]
        path.write_text(json.dumps({"triples": items}))
        return str(path)

    def test_several_triples_are_classified_as_is_ordered_classifies_each(self, files, tmp_path):
        # The triad's spectrum with an impostor in second place: the verified triples, normalised as verify
        # reads them, are classified in one batch, and each entry carries the bits is_ordered gives it alone.
        T = gallery.orthonormal_triad()
        listed = list(spectra.enumerate_triples(T).triples)
        impostor = dataclasses.replace(listed[0], tau=listed[0].tau + 0.5)
        path = self.triples_file(tmp_path / "triples.json", [listed[0], impostor, *listed[1:]])
        proc = run_cli("verify", files["triad"], path, "--json")
        assert proc.returncode == 0, proc.stderr
        entries = json.loads(proc.stdout)["result"]["triples"]
        assert [e["verified"] for e in entries] == [True, False] + [True] * (len(listed) - 1)
        assert entries[1]["ordered"] is entries[1]["slice_residuals"] is entries[1]["stationarity"] is None
        for entry, triple in zip(entries[:1] + entries[2:], listed):
            unit = dataclasses.replace(triple, **{f: getattr(triple, f) / np.linalg.norm(getattr(triple, f)) for f in "xyz"})
            check = spectra.is_ordered(T, spectra.canonicalize(unit), 1e-9)
            assert entry["ordered"] is check.ordered
            assert entry["slice_residuals"] == list(check.slice_residuals)
        assert any(e["ordered"] for e in entries) and any(e["ordered"] is False for e in entries)

    def test_a_non_unit_triple_among_several_exits_two_and_is_named(self, files, tmp_path):
        T = gallery.orthonormal_triad()
        listed = list(spectra.enumerate_triples(T).triples)
        long = dataclasses.replace(listed[1], x=2.0 * listed[1].x)
        path = self.triples_file(tmp_path / "triples.json", [listed[0], listed[2], long])
        proc = run_cli("verify", files["triad"], path)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "triple 3: x is not a unit vector" in proc.stderr


class TestInputHandling:
    def test_malformed_json_exits_two(self, files):
        proc = run_cli("norm", files["not_json"])
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr

    def test_nan_tolerance_exits_two(self, files):
        proc = run_cli("spectrum", files["diag_pair"], "--dedup-tol", "nan")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "dedup_tol must be positive" in proc.stderr

    @pytest.mark.parametrize("command", ["norm", "spectrum", "schmidt", "schur", "verify"])
    def test_overflowing_tensor_exits_two(self, files, command):
        extra = [files["overlap_triples"]] if command == "verify" else []
        proc = run_cli(command, files["huge"], *extra)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "tensor values overflow" in proc.stderr

    def test_overflowing_tensor_is_refused_before_any_search(self, files, monkeypatch, capsys):
        def searched(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(spectra, "_alternating_stage", searched)
        assert cli.main(["norm", files["huge"]]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_file_exits_two(self, files):
        proc = run_cli("norm", files["missing"])
        assert proc.returncode == 2
        assert "cannot read" in proc.stderr

    def test_repeated_runs_are_byte_identical(self, files):
        args = ("spectrum", files["diag_pair"], "--starts", "48", "--seed", "7", "--json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("command", ["spectrum", "schmidt"])
    def test_reports_are_byte_identical_across_blas_thread_counts(self, files, command):
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "bilop", command, files["triad"], "--json"],
                capture_output=True,
                text=True,
                timeout=120,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
